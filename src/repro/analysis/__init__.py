"""Evaluation machinery: metrics, correlation studies, regression."""

from repro.analysis.correlation import (
    OutlierCitationStudy,
    clustered_outlier_scores,
    normalize_scores,
    outlier_citation_study,
    score_citation_correlation,
)
from repro.analysis.metrics import (
    CITED_RELEVANCE,
    average_precision,
    dcg_at_k,
    mean_metric,
    ndcg_at_k,
    precision_at_k,
    rankdata,
    reciprocal_rank,
    sign_test,
    spearman_correlation,
)
from repro.analysis.regression import LinearFit, linear_regression

__all__ = [
    "spearman_correlation", "rankdata",
    "dcg_at_k", "ndcg_at_k", "reciprocal_rank", "average_precision",
    "precision_at_k", "mean_metric", "CITED_RELEVANCE", "sign_test",
    "LinearFit", "linear_regression",
    "OutlierCitationStudy", "outlier_citation_study",
    "clustered_outlier_scores", "normalize_scores",
    "score_citation_correlation",
]
