"""Evaluation metrics: Spearman correlation and ranking metrics.

Implements exactly the measures the paper reports: Spearman's rho for the
difference-vs-citation studies (Tab. I, Fig. 2/3), and nDCG@k / MRR / MAP
for the recommendation experiments (Tab. IV-VIII, Fig. 6); plus the sign
test that the paired ablations report. The nDCG definition matches
Sec. IV-D: relevance 5 for actually-cited candidates, 0 otherwise, with
``IDCG`` computed over the user's true citations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Relevance assigned to a truly cited paper ("we set rel_i = 5 based on
#: experience").
CITED_RELEVANCE = 5.0


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Average ranks of *values* (1-based, ties share the mean rank)."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman's rank correlation coefficient between two sequences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two observations")
    ra, rb = rankdata(a), rankdata(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denominator = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denominator == 0:
        return 0.0
    return float((ra * rb).sum() / denominator)


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value of paired *wins* against
    *losses* (ties are dropped before counting); 1.0 with no pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def dcg_at_k(relevances: Sequence[float], k: int) -> float:
    """Discounted cumulative gain of the first *k* relevances."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    relevances = np.asarray(relevances, dtype=np.float64)[:k]
    if relevances.size == 0:
        return 0.0
    discounts = np.log2(np.arange(2, relevances.size + 2))
    return float((relevances / discounts).sum())


def ndcg_at_k(ranked_ids: Sequence[str], relevant_ids: set[str], k: int) -> float:
    """nDCG@k as defined in Sec. IV-D.

    Parameters
    ----------
    ranked_ids:
        Candidate ids sorted by model score, best first.
    relevant_ids:
        Ids the user actually cited.
    k:
        Cutoff.
    """
    if not relevant_ids:
        raise ValueError("relevant_ids must be non-empty for nDCG")
    gains = [CITED_RELEVANCE if pid in relevant_ids else 0.0 for pid in ranked_ids]
    ideal = [CITED_RELEVANCE] * len(relevant_ids)
    idcg = dcg_at_k(ideal, len(ideal))
    return dcg_at_k(gains, k) / idcg


def reciprocal_rank(ranked_ids: Sequence[str], relevant_ids: set[str]) -> float:
    """1/rank of the first relevant item (0 when none appears)."""
    for i, pid in enumerate(ranked_ids, start=1):
        if pid in relevant_ids:
            return 1.0 / i
    return 0.0


def average_precision(ranked_ids: Sequence[str], relevant_ids: set[str]) -> float:
    """Mean of precision@hit over all relevant items (AP)."""
    if not relevant_ids:
        raise ValueError("relevant_ids must be non-empty for AP")
    hits = 0
    total = 0.0
    for i, pid in enumerate(ranked_ids, start=1):
        if pid in relevant_ids:
            hits += 1
            total += hits / i
    return total / len(relevant_ids)


def mean_metric(per_user_values: Sequence[float]) -> float:
    """Average a per-user metric, guarding against empty input."""
    values = np.asarray(per_user_values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no per-user values to average")
    return float(values.mean())


def precision_at_k(ranked_ids: Sequence[str], relevant_ids: set[str], k: int) -> float:
    """Fraction of the top-*k* candidates that are relevant."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    top = list(ranked_ids)[:k]
    if not top:
        return 0.0
    return sum(1 for pid in top if pid in relevant_ids) / len(top)
