"""Clustering and outlier analysis: k-means, GMM+BIC, LOF, t-SNE."""

from repro.cluster.gmm import GaussianMixture, select_components_bic
from repro.cluster.kmeans import KMeans, kmeans_plus_plus
from repro.cluster.lof import local_outlier_factor
from repro.cluster.tsne import tsne

__all__ = [
    "KMeans", "kmeans_plus_plus",
    "GaussianMixture", "select_components_bic",
    "local_outlier_factor",
    "tsne",
]
