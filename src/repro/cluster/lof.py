"""Local Outlier Factor (Breunig et al., SIGMOD 2000) [32].

The paper uses LOF over subspace embeddings as the *difference score* of a
paper: the more a paper's embedding deviates from the local density of its
neighbours, the more different (novel) the paper is.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


def _pairwise_distances(data: np.ndarray) -> np.ndarray:
    # Centre first: the ||x||^2 + ||y||^2 - 2xy expansion loses precision
    # catastrophically when the data sits far from the origin, and LOF
    # should be translation-invariant anyway.
    data = data - data.mean(axis=0)
    squared = (data**2).sum(axis=1)
    gram = data @ data.T
    d2 = squared[:, None] + squared[None, :] - 2.0 * gram
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def local_outlier_factor(data: np.ndarray, k: int = 10) -> np.ndarray:
    """LOF score per row of *data*; > 1 means locally sparser than peers.

    Parameters
    ----------
    data:
        ``(n, d)`` embedding matrix.
    k:
        Neighbourhood size (``MinPts``). Clamped to ``n - 1``.

    Returns
    -------
    ``(n,)`` array of LOF values. Degenerate cases (duplicate points with
    zero reach distance) score 1.0, i.e. perfectly inlying.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected 2-D data, got shape {data.shape}")
    n = data.shape[0]
    if n < 2:
        raise ValueError("LOF requires at least two points")
    check_positive("k", k)
    k = min(k, n - 1)

    distances = _pairwise_distances(data)
    # k nearest neighbours of each point (excluding itself)
    order = np.argsort(distances, axis=1)
    neighbours = order[:, 1:k + 1]
    k_distance = distances[np.arange(n), neighbours[:, -1]]

    # reachability distance: max(k-distance(neighbour), d(point, neighbour))
    reach = np.maximum(k_distance[neighbours], distances[np.arange(n)[:, None], neighbours])
    lrd_denominator = reach.mean(axis=1)
    with np.errstate(divide="ignore"):
        lrd = np.where(lrd_denominator > 0, 1.0 / lrd_denominator, np.inf)

    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = lrd[neighbours] / lrd[:, None]               # (n, k)
        # inf/inf -> duplicates everywhere; define as perfectly inlying
        ratios = np.where(np.isfinite(ratios), ratios, 1.0)
        return ratios.mean(axis=1)
