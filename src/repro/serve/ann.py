"""Top-K retrieval over dense row blocks, and a pure-numpy IVF index.

Serving's exact path scores every pool row on every query — O(n·d)
per request, which caps pool size long before the paper's
1.3M–3.06M-paper corpora. :class:`IVFIndex` is the dependency-free
equivalent of a FAISS ``IndexIVFFlat``: a deterministic seeded k-means
coarse quantizer partitions the pool into ``n_lists`` inverted lists, a
query probes only the ``nprobe`` lists whose centroids score best under
the *same* max/mean-pooled interest scoring the exact ranker uses, and
the probed candidates are exact-scored with the exact path's
tie-breaking. Probing all lists (``nprobe == n_lists``) reproduces the
exact ranking order-for-order — the exact path stays the correctness
oracle, and ``benchmarks/test_ann_bench.py`` measures recall@K against
it so speedups cannot silently trade away quality.

Rows are dense float64 arrays: a model's interest and influence rows
are its four 32-wide learned blocks and its 32-wide lexical sketch
block (160 columns at the default ``dim``), and the benchmark sweeps
synthetic pools of any width.

Serving ranks through two functions here:
:func:`batch_exact_top_k` for the exact strategy and
:meth:`IVFIndex.gather` + :func:`rank_candidates` for IVF (gathered
under the serving lock, scored outside it). Both score a block as
:func:`pooled_scores` does — the ``mix * max + (1 - mix) * mean``
correlation pooling over the user's interest vectors, also used for
coarse centroid ranking — so every path agrees bit for bit on common
input. :func:`exact_top_k` (one query) and :meth:`IVFIndex.search`
(gather and score in one call) are the reference rankers that tests and
the recall benchmark compare serving against. Both exact rankers run
one blockwise loop (:func:`_blockwise_top_k`): a bounded heap per query
with an ``argpartition`` prescreen, so only the ≤k plausible candidates
per block touch the Python heap.

This module depends on no model or obs code: it ranks raw row arrays,
so the benchmark can sweep 50k-row synthetic pools without fitting a
pipeline. :class:`~repro.serve.index.ServingIndex` owns the wiring
(strategy selection, obs counters, artifact persistence via
:func:`repro.serve.artifacts.save_ann_index`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np


def pooled_scores(interest: np.ndarray, rows: np.ndarray,
                  mix: float) -> np.ndarray:
    """Max/mean-pooled correlation of *rows* against the interest matrix.

    Matches :meth:`NPRecRecommender._rank`'s correlation term:
    ``mix * max_u(u · row) + (1 - mix) * mean_u(u · row)`` over the
    user's interest vectors *u*. One score per row of *rows*.
    """
    pairwise = interest @ rows.T
    return mix * pairwise.max(axis=0) + (1.0 - mix) * pairwise.mean(axis=0)


def _block_scores(interest: np.ndarray, matrix: np.ndarray, mix: float,
                  block_size: int, positions: "np.ndarray | None" = None
                  ) -> Iterator[np.ndarray]:
    """One query's pooled scores, ``block_size`` rows at a time.

    The blocks are *matrix*'s contiguous row ranges, or the rows at
    chunks of *positions*; a chunk of every position in order gathers
    the values the slice holds at the same shape, so both give the same
    score bits.
    """
    n = matrix.shape[0] if positions is None else positions.shape[0]
    for start in range(0, n, block_size):
        stop = start + block_size
        block = slice(start, stop) if positions is None \
            else positions[start:stop]
        yield pooled_scores(interest, matrix[block], mix)


def _feed_heap(heap: list[tuple[float, int]], scores: np.ndarray,
               start: int, k: int) -> None:
    """Push one block's plausible candidates into a bounded top-k heap.

    The :func:`np.argpartition` prescreen keeps only scores that can
    still make the top-k (score ≥ the block's k-th best — every other
    row is beaten by ≥k rows of its own block), so the per-element
    Python loop touches ≤k entries per block.
    """
    if scores.shape[0] > k:
        part = np.argpartition(-scores, k - 1)
        threshold = scores[part[k - 1]]
        keep = np.flatnonzero(scores >= threshold)
    else:
        keep = np.arange(scores.shape[0])
    for offset in keep:
        entry = (float(scores[offset]), -(start + int(offset)))
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)


def _drain_heap(heap: list[tuple[float, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(positions, scores) of a bounded heap, best first."""
    ordered = sorted(heap, reverse=True)
    positions = np.asarray([-position for _, position in ordered],
                           dtype=np.int64)
    scores = np.asarray([score for score, _ in ordered], dtype=np.float64)
    return positions, scores


def _blockwise_top_k(interests: "list[np.ndarray]", matrix: np.ndarray,
                     ks: "list[int]", mix: float, block_size: int
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions, scores) of each query's top-k rows, best first.

    The one exact ranker. Each query is scored on its own, block by
    block (:func:`_block_scores`), so its result does not depend on its
    batch — bit for bit, which the batched serving path's equivalence
    guarantee rests on. Memory per query is one block's pairwise
    scores and the ``k``-entry heap. Ties
    between equal scores resolve toward the lower row position,
    matching the stable mergesort ordering of the offline ranker.
    """
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    ranked = []
    for interest, k in zip(interests, ks):
        heap: list[tuple[float, int]] = []
        for start, scores in zip(
                range(0, matrix.shape[0], block_size),
                _block_scores(interest, matrix, mix, block_size)):
            _feed_heap(heap, scores, start, k)
        ranked.append(_drain_heap(heap))
    return ranked


def exact_top_k(interest: np.ndarray, matrix: np.ndarray, k: int, *,
                mix: float, block_size: int = 512) -> np.ndarray:
    """Positions of the top-*k* rows of *matrix*, best first (the oracle)."""
    return _blockwise_top_k([interest], matrix, [k], mix, block_size)[0][0]


def batch_exact_top_k(interests: "list[np.ndarray]", matrix: np.ndarray,
                      ks: "list[int]", *, mix: float, block_size: int = 512
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions, scores) for several queries in one pass over *matrix*.

    Every query's result is bit-identical to ranking it as a batch of
    one; the batching win is the amortised block slicing and Python
    dispatch, not a changed reduction order.
    """
    if len(interests) != len(ks):
        raise ValueError(f"{len(interests)} interest matrices but "
                         f"{len(ks)} k values")
    return _blockwise_top_k(interests, matrix, ks, mix, block_size)


def rank_candidates(interest: np.ndarray, matrix: np.ndarray,
                    candidates: np.ndarray, k: int, *, mix: float,
                    block_size: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """(positions, scores) of the top-*k* rows among *candidates*.

    The scoring half of :meth:`IVFIndex.search`, usable on a candidate
    set gathered earlier (the serving path gathers under the serving
    lock and scores outside it). *candidates* must be sorted
    ascending. Exact-path score arithmetic and tie-breaking: descending
    score, ties toward the lower pool position. Candidates are scored in
    ``block_size`` chunks that mirror the exact path's blocks: when they
    are every row in order, each chunk gathers the values the exact path
    slices at the same shape, so the two paths give the same score bits.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if candidates.shape[0] == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    scores = np.concatenate(list(_block_scores(interest, matrix, mix,
                                               block_size, candidates)))
    order = np.lexsort((candidates, -scores))[:k]
    return candidates[order], scores[order]


@dataclass(frozen=True)
class ProbeStats:
    """Work accounting for one approximate query."""

    lists_probed: int
    candidates_scanned: int
    pool_size: int

    @property
    def scan_fraction(self) -> float:
        """Fraction of the pool exact-scored (1.0 == brute force)."""
        if self.pool_size == 0:
            return 0.0
        return self.candidates_scanned / self.pool_size


class IVFIndex:
    """Inverted-file index over row vectors, pure numpy, deterministic.

    Parameters
    ----------
    n_lists:
        Number of k-means coarse clusters (capped at the number of rows
        at fit time).
    seed:
        Seed for the k-means initialisation; the whole fit is a pure
        function of ``(matrix, n_lists, seed, max_iter)``.
    max_iter:
        Lloyd-iteration cap (iteration also stops on converged
        assignments).
    recluster_factor:
        Imbalance trigger for incremental growth: :meth:`add` reports
        a recluster is due once the fullest list exceeds
        ``recluster_factor`` times the mean list size. The caller (the
        serving layer) decides when to act on it — refitting needs the
        full matrix, which this index deliberately does not retain.
    """

    def __init__(self, n_lists: int, seed: int = 0, max_iter: int = 15,
                 recluster_factor: float = 4.0) -> None:
        if n_lists < 1:
            raise ValueError(f"n_lists must be >= 1, got {n_lists}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if recluster_factor <= 1.0:
            raise ValueError("recluster_factor must exceed 1.0, got "
                             f"{recluster_factor}")
        self.n_lists = n_lists
        self.seed = seed
        self.max_iter = max_iter
        self.recluster_factor = recluster_factor
        self.centroids: np.ndarray | None = None
        self._assignments: list[int] = []
        self._lists: list[list[int]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has built centroids."""
        return self.centroids is not None

    @property
    def num_lists(self) -> int:
        """Effective list count (≤ ``n_lists`` for tiny pools)."""
        return 0 if self.centroids is None else self.centroids.shape[0]

    @property
    def num_rows(self) -> int:
        """Rows currently assigned to lists."""
        return len(self._assignments)

    @property
    def assignments(self) -> np.ndarray:
        """Row -> list assignment vector (a copy)."""
        return np.asarray(self._assignments, dtype=np.int64)

    # ------------------------------------------------------------------
    # Clustering
    # ------------------------------------------------------------------
    def fit(self, matrix: np.ndarray) -> "IVFIndex":
        """(Re)cluster *matrix* from scratch; deterministic for a seed.

        Each centroid is the mean of its members' rows.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("fit needs a non-empty 2-D matrix, got shape "
                             f"{matrix.shape}")
        n = matrix.shape[0]
        n_lists = min(self.n_lists, n)
        rng = np.random.default_rng(self.seed)
        # Distinct seed rows, in pool order so the initialisation (and
        # therefore everything downstream) is independent of the order
        # rng.choice happens to emit.
        init = np.sort(rng.choice(n, size=n_lists, replace=False))
        centroids = matrix[init]
        assign = self._assign_rows(matrix, centroids)
        for _ in range(self.max_iter):
            for j in range(n_lists):
                centroids[j] = matrix[np.flatnonzero(assign == j)].mean(axis=0)
            new_assign = self._assign_rows(matrix, centroids)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        self.centroids = centroids
        self._assignments = [int(j) for j in assign]
        self._lists = [[] for _ in range(n_lists)]
        for position, j in enumerate(assign):
            self._lists[j].append(position)
        return self

    @staticmethod
    def _assign_rows(matrix: np.ndarray,
                     centroids: np.ndarray) -> np.ndarray:
        """Nearest-centroid (squared euclidean) assignment, no empties.

        Ties pick the lowest centroid index (``argmin``). An emptied
        cluster steals the row farthest from its assigned centroid
        (among clusters that can spare one), lowest-index empties
        first — deterministic, so refits reproduce exactly.
        """
        # ||x - c||^2 ranks like ||c||^2 - 2 x·c ; the ||x||^2 term is
        # constant per row and dropped.
        dists = (centroids * centroids).sum(axis=1) - 2.0 * (
            matrix @ centroids.T)
        assign = np.argmin(dists, axis=1)
        counts = np.bincount(assign, minlength=centroids.shape[0])
        for empty in np.flatnonzero(counts == 0):
            row_dist = dists[np.arange(matrix.shape[0]), assign]
            donors = counts[assign] > 1
            candidates = np.flatnonzero(donors)
            stolen = candidates[np.argmax(row_dist[candidates])]
            counts[assign[stolen]] -= 1
            assign[stolen] = empty
            counts[empty] += 1
        return assign

    # ------------------------------------------------------------------
    # Incremental growth
    # ------------------------------------------------------------------
    def add(self, row: np.ndarray) -> bool:
        """Assign one appended row to its nearest centroid.

        The row is assumed to be position ``num_rows`` of the caller's
        matrix (append-only growth, matching the serving pool). Returns
        True when the imbalance trigger fired — the fullest list now
        exceeds ``recluster_factor`` times the mean occupancy — meaning
        the caller should :meth:`fit` again with the full matrix.
        """
        if not self.fitted:
            raise ValueError("add() before fit(): cluster the pool first")
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        assert self.centroids is not None
        dists = ((self.centroids - row) ** 2).sum(axis=1)
        nearest = int(np.argmin(dists))
        self._lists[nearest].append(len(self._assignments))
        self._assignments.append(nearest)
        mean_size = len(self._assignments) / self.num_lists
        return len(self._lists[nearest]) > self.recluster_factor * \
            max(1.0, mean_size)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def probe(self, interest: np.ndarray, mix: float,
              nprobe: int) -> np.ndarray:
        """Ids of the *nprobe* lists whose centroids score best.

        Centroids are ranked by the same pooled interest score used on
        real rows, descending, ties toward the lower list id. *nprobe*
        is clamped to ``[1, num_lists]``.
        """
        if not self.fitted:
            raise ValueError("probe() before fit(): cluster the pool first")
        nprobe = max(1, min(int(nprobe), self.num_lists))
        scores = pooled_scores(interest, self.centroids, mix)
        order = np.lexsort((np.arange(scores.shape[0]), -scores))
        return order[:nprobe]

    def gather(self, interest: np.ndarray, mix: float,
               nprobe: int) -> tuple[np.ndarray, ProbeStats]:
        """Candidate positions (sorted ascending) of the probed lists.

        The probe-and-gather half of :meth:`search`: ranks centroids,
        collects the member positions of the best ``nprobe`` lists into
        one array, and accounts the work. The returned array is a copy,
        so a caller may score it after the inverted lists have grown
        (the serving path gathers under the serving lock and scores
        outside it).
        """
        probed = self.probe(interest, mix, nprobe)
        members = [self._lists[j] for j in probed]
        total = sum(len(m) for m in members)
        stats = ProbeStats(lists_probed=int(probed.shape[0]),
                           candidates_scanned=total,
                           pool_size=len(self._assignments))
        if total == 0:
            return np.empty(0, dtype=np.int64), stats
        candidates = np.sort(np.concatenate(
            [np.asarray(m, dtype=np.int64) for m in members if m]))
        return candidates, stats

    def search(self, interest: np.ndarray, matrix: np.ndarray, k: int, *,
               mix: float, nprobe: int = 8,
               block_size: int = 512) -> tuple[np.ndarray, ProbeStats]:
        """Approximate top-*k* positions, best first, plus work stats.

        Probes ``nprobe`` lists, gathers their members (ascending
        position), and exact-scores only those candidates with the
        shared pooled scoring — identical score arithmetic and
        tie-breaking to
        :func:`exact_top_k`, so ``nprobe == num_lists`` returns the
        exact ranking. Fewer than *k* candidates returns them all.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        candidates, stats = self.gather(interest, mix, nprobe)
        if candidates.shape[0] == 0:
            return candidates, stats
        # Descending score, ties toward the lower pool position — the
        # exact path's (score, -position) heap order.
        positions, _ = rank_candidates(interest, matrix, candidates, k,
                                       mix=mix, block_size=block_size)
        return positions, stats

    # ------------------------------------------------------------------
    # Persistence payload
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Dense payload for npz persistence (with :meth:`meta`)."""
        if not self.fitted:
            raise ValueError("cannot persist an unfitted IVFIndex")
        return {"centroids": self.centroids,
                "assignments": self.assignments}

    def meta(self) -> dict:
        """JSON-ready construction parameters (with :meth:`to_arrays`)."""
        return {"kind": "ivf", "n_lists": self.n_lists, "seed": self.seed,
                "max_iter": self.max_iter,
                "recluster_factor": self.recluster_factor,
                "n_rows": self.num_rows,
                "dim": 0 if self.centroids is None
                else int(self.centroids.shape[1])}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray],
                    meta: dict) -> "IVFIndex":
        """Rebuild an index persisted via :meth:`to_arrays`/:meth:`meta`."""
        index = cls(int(meta["n_lists"]), seed=int(meta["seed"]),
                    max_iter=int(meta["max_iter"]),
                    recluster_factor=float(meta["recluster_factor"]))
        centroids = np.asarray(arrays["centroids"], dtype=np.float64)
        assignments = np.asarray(arrays["assignments"], dtype=np.int64)
        if assignments.size and (assignments.min() < 0
                                 or assignments.max() >= centroids.shape[0]):
            raise ValueError("assignments reference nonexistent lists")
        index.centroids = centroids
        index._assignments = [int(j) for j in assignments]
        index._lists = [[] for _ in range(centroids.shape[0])]
        for position, j in enumerate(index._assignments):
            index._lists[j].append(position)
        return index
