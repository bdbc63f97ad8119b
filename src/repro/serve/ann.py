"""Top-K retrieval over split row stores, and a pure-numpy IVF index.

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

Rows are scored as :class:`SplitRows` or plain ndarrays. A model row
concatenates four 32-wide learned blocks with a gated lexical content
block thousands of columns wide whose rows hold a few dozen non-zeros;
a :class:`SplitRows` keeps the learned blocks as a dense *head* and the
content block as a CSR :class:`~repro.core.nprec.model.ContentRows`
store, so scoring reads the non-zeros instead of streaming the zeros.
A plain ndarray is the head-only case (a model without a content block,
or the benchmark's synthetic pools).

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
per block touch the Python heap. The exact and candidate rankers
prepare each query once (:func:`_block_scores`): its interest rows are
split once and its content term comes from one CSR product over the
rows it ranks, so the block loop only multiplies the dense heads.

This module depends on no model or obs code beyond the
:class:`~repro.core.nprec.model.ContentRows` type: it ranks raw row
stores, so the benchmark can sweep 50k-row synthetic pools without
fitting a pipeline. :class:`~repro.serve.index.ServingIndex` owns the
wiring (strategy selection, obs counters, artifact persistence via
:func:`repro.serve.artifacts.save_ann_index`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

from repro.core.nprec.model import ContentRows


class SplitRows:
    """Row vectors held as a dense head and a CSR content block.

    Row ``i`` is ``head[i, :at]``, then ``content[i]``, then
    ``head[i, at:]``. Indexing with a unit-step slice or an integer array
    gathers rows into a new :class:`SplitRows`; ``shape`` is that of the
    full rows and ``nbytes`` counts the bytes the two parts hold.
    """

    __slots__ = ("head", "content", "at")

    def __init__(self, head: np.ndarray, content: ContentRows,
                 at: int) -> None:
        if head.shape[0] != content.shape[0]:
            raise ValueError(f"{head.shape[0]} head rows but "
                             f"{content.shape[0]} content rows")
        self.head = head
        self.content = content
        self.at = int(at)

    @classmethod
    def from_dense(cls, rows: np.ndarray, columns: slice) -> "SplitRows":
        """Split the full *rows*; *columns* holds their content block."""
        return cls(np.delete(rows, columns, axis=1),
                   ContentRows.from_rows(rows[:, columns],
                                         columns.stop - columns.start),
                   columns.start)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.head.shape[0], self.head.shape[1] + self.content.width)

    @property
    def nbytes(self) -> int:
        return self.head.nbytes + self.content.nbytes

    def __len__(self) -> int:
        return self.head.shape[0]

    def __getitem__(self, index: slice | np.ndarray) -> "SplitRows":
        return SplitRows(self.head[index], self.content.take(index), self.at)

    def dense(self) -> np.ndarray:
        """The full rows as one dense array."""
        content = self.content[np.arange(len(self))]
        return np.concatenate([self.head[:, :self.at], content,
                               self.head[:, self.at:]], axis=1)


#: What the rankers score: split rows, or plain (full or head-only) rows.
Rows = Union[SplitRows, np.ndarray]


def _dense(rows: Rows) -> np.ndarray:
    """*rows* as a dense float64 array."""
    if isinstance(rows, SplitRows):
        return rows.dense()
    return np.asarray(rows, dtype=np.float64)


class _Parts(NamedTuple):
    """Plain full rows split once for one :class:`SplitRows` layout:
    what :func:`_parts` would cut from them on every call."""

    head: np.ndarray
    content_t: np.ndarray


def _parts(rows: "Rows | _Parts",
           layout: SplitRows) -> tuple[np.ndarray, np.ndarray]:
    """(head, transposed dense content) of *rows* in *layout*'s columns."""
    if isinstance(rows, _Parts):
        return rows
    if isinstance(rows, SplitRows):
        content = rows.content
        content_t = np.zeros((content.width, len(rows)))
        content_t[content.indices, np.repeat(np.arange(len(rows)),
                                             np.diff(content.indptr))] = \
            content.data
        return rows.head, content_t
    columns = slice(layout.at, layout.at + layout.content.width)
    return np.delete(rows, columns, axis=1), rows[:, columns].T


def _lexical(interest: "Rows | _Parts", rows: SplitRows,
             positions: "np.ndarray | None" = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """(head, content term) of *interest* against split *rows*.

    *interest* is split in *rows*' columns (:func:`_parts`) and its
    content block scored against the non-zeros of *rows* (or of the rows
    at *positions*) with one CSR product: the ``(n_rows, n_interest)``
    content part of ``interest @ rows.T``, transposed. A CSR product
    computes each row on its own, so a row's term does not depend on
    which rows share the product. The whole store's CSR matrix is built
    once (:meth:`ContentRows.csr`); a gathered one, once per query.
    """
    head, content_t = _parts(interest, rows)
    content = (rows.content if positions is None
               else rows.content.take(positions))
    return head, content.csr() @ content_t


def _pairwise(left: Rows, right: Rows) -> np.ndarray:
    """``left @ right.T`` with a content block scored from its CSR side.

    Opposite a :class:`SplitRows`, a plain ndarray is a block of full
    rows; two plain ndarrays multiply as they are.
    """
    if isinstance(right, SplitRows):
        head, lexical = _lexical(left, right)
        pairwise = head @ right.head.T
        pairwise += lexical.T
        return pairwise
    if isinstance(left, SplitRows):
        return _pairwise(right, left).T
    return left @ right.T


def _pool(pairwise: np.ndarray, mix: float) -> np.ndarray:
    """``mix * max + (1 - mix) * mean`` of *pairwise* over its rows."""
    return mix * pairwise.max(axis=0) + (1.0 - mix) * pairwise.mean(axis=0)


def pooled_scores(interest: Rows, rows: Rows, mix: float) -> np.ndarray:
    """Max/mean-pooled correlation of *rows* against the interest matrix.

    Matches :meth:`NPRecRecommender._rank`'s correlation term:
    ``mix * max_u(u · row) + (1 - mix) * mean_u(u · row)`` over the
    user's interest vectors *u*. One score per row of *rows*. Either
    side may be a :class:`SplitRows`; the content block is then scored
    sparsely (see :func:`_pairwise`).
    """
    return _pool(_pairwise(interest, rows), mix)


def _block_scores(interest: Rows, matrix: Rows, mix: float,
                  block_size: int, positions: "np.ndarray | None" = None
                  ) -> Iterator[np.ndarray]:
    """One query's pooled scores, ``block_size`` rows at a time.

    The blocks are *matrix*'s contiguous row ranges, or chunks of
    *positions*. Opposite split rows the query is prepared once
    (:func:`_lexical`), so a block only multiplies the dense heads and
    adds its slice of the content term. The head product keeps the
    block's shape, so each block's scores equal :func:`pooled_scores`
    on that block bit for bit.
    """
    n = matrix.shape[0] if positions is None else positions.shape[0]
    split = isinstance(matrix, SplitRows)
    if split:
        head, lexical = _lexical(interest, matrix, positions)
    for start in range(0, n, block_size):
        stop = start + block_size
        block = slice(start, stop) if positions is None \
            else positions[start:stop]
        if not split:
            yield pooled_scores(interest, matrix[block], mix)
            continue
        pairwise = head @ matrix.head[block].T
        pairwise += lexical[start:stop].T
        yield _pool(pairwise, mix)


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


def _blockwise_top_k(interests: "list[Rows]", matrix: Rows,
                     ks: "list[int]", mix: float, block_size: int
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions, scores) of each query's top-k rows, best first.

    The one exact ranker. Each query is scored on its own, block by
    block (:func:`_block_scores`), so its result does not depend on its
    batch — bit for bit, which the batched serving path's equivalence
    guarantee rests on. Memory per query is one block's pairwise
    scores, the ``k``-entry heap and, opposite split rows, the
    ``n_rows * n_interest`` content term (over a 773-row pool, 7 × 773
    doubles for a 7-row profile and 0.9 MB for a 148-row one). Ties
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


def exact_top_k(interest: Rows, matrix: Rows, k: int, *,
                mix: float, block_size: int = 512) -> np.ndarray:
    """Positions of the top-*k* rows of *matrix*, best first (the oracle)."""
    return _blockwise_top_k([interest], matrix, [k], mix, block_size)[0][0]


def batch_exact_top_k(interests: "list[Rows]", matrix: Rows,
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


def rank_candidates(interest: Rows, matrix: Rows,
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
        #: ``((at, width), parts)``: the centroids split for the last
        #: interest layout probed. Reset wherever the centroids change.
        self._split: "tuple[tuple[int, int], _Parts] | None" = None
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
    def fit(self, matrix: Rows) -> "IVFIndex":
        """(Re)cluster *matrix* from scratch; deterministic for a seed.

        Centroids are dense full-width rows (the persisted format), each
        the mean of its members' dense rows.
        """
        if not isinstance(matrix, SplitRows):
            matrix = np.asarray(matrix, dtype=np.float64)
        if len(matrix.shape) != 2 or matrix.shape[0] == 0:
            raise ValueError("fit needs a non-empty 2-D matrix, got shape "
                             f"{matrix.shape}")
        n = matrix.shape[0]
        n_lists = min(self.n_lists, n)
        rng = np.random.default_rng(self.seed)
        # Distinct seed rows, in pool order so the initialisation (and
        # therefore everything downstream) is independent of the order
        # rng.choice happens to emit.
        init = np.sort(rng.choice(n, size=n_lists, replace=False))
        centroids = _dense(matrix[init])
        assign = self._assign_rows(matrix, centroids)
        for _ in range(self.max_iter):
            for j in range(n_lists):
                centroids[j] = _dense(
                    matrix[np.flatnonzero(assign == j)]).mean(axis=0)
            new_assign = self._assign_rows(matrix, centroids)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        self.centroids = centroids
        self._split = None
        self._assignments = [int(j) for j in assign]
        self._lists = [[] for _ in range(n_lists)]
        for position, j in enumerate(assign):
            self._lists[j].append(position)
        return self

    @staticmethod
    def _assign_rows(matrix: Rows,
                     centroids: np.ndarray) -> np.ndarray:
        """Nearest-centroid (squared euclidean) assignment, no empties.

        Ties pick the lowest centroid index (``argmin``). An emptied
        cluster steals the row farthest from its assigned centroid
        (among clusters that can spare one), lowest-index empties
        first — deterministic, so refits reproduce exactly.
        """
        # ||x - c||^2 ranks like ||c||^2 - 2 x·c ; the ||x||^2 term is
        # constant per row and dropped.
        dists = (centroids * centroids).sum(axis=1) - 2.0 * _pairwise(
            matrix, centroids)
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
    def add(self, row: Rows) -> bool:
        """Assign one appended row to its nearest centroid.

        The row is assumed to be position ``num_rows`` of the caller's
        matrix (append-only growth, matching the serving pool). Returns
        True when the imbalance trigger fired — the fullest list now
        exceeds ``recluster_factor`` times the mean occupancy — meaning
        the caller should :meth:`fit` again with the full matrix.
        """
        if not self.fitted:
            raise ValueError("add() before fit(): cluster the pool first")
        row = _dense(row).reshape(-1)
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
    def probe(self, interest: Rows, mix: float,
              nprobe: int) -> np.ndarray:
        """Ids of the *nprobe* lists whose centroids score best.

        Centroids are ranked by the same pooled interest score used on
        real rows, descending, ties toward the lower list id. *nprobe*
        is clamped to ``[1, num_lists]``.
        """
        if not self.fitted:
            raise ValueError("probe() before fit(): cluster the pool first")
        nprobe = max(1, min(int(nprobe), self.num_lists))
        scores = pooled_scores(interest, self._centroid_rows(interest), mix)
        order = np.lexsort((np.arange(scores.shape[0]), -scores))
        return order[:nprobe]

    def _centroid_rows(self, interest: Rows) -> "Rows | _Parts":
        """The centroids as a probe with *interest* scores them.

        Opposite split interest rows, the centroids' dense head and
        transposed content block are cut once per fit and layout, not
        once per probe; the arrays match what :func:`_parts` cuts, so
        the probe's scores are unchanged bit for bit.
        """
        assert self.centroids is not None
        if not isinstance(interest, SplitRows):
            return self.centroids
        key = (interest.at, interest.content.width)
        if self._split is None or self._split[0] != key:
            head, content_t = _parts(self.centroids, interest)
            self._split = (key, _Parts(head,
                                       np.ascontiguousarray(content_t)))
        return self._split[1]

    def gather(self, interest: Rows, mix: float,
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

    def search(self, interest: Rows, matrix: Rows, k: int, *,
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
