"""Vectorized batch pair scoring for the expert rule set.

The per-pair path in :mod:`repro.core.rules` (``raw_scores``,
``fused_scores``) recomputes every rule from Python data structures on
each call. The rule-statistics fit uses it, and the tests use it as the
reference for this module; the de-fuzzing sampler (Sec. IV-C), triplet
annotation (Sec. III-D) and rule-weight learning score pairs here
instead. :class:`BatchPairScorer` precomputes per-paper features
**once** for a fixed corpus —

* a stacked subspace-centroid tensor ``(n, K, d)`` so the abstract rule
  becomes one broadcast norm,
* a sparse reference-incidence matrix so reference Jaccard (Eq. 2) is a
  sparse elementwise product per pair batch,
* sparse keyword bag vectors plus one keyword-vocabulary distance matrix
  so the keyword rule (Eq. 3) is two matmuls,
* encoded taxonomy paths (a sparse level-weight matrix and a membership
  indicator) so the classification rule (Eq. 1) is four sparse dots —

and then scores ``(m_pairs, K)`` fused rule matrices in vectorized numpy,
numerically identical (to <= 1e-9) to :meth:`ExpertRuleSet.fused_scores`.

Memory note: the keyword distance matrix is dense ``(V_kw, V_kw)``
float64, where ``V_kw`` is the number of distinct keywords in the corpus.
Keyword vocabularies of academic corpora are small relative to the corpus
(thousands), so this is a few-hundred-MB worst case; pair batches are
internally chunked so transient buffers stay bounded.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.rules import (
    EMPTY_KEYWORD_DISTANCE,
    RULE_NAMES,
    ExpertRuleSet,
    default_level_weight,
)
from repro.data.schema import Paper

#: Pair batches are scored in chunks of this many pairs so the dense
#: intermediate of the keyword rule (``chunk x V_kw``) stays bounded.
SCORE_CHUNK = 2048

#: The keyword rule uses a padded ``(m, max_k, max_k)`` distance gather
#: when every paper has at most this many keywords; longer lists fall
#: back to the csr-matmul formulation to bound memory.
MAX_PADDED_KEYWORDS = 64


def _pair_indices(indices: Sequence[int] | np.ndarray, n: int,
                  side: str) -> np.ndarray:
    array = np.asarray(indices, dtype=int)
    if array.ndim != 1:
        raise ValueError(f"{side} indices must be 1-D, got shape {array.shape}")
    if array.size and (array.min() < 0 or array.max() >= n):
        raise IndexError(f"{side} indices must be in [0, {n}), got "
                         f"range [{array.min()}, {array.max()}]")
    return array


class BatchPairScorer:
    """Score many paper pairs against a fixed corpus in one numpy pass.

    Parameters
    ----------
    rules:
        The rule set whose scores to replicate. Must be fitted before
        calling :meth:`normalized_matrix` / :meth:`fused_scores` (the raw
        path works unfitted, mirroring :meth:`ExpertRuleSet.raw_scores`).
    papers:
        The corpus the scorer is specialised to. Pairs are addressed by
        **position** in this sequence (use :meth:`index_of` to map ids).

    Features are precomputed in ``__init__`` (one ``rules.batch.precompute``
    obs span); every scoring call is then loop-free over the built-in
    rules.
    """

    def __init__(self, rules: ExpertRuleSet, papers: Sequence[Paper]) -> None:
        self.rules = rules
        self.papers = list(papers)
        if not self.papers:
            raise ValueError("BatchPairScorer needs at least one paper")
        self._index: dict[str, int] = {}
        for position, paper in enumerate(self.papers):
            if paper.id in self._index:
                raise ValueError(f"duplicate paper id {paper.id!r}")
            self._index[paper.id] = position
        with obs.trace("rules.batch.precompute", papers=len(self.papers)):
            self._precompute()

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        papers = self.papers
        n = len(papers)

        # Abstract rule: stacked subspace centroids (n, K, d). Reuses the
        # (bounded) per-paper cache of the AbstractSubspaceRule so work
        # shared with the per-pair path is not repeated.
        centroid_rows = [self.rules.abstract_rule.centroids(p) for p in papers]
        dims = {c.shape for c in centroid_rows}
        if len(dims) > 1:
            raise ValueError(f"inconsistent centroid shapes across corpus: {dims}")
        self._centroids = np.stack(centroid_rows)  # (n, K, d)

        # Classification rule (Eq. 1): per paper, a sparse vector of
        # per-tag contributions w_l / 2^l (last occurrence of a repeated
        # tag wins, as in the per-pair dict construction) plus a binary
        # membership indicator. The pair score is then
        # total_p + total_q - value_p . ind_q - value_q . ind_p.
        tag_index: dict[str, int] = {}
        value_rows, value_cols, value_vals = [], [], []
        for row, paper in enumerate(papers):
            levels = {tag: i + 1 for i, tag in enumerate(paper.category_path)}
            for tag, level in levels.items():
                col = tag_index.setdefault(tag, len(tag_index))
                value_rows.append(row)
                value_cols.append(col)
                value_vals.append(default_level_weight(level) / (2.0 ** level))
        n_tags = max(len(tag_index), 1)
        self._cls_value = sparse.csr_matrix(
            (value_vals, (value_rows, value_cols)), shape=(n, n_tags))
        self._cls_ind = self._cls_value.copy()
        self._cls_ind.data = np.ones_like(self._cls_ind.data)
        self._cls_total = np.asarray(self._cls_value.sum(axis=1)).ravel()

        # Reference rule (Eq. 2): binary incidence over the union of all
        # reference ids; |R_p ^ R_q| is a sparse elementwise product.
        ref_index: dict[str, int] = {}
        ref_rows, ref_cols = [], []
        for row, paper in enumerate(papers):
            for ref in set(paper.references):
                col = ref_index.setdefault(ref, len(ref_index))
                ref_rows.append(row)
                ref_cols.append(col)
        n_refs = max(len(ref_index), 1)
        self._refs = sparse.csr_matrix(
            (np.ones(len(ref_rows)), (ref_rows, ref_cols)), shape=(n, n_refs))
        self._ref_sizes = np.asarray(self._refs.sum(axis=1)).ravel()

        # Keyword rule (Eq. 3): bag-of-keyword count vectors over the
        # keyword vocabulary plus the vocabulary's pairwise Euclidean
        # distance matrix, computed with the exact per-pair formula so
        # entries match keyword_difference bit-for-bit.
        kw_index: dict[str, int] = {}
        kw_rows, kw_cols = [], []
        for row, paper in enumerate(papers):
            for word in paper.keywords:  # duplicates keep their weight
                col = kw_index.setdefault(word, len(kw_index))
                kw_rows.append(row)
                kw_cols.append(col)
        n_kw = max(len(kw_index), 1)
        self._kw_counts = sparse.csr_matrix(
            (np.ones(len(kw_rows)), (kw_rows, kw_cols)), shape=(n, n_kw))
        self._kw_lens = np.asarray([len(p.keywords) for p in papers], dtype=float)
        # Padded keyword-id table for the gather-based scorer: row i holds
        # the vocabulary indices of paper i's keyword list (duplicates
        # kept), padded with 0s masked out by _kw_mask. Only built when
        # the longest list is small — the padded gather is O(m * max_k^2)
        # and would blow up on degenerate thousand-keyword papers, which
        # instead take the csr-matmul path.
        max_k = int(self._kw_lens.max()) if n else 0
        if kw_index and 0 < max_k <= MAX_PADDED_KEYWORDS:
            self._kw_ids = np.zeros((n, max_k), dtype=np.intp)
            self._kw_mask = np.zeros((n, max_k))
            for row, paper in enumerate(papers):
                ids = [kw_index[w] for w in paper.keywords]
                self._kw_ids[row, :len(ids)] = ids
                self._kw_mask[row, :len(ids)] = 1.0
        else:
            self._kw_ids = None
            self._kw_mask = None
        if kw_index:
            vocab = [None] * len(kw_index)
            for word, col in kw_index.items():
                vocab[col] = word
            vectors = self.rules.word_vectors.vectors(vocab)  # (V, dim)
            # Gram-expansion pairwise distances (one BLAS matmul instead
            # of a (V, V, dim) broadcast). The diagonal is forced to an
            # exact 0 — identical words must contribute a zero distance,
            # and sqrt would amplify the expansion's ~1e-16 cancellation
            # noise there to ~1e-8.
            squared = (vectors ** 2).sum(axis=1)
            d2 = squared[:, None] + squared[None, :] - 2.0 * (vectors @ vectors.T)
            np.fill_diagonal(d2, 0.0)
            self._kw_dist = np.sqrt(np.maximum(d2, 0.0))  # (V, V)
        else:
            self._kw_dist = np.zeros((1, 1))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_papers(self) -> int:
        """Corpus size n."""
        return len(self.papers)

    def index_of(self, paper_id: str) -> int:
        """Position of *paper_id* in the scorer's corpus."""
        try:
            return self._index[paper_id]
        except KeyError:
            raise KeyError(f"paper {paper_id!r} is not in this scorer's corpus") \
                from None

    # ------------------------------------------------------------------
    # Raw rule components
    # ------------------------------------------------------------------
    def _classification(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        common_pq = np.asarray(
            self._cls_value[left].multiply(self._cls_ind[right]).sum(axis=1)
        ).ravel()
        common_qp = np.asarray(
            self._cls_value[right].multiply(self._cls_ind[left]).sum(axis=1)
        ).ravel()
        return (self._cls_total[left] + self._cls_total[right]
                - common_pq - common_qp)

    def _references(self, left: np.ndarray, right: np.ndarray,
                    smoothing: float = 1.0) -> np.ndarray:
        intersection = np.asarray(
            self._refs[left].multiply(self._refs[right]).sum(axis=1)
        ).ravel()
        union = self._ref_sizes[left] + self._ref_sizes[right] - intersection
        return (union + smoothing) / (intersection + smoothing)

    def _keywords(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # Sum over keyword pairs of D[a, b], then normalise by the pair
        # count — the mean of Eq. 3 without materialising per-pair grids.
        if self._kw_ids is not None:
            sub = self._kw_dist[self._kw_ids[left][:, :, None],
                                self._kw_ids[right][:, None, :]]
            totals = np.einsum("mab,ma,mb->m", sub,
                               self._kw_mask[left], self._kw_mask[right])
        else:
            counts_l = self._kw_counts[left]
            counts_r = self._kw_counts[right]
            weighted = counts_l @ self._kw_dist  # (m, V) dense
            totals = np.asarray(counts_r.multiply(weighted).sum(axis=1)).ravel()
        denom = self._kw_lens[left] * self._kw_lens[right]
        scores = np.full(left.shape[0], EMPTY_KEYWORD_DISTANCE)
        has_kw = denom > 0
        scores[has_kw] = totals[has_kw] / denom[has_kw]
        return scores

    def _abstract(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        diff = self._centroids[left] - self._centroids[right]  # (m, K, d)
        return np.sqrt((diff ** 2).sum(axis=2))  # (m, K)

    # ------------------------------------------------------------------
    # Public scoring API
    # ------------------------------------------------------------------
    def raw_matrix(self, left: Sequence[int] | np.ndarray,
                   right: Sequence[int] | np.ndarray) -> np.ndarray:
        """Unnormalised rule matrices for aligned index arrays.

        Returns ``(m, K, R)`` where ``R == len(RULE_NAMES)``, matching
        :meth:`RuleScores.vector` for every pair and subspace.
        """
        n = len(self.papers)
        left = _pair_indices(left, n, "left")
        right = _pair_indices(right, n, "right")
        if left.shape != right.shape:
            raise ValueError(f"{left.shape[0]} left indices but "
                             f"{right.shape[0]} right indices")
        m = left.shape[0]
        k = self.rules.num_subspaces
        raw = np.empty((m, k, len(RULE_NAMES)))
        for start in range(0, m, SCORE_CHUNK):
            sl = slice(start, min(start + SCORE_CHUNK, m))
            lc, rc = left[sl], right[sl]
            raw[sl, :, 0] = self._classification(lc, rc)[:, None]
            raw[sl, :, 1] = self._references(lc, rc)[:, None]
            raw[sl, :, 2] = self._keywords(lc, rc)[:, None]
            raw[sl, :, 3] = self._abstract(lc, rc)
        return raw

    def normalized_matrix(self, left: Sequence[int] | np.ndarray,
                          right: Sequence[int] | np.ndarray) -> np.ndarray:
        """Z-scored rule matrices ``(m, K, R)`` (requires a fitted rule set)."""
        mean, std = self.rules._require_fitted()
        return (self.raw_matrix(left, right) - mean) / std

    def fused_scores(self, left: Sequence[int] | np.ndarray,
                     right: Sequence[int] | np.ndarray) -> np.ndarray:
        """Fused per-subspace scores ``(m, K)`` — the batched Sec. III-D
        ``f^k(p, q)``, numerically identical (<= 1e-9) to calling
        :meth:`ExpertRuleSet.fused_scores` per pair."""
        scores = self.normalized_matrix(left, right) @ self.rules.weights
        obs.count("rules.batch.pairs", scores.shape[0])
        return scores
