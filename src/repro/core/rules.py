"""Expert rules annotating paper differences (Sec. III-A, Eqs. 1-3).

Four rule families quantify how different two papers are:

* :func:`classification_difference` — Eq. 1: level-weighted symmetric
  difference of the papers' classification-tree root paths.
* :func:`reference_difference` — Eq. 2: reciprocal Jaccard of reference
  sets.
* :func:`keyword_difference` — Eq. 3: expected pairwise distance between
  keyword embedding vectors.
* :class:`AbstractSubspaceRule` — the abstract-based rule: distance of
  subspace sentence centroids produced by the frozen sentence encoder and
  the sentence-function labels.

:class:`ExpertRuleSet` z-normalises the raw rule scores over a sample of
corpus pairs and fuses them per subspace — the ``f^k(p, q) = sum_i a_i
f_i(p, q)`` of Sec. III-D (with fusion weights that can later be refined
by twin-network training).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.schema import Paper
from repro.errors import NotFittedError
from repro.text.sentence_encoder import SentenceEncoder
from repro.text.sequence_labeler import SUBSPACE_NAMES
from repro.text.word_vectors import HashWordVectors
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rules_batch import BatchPairScorer

#: Fallback keyword distance when a paper declares no keywords: the
#: expected distance between two independent random unit vectors.
EMPTY_KEYWORD_DISTANCE = float(np.sqrt(2.0))


def default_level_weight(level: int) -> float:
    """Default w_l of Eq. 1: decreasing in depth (root-adjacent splits
    matter most)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return 1.0 / level


def classification_difference(path_p: Sequence[str], path_q: Sequence[str],
                              level_weight=default_level_weight) -> float:
    """Eq. 1: sum of ``w_l / 2^l`` over tags in exactly one root path.

    Paths are sequences of tags ordered root -> leaf (excluding the root),
    as produced by :meth:`ClassificationTree.path_to_root`.
    """
    levels_p = {tag: i + 1 for i, tag in enumerate(path_p)}
    levels_q = {tag: i + 1 for i, tag in enumerate(path_q)}
    score = 0.0
    for tag in set(levels_p) ^ set(levels_q):
        level = levels_p.get(tag, levels_q.get(tag))
        score += level_weight(level) / (2.0**level)
    return score


def reference_difference(refs_p: Sequence[str], refs_q: Sequence[str],
                         smoothing: float = 1.0) -> float:
    """Eq. 2: reciprocal Jaccard coefficient ``|R_p U R_q| / |R_p ^ R_q|``.

    With ``smoothing > 0`` (default 1, i.e. add-one), disjoint reference
    sets give a large finite score instead of infinity — required for the
    score to be usable inside the probabilistic annotation of Eq. 4.
    Set ``smoothing=0`` for the paper's literal formula (may return inf).
    """
    set_p, set_q = set(refs_p), set(refs_q)
    union = len(set_p | set_q)
    intersection = len(set_p & set_q)
    if smoothing == 0 and intersection == 0:
        return float("inf") if union else 0.0
    return (union + smoothing) / (intersection + smoothing)


def keyword_difference(keywords_p: Sequence[str], keywords_q: Sequence[str],
                       word_vectors: HashWordVectors | None = None) -> float:
    """Eq. 3: expectation of Euclidean distance over keyword vector pairs."""
    if word_vectors is None:
        word_vectors = HashWordVectors()
    if not keywords_p or not keywords_q:
        return EMPTY_KEYWORD_DISTANCE
    vectors_p = word_vectors.vectors(keywords_p)
    vectors_q = word_vectors.vectors(keywords_q)
    diffs = vectors_p[:, None, :] - vectors_q[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).mean())


def subspace_centroids(sentence_vectors: np.ndarray, labels: Sequence[int],
                       num_subspaces: int) -> np.ndarray:
    """Per-subspace expectation of sentence vectors (Sec. III-A.4).

    ``c_p^k = E_i(h_i * I(l_i = k))`` — the mean of sentence vectors whose
    function label is k. Subspaces with no sentence get a zero centroid.

    Returns an ``(num_subspaces, dim)`` matrix.
    """
    sentence_vectors = np.asarray(sentence_vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if sentence_vectors.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{sentence_vectors.shape[0]} sentence vectors but {labels.shape[0]} labels"
        )
    dim = sentence_vectors.shape[1] if sentence_vectors.ndim == 2 else 0
    centroids = np.zeros((num_subspaces, dim))
    for k in range(num_subspaces):
        mask = labels == k
        if mask.any():
            centroids[k] = sentence_vectors[mask].mean(axis=0)
    return centroids


#: Default bound on the per-instance centroid cache of
#: :class:`AbstractSubspaceRule` (least-recently-used eviction).
DEFAULT_CENTROID_CACHE_SIZE = 4096


class AbstractSubspaceRule:
    """The f_t rule: subspace centroid distances from abstract text.

    Parameters
    ----------
    encoder:
        Frozen sentence encoder (BERT substitute).
    num_subspaces:
        K, the number of sentence-function subspaces.
    cache_size:
        Maximum number of per-paper centroid matrices kept in the
        instance cache; least-recently-used entries are evicted beyond
        it, so long-running services scoring an unbounded stream of
        papers hold at most ``cache_size * K * dim`` floats.
    """

    def __init__(self, encoder: SentenceEncoder, num_subspaces: int = len(SUBSPACE_NAMES),
                 cache_size: int = DEFAULT_CENTROID_CACHE_SIZE) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.encoder = encoder
        self.num_subspaces = num_subspaces
        self.cache_size = cache_size
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()

    def centroids(self, paper: Paper, labels: Sequence[int] | None = None) -> np.ndarray:
        """Cached subspace centroids of *paper* (gold labels by default)."""
        cached = self._cache.get(paper.id)
        if cached is not None:
            self._cache.move_to_end(paper.id)
            return cached
        sentence_vectors = self.encoder.encode(paper.abstract)
        used = labels if labels is not None else paper.sentence_labels
        used = list(used)[: sentence_vectors.shape[0]]
        if len(used) < sentence_vectors.shape[0]:
            sentence_vectors = sentence_vectors[: len(used)]
        result = subspace_centroids(sentence_vectors, used, self.num_subspaces)
        self._cache[paper.id] = result
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return result

    def difference(self, paper_p: Paper, paper_q: Paper, subspace: int) -> float:
        """``f_t(p, q) = D(c_p^k, c_q^k)`` with Euclidean D."""
        if not 0 <= subspace < self.num_subspaces:
            raise ValueError(f"subspace must be in [0, {self.num_subspaces}), got {subspace}")
        cp = self.centroids(paper_p)[subspace]
        cq = self.centroids(paper_q)[subspace]
        return float(np.linalg.norm(cp - cq))


#: Rule identifiers, in fusion-vector order.
RULE_NAMES = ("classification", "references", "keywords", "abstract")


@dataclass
class RuleScores:
    """Raw per-rule scores for one paper pair.

    ``abstract`` is per-subspace; the whole-paper rules apply to all
    subspaces (the paper's ``f_*^k`` convention).
    """

    classification: float
    references: float
    keywords: float
    abstract: np.ndarray  # (K,)

    def vector(self, subspace: int) -> np.ndarray:
        """Rule vector for *subspace*, in :data:`RULE_NAMES` order."""
        return np.array([
            self.classification,
            self.references,
            self.keywords,
            float(self.abstract[subspace]),
        ])


class ExpertRuleSet:
    """Normalised, fused expert rules for a fixed corpus.

    ``fit`` samples random paper pairs to estimate per-rule mean/std; the
    fused per-subspace score is then the weighted sum of z-scored rules,
    with weights ``a_i`` (uniform by default, refined during twin-network
    training per Sec. III-D).
    """

    def __init__(self, encoder: SentenceEncoder,
                 word_vectors: HashWordVectors | None = None,
                 num_subspaces: int = len(SUBSPACE_NAMES),
                 weights: np.ndarray | None = None) -> None:
        self.encoder = encoder
        self.word_vectors = word_vectors or HashWordVectors(dim=encoder.dim)
        self.num_subspaces = num_subspaces
        self.abstract_rule = AbstractSubspaceRule(encoder, num_subspaces)
        if weights is None:
            weights = np.ones(len(RULE_NAMES)) / len(RULE_NAMES)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (len(RULE_NAMES),):
            raise ValueError(f"weights must have shape ({len(RULE_NAMES)},)")
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._scorer_cache: "tuple[tuple[str, ...], BatchPairScorer] | None" = None

    # ------------------------------------------------------------------
    def raw_scores(self, paper_p: Paper, paper_q: Paper) -> RuleScores:
        """Unnormalised rule scores for one pair."""
        abstract = np.array([
            self.abstract_rule.difference(paper_p, paper_q, k)
            for k in range(self.num_subspaces)
        ])
        return RuleScores(
            classification=classification_difference(paper_p.category_path,
                                                     paper_q.category_path),
            references=reference_difference(paper_p.references, paper_q.references),
            keywords=keyword_difference(paper_p.keywords, paper_q.keywords,
                                        self.word_vectors),
            abstract=abstract,
        )

    def fit(self, papers: Sequence[Paper], n_pairs: int = 200,
            seed: int | np.random.Generator | None = 0) -> "ExpertRuleSet":
        """Estimate normalisation statistics from random paper pairs."""
        papers = list(papers)
        if len(papers) < 2:
            raise ValueError("need at least two papers to fit rule statistics")
        rng = as_generator(seed)
        samples = []
        for _ in range(n_pairs):
            i, j = rng.choice(len(papers), size=2, replace=False)
            scores = self.raw_scores(papers[i], papers[j])
            for k in range(self.num_subspaces):
                samples.append(scores.vector(k))
        matrix = np.asarray(samples)
        self._mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std < 1e-9] = 1.0
        self._std = std
        return self

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._mean is None or self._std is None:
            raise NotFittedError("ExpertRuleSet.fit must be called before scoring")
        return self._mean, self._std

    def fused_scores(self, paper_p: Paper, paper_q: Paper) -> np.ndarray:
        """``f^k(p, q) = sum_i a_i f_i(p, q)`` over z-scored rules, for
        every subspace at once, shape ``(K,)``."""
        mean, std = self._require_fitted()
        raw = self.raw_scores(paper_p, paper_q)
        return np.array([
            float(self.weights @ ((raw.vector(k) - mean) / std))
            for k in range(self.num_subspaces)
        ])

    def batch_scorer(self, papers: Sequence[Paper]) -> "BatchPairScorer":
        """A :class:`~repro.core.rules_batch.BatchPairScorer` specialised
        to *papers* — precomputes per-paper features once so many pairs
        can be scored in vectorized numpy.

        The most recent scorer is memoised per corpus (keyed by the id
        sequence), so pipeline stages that score over the same paper list
        — de-fuzz sampling, triplet annotation, rule-weight learning —
        share one precomputation. Scorers read normalisation statistics
        and fusion weights live from this rule set, so ``fit`` /
        ``set_weights`` after construction never stale them.
        """
        from repro.core.rules_batch import BatchPairScorer
        key = tuple(p.id for p in papers)
        cached = self._scorer_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        scorer = BatchPairScorer(self, papers)
        self._scorer_cache = (key, scorer)
        return scorer

    def set_weights(self, weights: np.ndarray) -> None:
        """Install learned fusion weights (from twin-network training)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.weights.shape:
            raise ValueError(f"expected shape {self.weights.shape}, got {weights.shape}")
        self.weights = weights
