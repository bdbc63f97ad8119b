"""SEM — the Subspace Embedding Method, end to end (Sec. III).

:class:`SubspaceEmbeddingMethod` wires the whole pipeline together:

1. fit the frozen sentence encoder's corpus statistics;
2. obtain per-sentence function labels (gold tags where the corpus has
   them, else a CRF :class:`~repro.text.SequenceLabeler` trained on a
   small annotated subset — the paper tags 100 abstracts per dataset);
3. fit and optionally reweight the expert rule set;
4. annotate triplets (Eq. 4) and fine-tune the subspace fusion network
   with the twin-network hinge loss (Eq. 14);
5. expose subspace embeddings, LOF-based difference scores, and the
   attention-fused text representation used by NPRec (Sec. IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.correlation import clustered_outlier_scores, normalize_scores
from repro.core.annotation import Triplet, annotate_triplets
from repro.core.rules import RULE_NAMES, ExpertRuleSet
from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.core.twin import TwinNetworkTrainer, TrainHistory
from repro.data.schema import Paper
from repro.errors import NotFittedError
from repro.resilience import faults
from repro.text.sentence_encoder import SentenceEncoder
from repro.text.sequence_labeler import SUBSPACE_NAMES, SequenceLabeler
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class SEMConfig:
    """Hyperparameters of the SEM pipeline.

    Defaults are sized for the synthetic corpora of this reproduction; the
    paper's production settings (768-d BERT vectors) are reachable by
    raising ``encoder_dim``.
    """

    encoder_dim: int = 48
    hidden_dims: tuple[int, ...] = (64,)
    out_dim: int = 40
    num_subspaces: int = len(SUBSPACE_NAMES)
    n_triplets: int = 120
    min_gap: float = 0.05
    epochs: int = 3
    lr: float = 1e-3
    margin: float = 0.5
    reg: float = 1e-6
    batch_size: int = 16
    distance: str = "euclidean"
    context_weight: float = 0.5
    use_gold_labels: bool = True
    labeler_train_size: int = 100
    labeler_epochs: int = 6
    learn_rule_weights: bool = True
    rule_weight_samples: int = 120
    abstract_rule_boost: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_subspaces < 1:
            raise ValueError("num_subspaces must be >= 1")
        if self.n_triplets < 1:
            raise ValueError("n_triplets must be >= 1")


class SubspaceEmbeddingMethod:
    """The paper's SEM model with a scikit-learn-style ``fit`` interface."""

    def __init__(self, config: SEMConfig | None = None) -> None:
        self.config = config or SEMConfig()
        self.encoder: SentenceEncoder | None = None
        self.labeler: SequenceLabeler | None = None
        self.rules: ExpertRuleSet | None = None
        self.network: SubspaceEmbeddingNetwork | None = None
        self.history_: TrainHistory | None = None
        self.triplets_: list[Triplet] | None = None
        self._encoded: dict[str, tuple[np.ndarray, list[int]]] = {}
        self._embedding_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Label handling
    # ------------------------------------------------------------------
    def _labels_for(self, paper: Paper, n_sentences: int) -> list[int]:
        if self.config.use_gold_labels and paper.sentence_labels:
            return list(paper.sentence_labels)[:n_sentences]
        if self.labeler is None:
            raise NotFittedError("no gold labels and no trained labeler available")
        return self.labeler.predict(paper.abstract)[:n_sentences]

    def _encode_paper(self, paper: Paper) -> tuple[np.ndarray, list[int]]:
        cached = self._encoded.get(paper.id)
        if cached is not None:
            return cached
        assert self.encoder is not None
        sentence_vectors = self.encoder.encode(paper.abstract)
        labels = self._labels_for(paper, sentence_vectors.shape[0])
        if len(labels) < sentence_vectors.shape[0]:
            sentence_vectors = sentence_vectors[: len(labels)]
        entry = (sentence_vectors, labels)
        self._encoded[paper.id] = entry
        return entry

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, papers: Sequence[Paper]) -> "SubspaceEmbeddingMethod":
        """Train SEM on *papers* (typically one corpus' historical slice)."""
        papers = list(papers)
        if len(papers) < 3:
            raise ValueError("need at least three papers to train SEM")
        cfg = self.config
        rng = as_generator(cfg.seed)
        # Sentence encodings and embeddings belong to the previous fit's
        # encoder and network.
        self._encoded.clear()
        self._embedding_cache.clear()

        self.encoder = SentenceEncoder(dim=cfg.encoder_dim)
        self.encoder.fit_frequencies([p.abstract for p in papers])

        if not cfg.use_gold_labels:
            # The paper tags ~100 abstracts per dataset to train the
            # sentence-function classifier; we mirror that protocol using
            # the gold tags of a small subset as the "expert annotation".
            subset = [p for p in papers if p.sentence_labels][: cfg.labeler_train_size]
            if not subset:
                raise ValueError("no labelled abstracts available to train the labeler")
            self.labeler = SequenceLabeler(num_labels=cfg.num_subspaces,
                                           epochs=cfg.labeler_epochs,
                                           seed=int(rng.integers(2**31)))
            self.labeler.fit([p.abstract for p in subset],
                             [list(p.sentence_labels) for p in subset])

        self.rules = ExpertRuleSet(self.encoder, num_subspaces=cfg.num_subspaces)
        self.rules.fit(papers, seed=int(rng.integers(2**31)))
        if cfg.learn_rule_weights:
            weights = self._learn_rule_weights(papers, rng)
        else:
            weights = np.asarray(self.rules.weights)
        if cfg.abstract_rule_boost != 1.0:
            # The abstract rule is the only subspace-specific evidence; a
            # boost keeps subspace distinctions from being washed out by
            # the three whole-paper rules during annotation.
            weights = weights.copy()
            weights[RULE_NAMES.index("abstract")] *= cfg.abstract_rule_boost
            weights = weights / weights.sum()
        self.rules.set_weights(weights)

        self.triplets_ = annotate_triplets(
            papers, self.rules, n_triplets=cfg.n_triplets, min_gap=cfg.min_gap,
            seed=int(rng.integers(2**31)),
        )
        for paper in papers:
            self._encode_paper(paper)

        self.network = SubspaceEmbeddingNetwork(
            in_dim=cfg.encoder_dim, hidden_dims=cfg.hidden_dims,
            out_dim=cfg.out_dim, num_subspaces=cfg.num_subspaces,
            context_weight=cfg.context_weight,
            rng=int(rng.integers(2**31)),
        )
        trainer = TwinNetworkTrainer(
            self.network, distance=cfg.distance, margin=cfg.margin, reg=cfg.reg,
            lr=cfg.lr, epochs=cfg.epochs, batch_size=cfg.batch_size,
            seed=int(rng.integers(2**31)),
        )
        self.history_ = trainer.train(self.triplets_, self._encoded)
        return self

    def _learn_rule_weights(self, papers: Sequence[Paper],
                            rng: np.random.Generator) -> np.ndarray:
        """Consistency-weighted rule fusion (Sec. III-D's learned a_i).

        Each rule is weighted by how often its own pairwise ordering over
        random triples agrees with the uniform-fusion majority ordering —
        rules that contradict the consensus are down-weighted. This is a
        deterministic, interpretable stand-in for learning a_i jointly
        with the network, and it is refined before triplet annotation so
        annotations use the improved fusion.

        All sampled triples are scored through the vectorized batch
        engine in one pass; the triple draws consume the shared *rng*
        exactly as the historical per-pair loop did.
        """
        assert self.rules is not None
        cfg = self.config
        triples = np.asarray(
            [rng.choice(len(papers), size=3, replace=False)
             for _ in range(cfg.rule_weight_samples)])
        scorer = self.rules.batch_scorer(papers)
        z_q = scorer.normalized_matrix(triples[:, 0], triples[:, 1])
        z_q2 = scorer.normalized_matrix(triples[:, 0], triples[:, 2])
        fused_gap = z_q.mean(axis=2) - z_q2.mean(axis=2)        # (m, K)
        confident = np.abs(fused_gap) >= 1e-9
        agree = np.sign(z_q - z_q2) == np.sign(fused_gap)[..., None]
        agreements = (agree & confident[..., None]).sum(axis=(0, 1)).astype(float)
        counted = np.full(len(RULE_NAMES), float(confident.sum()))
        counted[counted == 0] = 1.0
        weights = agreements / counted + 1e-3
        return weights / weights.sum()

    # ------------------------------------------------------------------
    # Embedding access
    # ------------------------------------------------------------------
    def _require_network(self) -> SubspaceEmbeddingNetwork:
        if self.network is None:
            raise NotFittedError("SubspaceEmbeddingMethod.fit must be called first")
        return self.network

    def _embed_missing(self, papers: Sequence[Paper]) -> None:
        """Cache the embeddings of *papers* not cached yet, in one batch."""
        network = self._require_network()
        missing = list({p.id: p for p in papers
                        if p.id not in self._embedding_cache}.values())
        # Fault site covers the actual compute only, once per computed
        # paper — cache hits model a fault-free fast path.
        for _ in missing:
            faults.maybe_fail("sem.embed")
        if missing:
            embeddings = network.embed_batch(
                [self._encode_paper(p) for p in missing])
            self._embedding_cache.update(
                zip((p.id for p in missing), embeddings))

    def embed(self, paper: Paper) -> np.ndarray:
        """Subspace embeddings of one paper: ``(K, 2 * out_dim)``."""
        self._embed_missing([paper])
        return self._embedding_cache[paper.id]

    def embed_many(self, papers: Sequence[Paper]) -> np.ndarray:
        """Stacked subspace embeddings: ``(n, K, 2 * out_dim)``."""
        network = self._require_network()
        papers = list(papers)
        if not papers:
            return np.zeros((0, self.config.num_subspaces,
                             network.embedding_dim))
        self._embed_missing(papers)
        return np.stack([self._embedding_cache[p.id] for p in papers])

    def subspace_matrix(self, papers: Sequence[Paper], subspace: int) -> np.ndarray:
        """Embeddings of all *papers* in one subspace: ``(n, 2 * out_dim)``."""
        if not 0 <= subspace < self.config.num_subspaces:
            raise ValueError(
                f"subspace must be in [0, {self.config.num_subspaces}), got {subspace}"
            )
        return self.embed_many(papers)[:, subspace]

    def fused_embeddings(self, papers: Sequence[Paper],
                         weights: Sequence[float] | None = None) -> np.ndarray:
        """Fused text vectors ``c_p = sum_k lambda_k c_p^k``.

        With ``weights=None`` the lambdas are uniform (``1/K``). NPRec
        calls it that way, so its text is the uniform fusion; the Eq. 23
        attention weights are not learned.
        """
        stacked = self.embed_many(papers)  # (n, K, d)
        if weights is None:
            lambdas = np.ones(self.config.num_subspaces) / self.config.num_subspaces
        else:
            lambdas = np.asarray(weights, dtype=np.float64)
            if lambdas.shape != (self.config.num_subspaces,):
                raise ValueError(
                    f"weights must have shape ({self.config.num_subspaces},)"
                )
        return np.einsum("nkd,k->nd", stacked, lambdas)

    @property
    def embedding_dim(self) -> int:
        """Width of each subspace embedding."""
        return self._require_network().embedding_dim

    # ------------------------------------------------------------------
    # Difference analysis (Sec. III-C/E/F/G)
    # ------------------------------------------------------------------
    def outlier_scores(self, papers: Sequence[Paper], subspace: int,
                       lof_k: int = 10,
                       reference: Sequence[Paper] | None = None,
                       seed: int | np.random.Generator | None = 0) -> np.ndarray:
        """Normalised LOF difference scores of *papers* in *subspace*.

        When *reference* is given (the paper's "historical comparison
        collection"), density is estimated over papers + reference jointly
        and only the papers' scores are returned — a new paper is "different"
        relative to the prior literature, not merely to its cohort.
        """
        papers = list(papers)
        pool = papers + [p for p in (reference or []) if True]
        matrix = self.subspace_matrix(pool, subspace)
        scores = normalize_scores(
            clustered_outlier_scores(matrix, lof_k=lof_k, seed=seed))
        return scores[: len(papers)]

    def difference_ranking(self, papers: Sequence[Paper], subspace: int,
                           lof_k: int = 10) -> list[str]:
        """Paper ids sorted by descending subspace difference (Sec. III-E)."""
        scores = self.outlier_scores(papers, subspace, lof_k=lof_k)
        order = np.argsort(-scores, kind="mergesort")
        return [papers[i].id for i in order]
