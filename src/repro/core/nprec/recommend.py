"""NPRec end-to-end recommender (Sec. IV-B/E).

Wires SEM text embeddings, the heterogeneous academic network, the
asymmetric GCN, and the de-fuzzing sampler into the shared
:class:`~repro.baselines.base.Recommender` interface. Users are
represented by their historical publications; a candidate's score for
user ``a`` is the mean correlation ``y_hat(p, candidate)`` over the
user's papers ``p`` (the ``I_a`` expectation of Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.baselines.base import Recommender
from repro.baselines.content import TfIdfIndex
from repro.core.nprec.model import NPRecModel
from repro.core.nprec.sampling import build_training_pairs
from repro.core.nprec.trainer import NPRecTrainer, NPRecTrainHistory
from repro.core.sem import SEMConfig, SubspaceEmbeddingMethod
from repro.data.corpus import Corpus
from repro.data.schema import Paper
from repro.errors import NotFittedError
from repro.graph.builder import build_academic_network
from repro.nn import no_grad
from repro.utils.rng import as_generator

#: Term cap of the one TF-IDF vocabulary (content block, serving's
#: fallback).
CONTENT_FEATURES = 3000


@dataclass(frozen=True)
class NPRecConfig:
    """Hyperparameters of the full NPRec recommender.

    ``neighbor_k`` and ``depth`` are the K and H of Tabs. VII/VIII;
    ``strategy``/``negative_ratio`` control the Sec. IV-C sampler;
    ``use_text``/``use_network`` select the ablation variants.
    """

    sem: SEMConfig = field(default_factory=lambda: SEMConfig(n_triplets=80, epochs=2))
    dim: int = 32
    neighbor_k: int = 8
    depth: int = 2
    use_text: bool = True
    use_network: bool = True
    strategy: str = "defuzz"
    negative_ratio: int = 10
    defuzz_quantile: float = 0.4
    max_positives: int = 160
    block_gates: tuple[float, ...] = (0.3, 0.15, 0.1, 1.2, 0.8)
    use_content_similarity: bool = True
    lr: float = 2e-2
    reg: float = 1e-6
    epochs: int = 6
    batch_size: int = 64
    sem_train_cap: int = 260
    expand_profile_with_citations: bool = False
    max_pool_mix: float = 0.5
    seed: int = 0


class NPRecRecommender(Recommender):
    """The paper's proposed method, NPRec."""

    name = "NPRec"

    def __init__(self, config: NPRecConfig | None = None) -> None:
        self.config = config or NPRecConfig()
        self.sem: SubspaceEmbeddingMethod | None = None
        self.model: NPRecModel | None = None
        self.history_: NPRecTrainHistory | None = None
        self.content_tfidf_: TfIdfIndex | None = None
        self._train_by_id: dict[str, Paper] = {}

    def fit(self, corpus: Corpus, train_papers: Sequence[Paper],
            new_papers: Sequence[Paper] = ()) -> "NPRecRecommender":
        """Train SEM, build the network, sample pairs, fit the GCN."""
        cfg = self.config
        rng = as_generator(cfg.seed)
        train_papers = list(train_papers)
        new_papers = list(new_papers)
        if not train_papers:
            raise ValueError("no training papers")

        with obs.trace("nprec.fit", train_papers=len(train_papers),
                       new_papers=len(new_papers)):
            # 1. Subspace text embeddings (capped subset keeps SEM affordable
            #    on large corpora; embeddings are then produced for everyone).
            sem_train = train_papers
            if len(sem_train) > cfg.sem_train_cap:
                picked = rng.choice(len(sem_train), size=cfg.sem_train_cap, replace=False)
                sem_train = [sem_train[i] for i in picked]
            with obs.trace("nprec.fit.sem", papers=len(sem_train)):
                self.sem = SubspaceEmbeddingMethod(cfg.sem).fit(sem_train)

            everyone = train_papers + new_papers
            with obs.trace("nprec.fit.text_vectors"):
                text_vectors: dict[str, np.ndarray] | None = None
                if cfg.use_text:
                    fused = self.sem.fused_embeddings(everyone)
                    text_vectors = {p.id: fused[i] for i, p in enumerate(everyone)}
                # The one TF-IDF vocabulary: the content block reads it,
                # and serving (ingest, fallback) loads it from the artifact.
                self.content_tfidf_ = TfIdfIndex(
                    max_features=CONTENT_FEATURES).fit(train_papers)
                content_vectors: dict[str, np.ndarray] | None = None
                if cfg.use_content_similarity and cfg.use_text:
                    content_vectors = {p.id: self.content_tfidf_.transform(p)
                                       for p in everyone}

            # 2. Heterogeneous network: metadata for everyone, citations only
            #    among historical papers (new papers are citation cold-start).
            train_ids = {p.id for p in train_papers}
            graph = build_academic_network(corpus, papers=everyone,
                                           citation_whitelist=train_ids)

            # 3. De-fuzzed training pairs (Sec. IV-C).
            pairs = build_training_pairs(
                train_papers, rules=self.sem.rules, negative_ratio=cfg.negative_ratio,
                strategy=cfg.strategy, max_positives=cfg.max_positives,
                threshold_quantile=cfg.defuzz_quantile,
                seed=int(rng.integers(2**31)),
            )

            # 4. Asymmetric GCN (Sec. IV-A) + Eq. 23 optimisation.
            self.model = NPRecModel(
                graph, text_vectors, dim=cfg.dim, neighbor_k=cfg.neighbor_k,
                depth=cfg.depth, use_text=cfg.use_text, use_network=cfg.use_network,
                block_gates=cfg.block_gates, content_vectors=content_vectors,
                seed=int(rng.integers(2**31)),
            )
            trainer = NPRecTrainer(self.model, lr=cfg.lr, reg=cfg.reg,
                                   epochs=cfg.epochs, batch_size=cfg.batch_size,
                                   seed=int(rng.integers(2**31)))
            self.history_ = trainer.train(pairs)
            self.model.induct_new_papers([p.id for p in new_papers])
            self._train_by_id = {p.id: p for p in train_papers}

        return self

    def rank(self, user_papers: Sequence[Paper],
             candidates: Sequence[Paper]) -> list[str]:
        """Rank candidates by mean asymmetric correlation with the user."""
        if self.model is None:
            raise NotFittedError("NPRecRecommender.fit must be called first")
        if not user_papers:
            raise ValueError("user has no representative papers")
        if not candidates:
            return []
        with obs.trace("nprec.recommend.rank", user_papers=len(user_papers),
                       candidates=len(candidates)):
            obs.count("nprec.recommend.queries")
            return self._rank(user_papers, candidates)

    def _rank(self, user_papers: Sequence[Paper],
              candidates: Sequence[Paper]) -> list[str]:
        # Sec. IV-B: P_a is the user's *published or cited* papers; with
        # expand_profile_with_citations the cited training papers join
        # the interest rows.
        profile: list[Paper] = list(user_papers)
        if self.config.expand_profile_with_citations:
            seen = {p.id for p in profile}
            for paper in user_papers:
                for ref in paper.references:
                    cited = self._train_by_id.get(ref)
                    if cited is not None and cited.id not in seen:
                        profile.append(cited)
                        seen.add(cited.id)
        with no_grad():
            interest = self.model.interest_vectors(
                [p.id for p in profile]).data
            influence = self.model.influence_vectors(
                [p.id for p in candidates]).data
        pairwise = interest @ influence.T
        # Blend mean pooling (the I_a expectation of Sec. IV-B) with max
        # pooling so one strongly-matching interest is not diluted when a
        # user's history spans several topics.
        mix = self.config.max_pool_mix
        scores = mix * pairwise.max(axis=0) + (1.0 - mix) * pairwise.mean(axis=0)
        order = np.argsort(-scores, kind="mergesort")
        return [candidates[i].id for i in order]
