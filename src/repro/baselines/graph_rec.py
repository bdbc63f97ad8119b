"""Graph-based recommenders: KGCN [19], KGCN-LS [9], RippleNet [21].

* **KGCN** — users get id embeddings; items are aggregated symmetrically
  over the academic network with sampled fixed-size neighbourhoods (no
  interest/influence asymmetry — that is NPRec's addition). Papers enter
  the graph through a content projection so new papers can be scored.
* **KGCN-LS** — KGCN plus a label-smoothness term: the score of a
  sampled graph-neighbour paper is pulled toward the training label, the
  regularised label-propagation view of Wang et al.
* **RippleNet** — preference propagation: the user's interacted papers
  seed a ripple set that expands over the network hop by hop with decay;
  a candidate scores by the (weighted) overlap of its metadata entities
  with the ripple set. This reproduces the propagation mechanism without
  the trained attention, which at our corpus scale performs comparably.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.baselines.base import Recommender
from repro.baselines.content import TfIdfIndex
from repro.baselines.neural import author_citation_pairs
from repro.data.corpus import Corpus
from repro.data.schema import Paper
from repro.errors import NotFittedError
from repro.graph.builder import build_academic_network
from repro.graph.hetero import HeterogeneousGraph
from repro.graph.sampling import neighbour_table
from repro.nn import (
    Adam,
    Embedding,
    Linear,
    Module,
    Tensor,
    binary_cross_entropy_with_logits,
    mse_loss,
    softmax,
)
from repro.nn.tensor import parameter
from repro.utils.rng import as_generator


class _KGCNNet(Module):
    """Symmetric one-layer sampled graph convolution + user embeddings."""

    def __init__(self, graph: HeterogeneousGraph, n_users: int,
                 content: np.ndarray, dim: int = 16, neighbor_k: int = 8,
                 rng: np.random.Generator | int | None = 0) -> None:
        generator = as_generator(rng)
        self.graph = graph
        self.dim = dim
        self.neighbor_k = neighbor_k
        self.users = Embedding(n_users, dim, rng=int(generator.integers(2**31)))
        self.entities = Embedding(graph.num_entities, dim, std=0.02,
                                  rng=int(generator.integers(2**31)))
        self.content_proj = Linear(content.shape[1], dim, bias=False,
                                   rng=int(generator.integers(2**31)))
        self.agg = Linear(dim, dim, rng=int(generator.integers(2**31)))
        self.score_bias = parameter(np.zeros(1), name="bias")
        self._content = content
        self._nonpaper = np.ones(graph.num_entities)
        for index in graph.entities_of_type("paper"):
            self._nonpaper[index] = 0.0
        # One fixed row of K neighbours per entity (the all-relations view).
        self._table = neighbour_table(graph, neighbor_k, "all",
                                      int(generator.integers(2**31)))

    def _base(self, indices: np.ndarray) -> Tensor:
        embedded = self.entities(indices) * Tensor(self._nonpaper[indices][:, None])
        return embedded + self.content_proj(Tensor(self._content[indices])).tanh()

    def item_vectors(self, paper_indices: np.ndarray) -> Tensor:
        """Aggregated item representations, shape ``(B, dim)``."""
        k = self.neighbor_k
        neighbours = self._table[paper_indices].reshape(-1)
        centre = self._base(paper_indices)
        neigh = self._base(neighbours)
        scores = (centre.reshape(len(paper_indices), 1, self.dim)
                  * neigh.reshape(len(paper_indices), k, self.dim)).sum(axis=2)
        attention = softmax(scores, axis=-1)
        pooled = (attention.reshape(len(paper_indices), k, 1)
                  * neigh.reshape(len(paper_indices), k, self.dim)).sum(axis=1)
        return self.agg(centre + pooled).tanh()

    def forward(self, user_ids: np.ndarray, paper_indices: np.ndarray) -> Tensor:
        user_vec = self.users(user_ids)
        item_vec = self.item_vectors(paper_indices)
        return (user_vec * item_vec).sum(axis=1) + self.score_bias


class KGCNRecommender(Recommender):
    """Knowledge-graph convolutional recommendation (symmetric)."""

    name = "KGCN"
    label_smoothness: float = 0.0

    def __init__(self, dim: int = 16, neighbor_k: int = 8, epochs: int = 4,
                 lr: float = 2e-2, negative_ratio: int = 4, batch_size: int = 128,
                 seed: int | np.random.Generator | None = 0) -> None:
        self.dim = dim
        self.neighbor_k = neighbor_k
        self.epochs = epochs
        self.lr = lr
        self.negative_ratio = negative_ratio
        self.batch_size = batch_size
        self._seed = seed
        self.net_: _KGCNNet | None = None
        self._author_index: dict[str, int] = {}
        self._graph: HeterogeneousGraph | None = None
        self._paper_neighbors: dict[int, list[int]] = {}

    def _two_hop_papers(self, index: int) -> list[int]:
        assert self._graph is not None
        cached = self._paper_neighbors.get(index)
        if cached is None:
            found: set[int] = set()
            for entity in self._graph.two_way_neighbors(index):
                for other in self._graph.two_way_neighbors(entity):
                    if other != index and self._graph.key_of(other).type == "paper":
                        found.add(other)
            cached = sorted(found)
            self._paper_neighbors[index] = cached
        return cached

    def fit(self, corpus: Corpus, train_papers: Sequence[Paper],
            new_papers: Sequence[Paper] = ()) -> "KGCNRecommender":
        rng = as_generator(self._seed)
        train_papers = list(train_papers)
        everyone = train_papers + list(new_papers)
        train_ids = {p.id for p in train_papers}
        graph = build_academic_network(corpus, papers=everyone,
                                       citation_whitelist=train_ids)
        self._graph = graph
        tfidf = TfIdfIndex().fit(train_papers)
        content = np.zeros((graph.num_entities, tfidf.dim))
        for paper in everyone:
            content[graph.index_of("paper", paper.id)] = tfidf.transform(paper)

        samples = author_citation_pairs(train_papers, self.negative_ratio,
                                        rng=int(rng.integers(2**31)))
        authors = sorted({a for a, _, _ in samples})
        self._author_index = {a: i for i, a in enumerate(authors)}
        self.net_ = _KGCNNet(graph, len(authors), content, dim=self.dim,
                             neighbor_k=self.neighbor_k,
                             rng=int(rng.integers(2**31)))
        optimizer = Adam(self.net_.parameters(), lr=self.lr)
        order = np.arange(len(samples))
        ls_rng = as_generator(int(rng.integers(2**31)))
        for _ in range(self.epochs):
            rng.shuffle(order)
            for start in range(0, len(order), self.batch_size):
                batch = [samples[i] for i in order[start:start + self.batch_size]]
                user_ids = np.array([self._author_index[a] for a, _, _ in batch])
                paper_idx = np.array([graph.index_of("paper", pid)
                                      for _, pid, _ in batch])
                labels = np.array([y for _, _, y in batch])
                optimizer.zero_grad()
                logits = self.net_(user_ids, paper_idx)
                loss = binary_cross_entropy_with_logits(logits, labels)
                if self.label_smoothness > 0:
                    # Pull the score of a random graph-neighbour paper
                    # toward the same label (label propagation).
                    neighbour_idx = paper_idx.copy()
                    for b, idx in enumerate(paper_idx):
                        options = self._two_hop_papers(int(idx))
                        if options:
                            neighbour_idx[b] = options[int(ls_rng.integers(len(options)))]
                    smooth_logits = self.net_(user_ids, neighbour_idx)
                    loss = loss + self.label_smoothness * mse_loss(
                        smooth_logits.sigmoid(), labels)
                loss.backward()
                optimizer.step()
        return self

    def rank(self, user_papers: Sequence[Paper],
             candidates: Sequence[Paper]) -> list[str]:
        if self.net_ is None or self._graph is None:
            raise NotFittedError(f"{type(self).__name__}.fit must be called first")
        if not candidates:
            return []
        paper_idx = np.array([self._graph.index_of("paper", c.id)
                              for c in candidates])
        rows = sorted({self._author_index[a] for p in user_papers
                       for a in p.authors if a in self._author_index})
        if rows:
            scores = np.zeros(len(candidates))
            for row in rows:
                user_ids = np.full(len(candidates), row)
                scores += self.net_(user_ids, paper_idx).data
            scores /= len(rows)
        else:
            item_vecs = self.net_.item_vectors(paper_idx).data
            user_idx = np.array([self._graph.index_of("paper", p.id)
                                 for p in user_papers
                                 if ("paper", p.id) in self._graph])
            profile = self.net_.item_vectors(user_idx).data.mean(axis=0)
            scores = item_vecs @ profile
        order = np.argsort(-scores, kind="mergesort")
        return [candidates[i].id for i in order]


class KGCNLSRecommender(KGCNRecommender):
    """KGCN with label-smoothness regularisation."""

    name = "KGCN-LS"
    label_smoothness = 0.15


class RippleNetRecommender(Recommender):
    """Preference propagation over the academic network."""

    name = "RippleNet"

    def __init__(self, hops: int = 2, decay: float = 0.4,
                 max_ripple: int = 400) -> None:
        if hops < 1:
            raise ValueError("hops must be >= 1")
        self.hops = hops
        self.decay = decay
        self.max_ripple = max_ripple
        self._graph: HeterogeneousGraph | None = None
        self._train_by_id: dict[str, Paper] = {}

    def fit(self, corpus: Corpus, train_papers: Sequence[Paper],
            new_papers: Sequence[Paper] = ()) -> "RippleNetRecommender":
        train_papers = list(train_papers)
        everyone = train_papers + list(new_papers)
        train_ids = {p.id for p in train_papers}
        self._graph = build_academic_network(corpus, papers=everyone,
                                             citation_whitelist=train_ids)
        self._train_by_id = {p.id: p for p in train_papers}
        return self

    def _ripple_weights(self, user_papers: Sequence[Paper]) -> Counter:
        """Entity -> accumulated preference weight over all hops."""
        assert self._graph is not None
        graph = self._graph
        # Seed set: the user's papers plus the papers they cite.
        seeds: list[int] = []
        for paper in user_papers:
            if ("paper", paper.id) in graph:
                seeds.append(graph.index_of("paper", paper.id))
            for ref in paper.references:
                if ref in self._train_by_id and ("paper", ref) in graph:
                    seeds.append(graph.index_of("paper", ref))
        weights: Counter = Counter()
        frontier = Counter(seeds)
        scale = 1.0
        for _ in range(self.hops):
            next_frontier: Counter = Counter()
            for node, count in frontier.most_common(self.max_ripple):
                for entity in graph.two_way_neighbors(node):
                    weights[entity] += scale * count
                    next_frontier[entity] += count
            # expand through entities back to papers for the next hop
            paper_frontier: Counter = Counter()
            for entity, count in next_frontier.most_common(self.max_ripple):
                for other in graph.two_way_neighbors(entity):
                    if graph.key_of(other).type == "paper":
                        paper_frontier[other] += count
            frontier = paper_frontier
            scale *= self.decay
        return weights

    def rank(self, user_papers: Sequence[Paper],
             candidates: Sequence[Paper]) -> list[str]:
        if self._graph is None:
            raise NotFittedError("RippleNetRecommender.fit must be called first")
        if not candidates:
            return []
        weights = self._ripple_weights(list(user_papers))
        total = sum(weights.values()) or 1.0
        scores = []
        for candidate in candidates:
            idx = self._graph.index_of("paper", candidate.id)
            entities = self._graph.two_way_neighbors(idx)
            score = sum(weights.get(e, 0.0) for e in entities) / total
            scores.append(score)
        order = np.argsort(-np.asarray(scores), kind="mergesort")
        return [candidates[i].id for i in order]
