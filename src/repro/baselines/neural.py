"""Neural CF baselines: MLP (NCF, He et al. [12]) and JTIE [2].

* **MLPRecommender** learns the non-linear interaction between a user
  (author) embedding and an item representation with a multi-layer
  perceptron, trained on author-cites-paper pairs. Items enter through a
  content projection (TF-IDF -> dense) so new papers score naturally.
* **JTIERecommender** jointly embeds paper *text* and *influence*
  features (author h-index proxy, venue citation rate, recency) and
  scores users against candidates with a trained bilinear form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import Recommender
from repro.baselines.content import TfIdfIndex
from repro.data.corpus import Corpus
from repro.data.schema import Paper
from repro.errors import NotFittedError
from repro.nn import (
    MLP,
    Adam,
    Embedding,
    Linear,
    Module,
    Tensor,
    binary_cross_entropy_with_logits,
    concat,
    no_grad,
)
from repro.utils.blas import single_threaded_blas
from repro.utils.rng import as_generator


def author_citation_pairs(train_papers: Sequence[Paper],
                          negative_ratio: int = 4,
                          rng: np.random.Generator | int | None = 0
                          ) -> list[tuple[str, str, float]]:
    """(author, paper, label) implicit-feedback triples with negatives."""
    rng = as_generator(rng)
    train_papers = list(train_papers)
    included = {p.id for p in train_papers}
    positives: list[tuple[str, str, float]] = []
    interacted: dict[str, set[str]] = {}
    for paper in train_papers:
        for author in paper.authors:
            seen = interacted.setdefault(author, set())
            for ref in paper.references:
                if ref in included and ref not in seen:
                    positives.append((author, ref, 1.0))
                    seen.add(ref)
    samples = list(positives)
    authors = sorted(interacted)
    for _ in range(len(positives) * negative_ratio):
        author = authors[int(rng.integers(len(authors)))]
        paper = train_papers[int(rng.integers(len(train_papers)))]
        if paper.id not in interacted[author]:
            samples.append((author, paper.id, 0.0))
    return samples


class _NCFNet(Module):
    """User embedding + content-projected item, scored by an MLP."""

    def __init__(self, n_users: int, content_dim: int, dim: int = 16,
                 rng: np.random.Generator | int | None = 0) -> None:
        generator = as_generator(rng)
        self.users = Embedding(n_users, dim, rng=generator)
        self.item_proj = Linear(content_dim, dim, rng=generator)
        self.mlp = MLP([2 * dim, dim, 1], activation="relu",
                       final_activation=False, rng=generator)

    def forward(self, user_ids: np.ndarray, item_content: np.ndarray) -> Tensor:
        user_vec = self.users(user_ids)
        item_vec = self.item_proj(Tensor(item_content)).tanh()
        return self.mlp(concat([user_vec, item_vec], axis=1)).reshape(-1)


class MLPRecommender(Recommender):
    """Neural collaborative filtering with an MLP interaction function."""

    name = "MLP"

    def __init__(self, dim: int = 16, epochs: int = 5, lr: float = 1e-2,
                 negative_ratio: int = 4, batch_size: int = 128,
                 seed: int | np.random.Generator | None = 0) -> None:
        self.dim = dim
        self.epochs = epochs
        self.lr = lr
        self.negative_ratio = negative_ratio
        self.batch_size = batch_size
        self._seed = seed
        self.net_: _NCFNet | None = None
        self._author_index: dict[str, int] = {}
        self._tfidf: TfIdfIndex | None = None
        self._content_cache: dict[str, np.ndarray] = {}

    def _content(self, paper: Paper) -> np.ndarray:
        assert self._tfidf is not None
        cached = self._content_cache.get(paper.id)
        if cached is None:
            cached = self._tfidf.transform(paper)
            self._content_cache[paper.id] = cached
        return cached

    def fit(self, corpus: Corpus, train_papers: Sequence[Paper],
            new_papers: Sequence[Paper] = ()) -> "MLPRecommender":
        rng = as_generator(self._seed)
        train_papers = list(train_papers)
        by_id = {p.id: p for p in train_papers}
        self._tfidf = TfIdfIndex().fit(train_papers)
        self._content_cache.clear()
        samples = author_citation_pairs(train_papers, self.negative_ratio,
                                        rng=int(rng.integers(2**31)))
        authors = sorted({a for a, _, _ in samples})
        self._author_index = {a: i for i, a in enumerate(authors)}
        self.net_ = _NCFNet(len(authors), self._tfidf.dim, dim=self.dim,
                            rng=int(rng.integers(2**31)))
        optimizer = Adam(self.net_.parameters(), lr=self.lr)
        order = np.arange(len(samples))
        for _ in range(self.epochs):
            rng.shuffle(order)
            for start in range(0, len(order), self.batch_size):
                batch = [samples[i] for i in order[start:start + self.batch_size]]
                user_ids = np.array([self._author_index[a] for a, _, _ in batch])
                content = np.stack([self._content(by_id[pid]) for _, pid, _ in batch])
                labels = np.array([y for _, _, y in batch])
                optimizer.zero_grad()
                logits = self.net_(user_ids, content)
                binary_cross_entropy_with_logits(logits, labels).backward()
                optimizer.step()
        return self

    def rank(self, user_papers: Sequence[Paper],
             candidates: Sequence[Paper]) -> list[str]:
        if self.net_ is None:
            raise NotFittedError("MLPRecommender.fit must be called first")
        if not candidates:
            return []
        rows = sorted({self._author_index[a] for p in user_papers
                       for a in p.authors if a in self._author_index})
        content = np.stack([self._content(c) for c in candidates])
        if rows:
            scores = np.zeros(len(candidates))
            for row in rows:
                user_ids = np.full(len(candidates), row)
                scores += self.net_(user_ids, content).data
            scores /= len(rows)
        else:  # unseen user: content match against their own papers
            profile = np.mean([self._content(p) for p in user_papers], axis=0)
            scores = content @ profile
        order = np.argsort(-scores, kind="mergesort")
        return [candidates[i].id for i in order]


def bilinear_gradients(bilinear: Linear, head: Linear, x: np.ndarray,
                       labels: np.ndarray) -> None:
    """Set ``.grad`` of the bias-free *bilinear* weight ``W`` and of
    *head*'s weight ``h`` and bias ``b`` to the gradient of JTIE's mean
    pair loss on one batch.

    *x* stacks the batch's ``n`` profile rows over its ``n`` item rows.
    The forward pass is ``[u; v] = tanh(x @ W.T)``, ``p = u * v`` and the
    logit ``z = p @ h + b``; the loss is the mean of
    :func:`~repro.nn.binary_cross_entropy_with_logits` over the labels.
    The backward pass is written out: ``dz``, then ``dh = dz @ p``,
    ``db = sum(dz)``, ``dp = dz h`` and
    ``dW = ([dp * v; dp * u] * (1 - [u; v]**2)).T @ x``.
    """
    n = labels.shape[0]
    weight = bilinear.weight
    uv = np.tanh(x @ weight.data.T)
    u, v = uv[:n], uv[n:]
    p = u * v
    z = p @ head.weight.data[0] + head.bias.data[0]
    # d loss / dz with the loss's own subgradient conventions: its
    # max(z, 0) term counts z > 0 only and |z| has slope sign(z), so at
    # z == 0 the slope is -y rather than sigmoid(0) - y.
    e = np.exp(-np.abs(z))
    dz = ((z > 0) - labels - np.sign(z) * e / (1.0 + e)) / n
    head.weight.grad = (dz @ p)[None, :]
    head.bias.grad = np.array([dz.sum()])
    dp = dz[:, None] * head.weight.data[0]
    dpre = np.vstack([dp * v, dp * u])
    dpre *= 1.0 - uv**2
    weight.grad = dpre.T @ x


class JTIERecommender(Recommender):
    """Joint text + influence embedding recommendation [2].

    Paper representation = document text vector concatenated with
    influence features; a bilinear interaction matrix is trained on
    author-cites-paper pairs so user profiles weigh both relevance and
    authority.
    """

    name = "JTIE"

    def __init__(self, text_dim: int = 48, epochs: int = 5, lr: float = 5e-3,
                 negative_ratio: int = 4, batch_size: int = 128,
                 seed: int | np.random.Generator | None = 0,
                 vocabulary: TfIdfIndex | None = None) -> None:
        self.text_dim = text_dim
        self.epochs = epochs
        self.lr = lr
        self.negative_ratio = negative_ratio
        self.batch_size = batch_size
        self._seed = seed
        #: A fitted vocabulary to read the first ``text_dim * 20`` terms
        #: of (NPRec hands its own); None fits one on the training papers.
        self.vocabulary = vocabulary
        self._tfidf: TfIdfIndex | None = None
        self.bilinear_: Linear | None = None
        self._corpus: Corpus | None = None
        self._venue_rate: dict[str, float] = {}
        self._author_h: dict[str, float] = {}
        self._vector_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _influence_features(self, paper: Paper) -> np.ndarray:
        venue_rate = self._venue_rate.get(paper.venue or "", 0.0)
        author_h = max((self._author_h.get(a, 0.0) for a in paper.authors),
                       default=0.0)
        return np.array([venue_rate, author_h, len(paper.authors) / 5.0])

    def _vector(self, paper: Paper) -> np.ndarray:
        cached = self._vector_cache.get(paper.id)
        if cached is None:
            assert self._tfidf is not None
            cached = np.concatenate([
                self._tfidf.transform(paper), self._influence_features(paper)])
            self._vector_cache[paper.id] = cached
        return cached

    def fit(self, corpus: Corpus, train_papers: Sequence[Paper],
            new_papers: Sequence[Paper] = ()) -> "JTIERecommender":
        rng = as_generator(self._seed)
        train_papers = list(train_papers)
        by_id = {p.id: p for p in train_papers}
        self._corpus = corpus
        features = self.text_dim * 20
        self._tfidf = (TfIdfIndex(max_features=features).fit(train_papers)
                       if self.vocabulary is None
                       else self.vocabulary.head(features))
        self._vector_cache.clear()

        # Influence statistics from the historical slice only.
        venue_counts: dict[str, list[int]] = {}
        for paper in train_papers:
            if paper.venue is not None:
                venue_counts.setdefault(paper.venue, []).append(
                    corpus.in_degree(paper.id))
        self._venue_rate = {v: float(np.mean(c)) / 10.0
                            for v, c in venue_counts.items()}
        author_cites: dict[str, list[int]] = {}
        for paper in train_papers:
            for author in paper.authors:
                author_cites.setdefault(author, []).append(corpus.in_degree(paper.id))
        self._author_h = {a: float(np.mean(c)) / 10.0
                          for a, c in author_cites.items()}

        dim = self._tfidf.dim + 3
        self.bilinear_ = Linear(dim, 24, bias=False, rng=int(rng.integers(2**31)))
        bias = Linear(24, 1, rng=int(rng.integers(2**31)))
        self._head = bias
        samples = author_citation_pairs(train_papers, self.negative_ratio,
                                        rng=int(rng.integers(2**31)))
        profiles: dict[str, np.ndarray] = {}
        for author in {a for a, _, _ in samples}:
            papers = [p for p in corpus.papers_of_author(author) if p.id in by_id]
            if papers:
                profiles[author] = np.mean([self._vector(p) for p in papers], axis=0)
        # Profile rows, then item rows, in one matrix built once: each
        # batch gathers its stacked [profiles; items] input in one take.
        # Samples whose author has no historical profile (row -1) are
        # skipped.
        profile_rows = {author: row for row, author in enumerate(profiles)}
        user_rows = np.array([profile_rows.get(a, -1) for a, _, _ in samples],
                             dtype=int)
        item_ids = list(dict.fromkeys(pid for a, pid, _ in samples
                                      if a in profiles))
        item_rows_of = {pid: len(profiles) + row
                        for row, pid in enumerate(item_ids)}
        item_rows = np.array([item_rows_of.get(pid, -1) for _, pid, _ in samples],
                             dtype=int)
        rows = np.vstack([np.array(list(profiles.values())),
                          np.array([self._vector(by_id[pid]) for pid in item_ids])])
        sample_labels = np.array([y for _, _, y in samples])
        optimizer = Adam(self.bilinear_.parameters() + bias.parameters(), lr=self.lr)
        order = np.arange(len(samples))
        with single_threaded_blas():
            for _ in range(self.epochs):
                rng.shuffle(order)
                for start in range(0, len(order), self.batch_size):
                    batch = order[start:start + self.batch_size]
                    batch = batch[user_rows[batch] >= 0]
                    if not batch.size:
                        continue
                    bilinear_gradients(
                        self.bilinear_, bias,
                        rows[np.concatenate([user_rows[batch], item_rows[batch]])],
                        sample_labels[batch])
                    optimizer.step()
        return self

    @no_grad()
    def rank(self, user_papers: Sequence[Paper],
             candidates: Sequence[Paper]) -> list[str]:
        if self.bilinear_ is None:
            raise NotFittedError("JTIERecommender.fit must be called first")
        if not candidates:
            return []
        profile = np.mean([self._vector(p) for p in user_papers], axis=0)
        items = np.stack([self._vector(c) for c in candidates])
        u = self.bilinear_(Tensor(profile.reshape(1, -1))).tanh().data
        v = self.bilinear_(Tensor(items)).tanh().data
        scores = self._head(Tensor(u * v)).data.reshape(-1)
        order = np.argsort(-scores, kind="mergesort")
        return [candidates[i].id for i in order]
