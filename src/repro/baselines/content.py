"""Shared content machinery for baselines: TF-IDF vectors + similarity.

Several baselines need a cheap document representation and a cold-start
bridge (new papers have no interactions, so CF-style methods represent
them through their most content-similar historical papers). This module
centralises both.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.data.schema import Paper
from repro.text.tokenizer import tokenize
from repro.text.vocab import Vocabulary


class TfIdfIndex:
    """TF-IDF document vectors over a fixed vocabulary.

    Fit on the historical corpus; transforms any paper (including new
    ones) into an L2-normalised sparse-ish dense vector.
    """

    def __init__(self, min_count: int = 2, max_features: int = 4000) -> None:
        if max_features < 1:
            raise ValueError("max_features must be >= 1")
        self.min_count = min_count
        self.max_features = max_features
        self.vocabulary_: Vocabulary | None = None
        self.idf_: np.ndarray | None = None

    @staticmethod
    def _tokens(paper: Paper) -> list[str]:
        return tokenize(paper.title + " " + paper.abstract, drop_stopwords=True) \
            + list(paper.keywords)

    def fit(self, papers: Sequence[Paper]) -> "TfIdfIndex":
        """Build the vocabulary and inverse document frequencies."""
        papers = list(papers)
        if not papers:
            raise ValueError("cannot fit TfIdfIndex on an empty corpus")
        documents = [self._tokens(p) for p in papers]
        self.vocabulary_ = Vocabulary.from_documents(documents, min_count=self.min_count)
        doc_freq = Counter()
        for doc in documents:
            doc_freq.update({t for t in doc if t in self.vocabulary_})
        n_docs = len(documents)
        size = min(len(self.vocabulary_), self.max_features)
        idf = np.zeros(size)
        for token in self.vocabulary_:
            idx = self.vocabulary_[token]
            if 0 < idx < size:
                idf[idx] = np.log((1 + n_docs) / (1 + doc_freq[token])) + 1.0
        self.idf_ = idf
        return self

    @classmethod
    def from_terms(cls, terms: Sequence[str], idf: np.ndarray) -> "TfIdfIndex":
        """The index over *terms* in id order with weights *idf*, as
        :attr:`terms` and ``idf_`` of a fitted index give them: its
        transform equals that index's bit for bit."""
        idf = np.asarray(idf, dtype=np.float64)
        if idf.shape != (len(terms),):
            raise ValueError(f"{len(terms)} terms but idf of shape {idf.shape}")
        index = cls(max_features=len(terms))
        index.vocabulary_ = Vocabulary.from_tokens(terms)
        index.idf_ = idf
        return index

    @property
    def terms(self) -> list[str]:
        """The :attr:`dim` terms a transform reads, in id order."""
        if self.vocabulary_ is None:
            raise RuntimeError("TfIdfIndex.fit must be called first")
        return self.vocabulary_.decode(range(self.dim))

    def head(self, n: int) -> "TfIdfIndex":
        """The index over the first *n* terms. Ids are frequency-ordered
        and a term's idf depends only on its own document frequency, so
        this equals a refit with ``max_features=n`` on the same papers."""
        return TfIdfIndex.from_terms(self.terms[:n], self.idf_[:n])

    @property
    def dim(self) -> int:
        """Vector dimensionality (vocabulary size, capped)."""
        if self.idf_ is None:
            raise RuntimeError("TfIdfIndex.fit must be called first")
        return self.idf_.shape[0]

    def transform(self, paper: Paper) -> np.ndarray:
        """TF-IDF vector of one paper (L2-normalised; OOV tokens ignored)."""
        if self.vocabulary_ is None or self.idf_ is None:
            raise RuntimeError("TfIdfIndex.fit must be called first")
        vector = np.zeros(self.dim)
        ids = np.asarray(self.vocabulary_.encode(self._tokens(paper)),
                         dtype=np.int64)
        ids = ids[(ids > 0) & (ids < self.dim)]  # drop <unk> and the cap
        idx, counts = np.unique(ids, return_counts=True)
        vector[idx] = (1.0 + np.log(counts)) * self.idf_[idx]
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def transform_many(self, papers: Sequence[Paper]) -> np.ndarray:
        """Matrix of TF-IDF vectors, shape ``(n, dim)``."""
        return np.stack([self.transform(p) for p in papers])


def content_neighbors(query: np.ndarray, index_matrix: np.ndarray,
                      top_m: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Indices and similarity weights of the *top_m* most similar rows.

    Both inputs are expected L2-normalised; similarity is the dot product
    clipped at zero so dissimilar neighbours get zero weight.
    """
    if top_m < 1:
        raise ValueError("top_m must be >= 1")
    sims = index_matrix @ query
    top_m = min(top_m, sims.shape[0])
    top = np.argpartition(-sims, top_m - 1)[:top_m]
    weights = np.clip(sims[top], 0.0, None)
    if weights.sum() == 0:
        weights = np.ones_like(weights)
    return top, weights / weights.sum()
