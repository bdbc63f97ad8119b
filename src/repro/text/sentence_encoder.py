"""A deterministic "pretrained" sentence encoder (BERT-base substitute).

The paper encodes each abstract sentence with frozen BERT-base into a
768-dimensional vector and fine-tunes downstream networks on top. SEM does
not depend on BERT internals — only on a *fixed* sentence-to-vector map
whose geometry reflects lexical and topical content. This module provides
such a map, fully offline and deterministic:

1. every word gets a stable hash-seeded unit vector
   (:class:`~repro.text.word_vectors.HashWordVectors`);
2. sentence vectors are smooth-inverse-frequency weighted averages
   (Arora et al., 2017), so rare topical words dominate function words;
3. a fixed random rotation + tanh adds a mild nonlinearity so distances do
   not collapse to pure bag-of-words.

The default dimensionality is configurable (the paper uses 768; our
experiments default to 64 for speed — the relative geometry is unchanged).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.text.tokenizer import MAX_SENTENCE_WORDS, sentence_tokens, tokenize
from repro.text.word_vectors import HashWordVectors
from repro.utils.validation import check_positive


class SentenceEncoder:
    """Frozen sentence encoder with a BERT-like interface.

    Parameters
    ----------
    dim:
        Output sentence-vector dimensionality.
    sif_a:
        Smooth-inverse-frequency constant; lower values down-weight
        frequent words more aggressively.
    max_words:
        Truncate each sentence to this many tokens (paper: 30).
    seed:
        Seed of the fixed rotation matrix (part of the "pretrained"
        identity of the encoder).
    """

    def __init__(self, dim: int = 64, sif_a: float = 1e-2,
                 max_words: int = MAX_SENTENCE_WORDS, seed: int = 7) -> None:
        check_positive("dim", dim)
        check_positive("sif_a", sif_a)
        self.dim = dim
        self.sif_a = sif_a
        self.max_words = max_words
        self._words = HashWordVectors(dim=dim, salt="repro-encoder")
        rng = np.random.default_rng(seed)
        # A fixed random orthogonal rotation: QR of a Gaussian matrix.
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        self._rotation = q
        self._frequency: Counter[str] = Counter()
        self._total_words = 1

    # ------------------------------------------------------------------
    # Frequency statistics ("pretraining" corpus statistics)
    # ------------------------------------------------------------------
    def fit_frequencies(self, texts: Sequence[str]) -> "SentenceEncoder":
        """Record corpus word frequencies used for SIF weighting.

        Optional: without it all words share the default weight. Mirrors
        the fact that BERT's behaviour bakes in corpus statistics.
        """
        for text in texts:
            self._frequency.update(tokenize(text))
        self._total_words = max(1, sum(self._frequency.values()))
        return self

    def _sif_weight(self, word: str) -> float:
        probability = self._frequency[word] / self._total_words
        return self.sif_a / (self.sif_a + probability)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Encode a single tokenised sentence into a ``(dim,)`` vector."""
        tokens = list(tokens)[: self.max_words]
        if not tokens:
            return np.zeros(self.dim)
        weights = np.array([self._sif_weight(token) for token in tokens])
        vectors = self._words.vectors(tokens)
        pooled = (weights[:, None] * vectors).sum(axis=0) / weights.sum()
        return np.tanh(self._rotation @ pooled)

    def encode(self, text: str) -> np.ndarray:
        """Encode *text* into an ``(n_sentences, dim)`` matrix.

        This is the analogue of the paper's ``H = h_1, ..., h_n`` BERT
        output for an abstract. Empty text yields a ``(0, dim)`` array.
        """
        sentences = sentence_tokens(text, max_words=self.max_words)
        if not sentences:
            return np.zeros((0, self.dim))
        return np.stack([self.encode_tokens(tokens) for tokens in sentences])
