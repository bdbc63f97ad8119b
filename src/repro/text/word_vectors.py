"""Word embedding substrates.

The paper uses pretrained Word2Vec vectors for the keyword rule (Eq. 3) and
BERT token states for abstracts. Offline, :class:`HashWordVectors` gives
deterministic vectors seeded by a stable hash of the word. Any process, any
machine, same word -> same vector. Distinct words get near-orthogonal
directions, so set-overlap structure (the part of Word2Vec geometry the
expert rules actually rely on) is preserved.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro.utils.validation import check_positive


class HashWordVectors:
    """Deterministic pseudo-random unit vectors per word.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    salt:
        Namespace string; two sources with different salts produce
        independent vector families (useful for ablations).
    """

    def __init__(self, dim: int = 64, salt: str = "repro-word") -> None:
        check_positive("dim", dim)
        self.dim = dim
        self.salt = salt
        self._cache: dict[str, np.ndarray] = {}

    def vector(self, word: str) -> np.ndarray:
        """Unit-norm vector for *word*, deterministic across processes."""
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(f"{self.salt}\x00{word}".encode("utf-8"),
                                 digest_size=8).digest()
        seed = int.from_bytes(digest, "little")
        vec = np.random.default_rng(seed).normal(size=self.dim)
        vec /= np.linalg.norm(vec)
        self._cache[word] = vec
        return vec

    def vectors(self, words: Iterable[str]) -> np.ndarray:
        """Stack vectors for *words* into an ``(n, dim)`` matrix."""
        words = list(words)
        if not words:
            return np.zeros((0, self.dim))
        return np.stack([self.vector(word) for word in words])

    def __contains__(self, word: str) -> bool:
        return True  # every word has a vector by construction
