"""Vocabulary: token <-> id mapping with frequency tracking."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

UNK_TOKEN = "<unk>"


class Vocabulary:
    """Bidirectional token/id map built from token streams.

    Index 0 is reserved for the unknown token. Iteration order (and thus id
    assignment) is deterministic: tokens sorted by descending frequency then
    alphabetically.
    """

    def __init__(self, min_count: int = 1) -> None:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.min_count = min_count
        self._counts: Counter[str] = Counter()
        self._token_to_id: dict[str, int] = {UNK_TOKEN: 0}
        self._id_to_token: list[str] = [UNK_TOKEN]

    # ------------------------------------------------------------------
    def update(self, tokens: Iterable[str]) -> None:
        """Count *tokens* into the frequency table (does not assign ids)."""
        self._counts.update(tokens)

    def build(self) -> "Vocabulary":
        """Freeze ids for every counted token meeting ``min_count``."""
        self._token_to_id = {UNK_TOKEN: 0}
        self._id_to_token = [UNK_TOKEN]
        eligible = [(token, count) for token, count in self._counts.items()
                    if count >= self.min_count]
        for token, _ in sorted(eligible, key=lambda item: (-item[1], item[0])):
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self

    @classmethod
    def from_documents(cls, documents: Iterable[Iterable[str]], min_count: int = 1) -> "Vocabulary":
        """Build a vocabulary in one shot from an iterable of token lists."""
        vocab = cls(min_count=min_count)
        for document in documents:
            vocab.update(document)
        return vocab.build()

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        """A frozen vocabulary whose ids are the positions of *tokens*
        (``tokens[0]`` is the unknown token), as :meth:`decode` lists
        them; it holds no frequency counts."""
        if not tokens or tokens[0] != UNK_TOKEN:
            raise ValueError(f"tokens must start with {UNK_TOKEN!r}")
        vocab = cls()
        vocab._id_to_token = list(tokens)
        vocab._token_to_id = {token: i for i, token in enumerate(tokens)}
        return vocab

    # ------------------------------------------------------------------
    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to ids, sending unknown tokens to id 0."""
        return [self._token_to_id.get(token, 0) for token in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map ids back to tokens."""
        return [self._id_to_token[i] for i in ids]

    def count(self, token: str) -> int:
        """Raw frequency of *token* seen so far."""
        return self._counts[token]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    def __getitem__(self, token: str) -> int:
        return self._token_to_id.get(token, 0)
