"""Tokenisation utilities for abstracts, titles, and keywords.

The paper feeds abstracts to BERT sentence by sentence, with sentences
truncated to 30 words. This module mirrors those mechanics: sentence
splitting on terminal punctuation, lowercase word tokenisation, stopword
filtering, and the 30-word cap exposed as ``max_sentence_words``.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9\-']*")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

#: Minimal English stopword list — enough to keep TF-IDF and keyword
#: similarity meaningful on synthetic abstracts without external data.
STOPWORDS = frozenset(
    """a an the and or but if then else of in on at to from by for with about
    into through during before after above below up down out over under again
    we our they their this that these those is are was were be been being has
    have had do does did can could will would should may might must it its as
    not no nor so than too very s t just don now""".split()
)

#: Default truncation used by the paper's encoder ("length of the sentence
#: is set to 30 words").
MAX_SENTENCE_WORDS = 30


def tokenize(text: str, *, drop_stopwords: bool = False) -> list[str]:
    """Lowercase word tokens of *text*, optionally minus stopwords."""
    tokens = [match.group(0).lower() for match in _WORD_RE.finditer(text)]
    if drop_stopwords:
        tokens = [token for token in tokens if token not in STOPWORDS]
    return tokens


def split_sentences(text: str) -> list[str]:
    """Split *text* into sentences on ``.!?`` boundaries, dropping blanks."""
    parts = _SENTENCE_RE.split(text.strip())
    return [part.strip() for part in parts if part.strip()]


def sentence_tokens(
    text: str,
    *,
    max_words: int = MAX_SENTENCE_WORDS,
    drop_stopwords: bool = False,
) -> list[list[str]]:
    """Tokenise *text* sentence-by-sentence, truncating to *max_words*."""
    if max_words <= 0:
        raise ValueError(f"max_words must be positive, got {max_words}")
    return [tokenize(sentence, drop_stopwords=drop_stopwords)[:max_words]
            for sentence in split_sentences(text)]
