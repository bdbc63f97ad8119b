"""Linguistic / writing-quality features for the CLT and CSJ baselines.

CLT [4] scores papers on readability, fluency, and semantic complexity;
CSJ [1] scores on expert linguistic indicators from science journalism.
Both reduce to feature extraction over the raw text; this module provides
the shared feature battery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.text.tokenizer import STOPWORDS, split_sentences, tokenize

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


def estimate_syllables(word: str) -> int:
    """Rough syllable count: number of vowel groups, minimum one."""
    return max(1, len(_VOWEL_GROUP_RE.findall(word.lower())))


@dataclass(frozen=True)
class TextFeatures:
    """Bundle of writing-quality indicators for one document."""

    sentence_count: int
    word_count: int
    avg_sentence_length: float
    avg_word_length: float
    type_token_ratio: float
    stopword_ratio: float
    flesch_reading_ease: float
    long_word_ratio: float
    lexical_density: float


def extract_features(text: str) -> TextFeatures:
    """Compute :class:`TextFeatures` for *text*.

    Empty text yields all-zero features (a paper with no abstract carries
    no writing-quality signal).
    """
    sentences = split_sentences(text)
    words = tokenize(text)
    if not words or not sentences:
        return TextFeatures(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    word_count = len(words)
    sentence_count = len(sentences)
    syllables = sum(estimate_syllables(word) for word in words)
    avg_sentence_length = word_count / sentence_count
    avg_syllables = syllables / word_count
    flesch = 206.835 - 1.015 * avg_sentence_length - 84.6 * avg_syllables
    stop = sum(1 for word in words if word in STOPWORDS)
    return TextFeatures(
        sentence_count=sentence_count,
        word_count=word_count,
        avg_sentence_length=avg_sentence_length,
        avg_word_length=float(np.mean([len(word) for word in words])),
        type_token_ratio=len(set(words)) / word_count,
        stopword_ratio=stop / word_count,
        flesch_reading_ease=flesch,
        long_word_ratio=sum(1 for word in words if len(word) >= 8) / word_count,
        lexical_density=1.0 - stop / word_count,
    )
