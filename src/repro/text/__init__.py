"""Text substrate: tokenisation, word/sentence embeddings, CRF labelling.

Replaces the paper's pretrained BERT encoder, Word2Vec keyword vectors, and
BERT+CRF sentence-function tagger with deterministic offline equivalents —
see DESIGN.md section 2 for the substitution rationale.
"""

from repro.text.features import TextFeatures, estimate_syllables, extract_features
from repro.text.sentence_encoder import SentenceEncoder
from repro.text.sequence_labeler import (
    CUE_WORDS,
    SUBSPACE_NAMES,
    SequenceLabeler,
    sentence_features,
)
from repro.text.tokenizer import (
    MAX_SENTENCE_WORDS,
    STOPWORDS,
    sentence_tokens,
    split_sentences,
    tokenize,
)
from repro.text.vocab import UNK_TOKEN, Vocabulary
from repro.text.word_vectors import HashWordVectors

__all__ = [
    "tokenize", "split_sentences", "sentence_tokens",
    "STOPWORDS", "MAX_SENTENCE_WORDS",
    "Vocabulary", "UNK_TOKEN",
    "HashWordVectors",
    "SentenceEncoder",
    "SequenceLabeler", "sentence_features", "SUBSPACE_NAMES", "CUE_WORDS",
    "TextFeatures", "extract_features", "estimate_syllables",
]
