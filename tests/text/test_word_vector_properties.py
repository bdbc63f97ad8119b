"""Additional coverage: sentence-encoder interaction details."""

import numpy as np

from repro.text import SentenceEncoder, tokenize


class TestEncoderDetails:
    def test_max_words_truncation_changes_vector(self):
        short = SentenceEncoder(dim=16, max_words=3)
        full = SentenceEncoder(dim=16, max_words=30)
        sentence = "one two three four five six seven eight"
        a = short.encode_tokens(tokenize(sentence))
        b = full.encode_tokens(tokenize(sentence))
        assert not np.allclose(a, b)

    def test_seed_changes_rotation(self):
        a = SentenceEncoder(dim=16, seed=1).encode_tokens(tokenize("graph networks"))
        b = SentenceEncoder(dim=16, seed=2).encode_tokens(tokenize("graph networks"))
        assert not np.allclose(a, b)

    def test_output_bounded_by_tanh(self):
        enc = SentenceEncoder(dim=16)
        vec = enc.encode_tokens(tokenize("some words in a sentence here"))
        assert np.all(np.abs(vec) <= 1.0)

    def test_fit_frequencies_returns_self(self):
        enc = SentenceEncoder(dim=8)
        assert enc.fit_frequencies(["a b c"]) is enc
