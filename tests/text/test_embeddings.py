"""Tests for word vectors and the sentence encoder."""

import numpy as np
import pytest

from repro.text import HashWordVectors, SentenceEncoder, tokenize


class TestHashWordVectors:
    def test_deterministic(self):
        a = HashWordVectors(dim=16).vector("transformer")
        b = HashWordVectors(dim=16).vector("transformer")
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        vec = HashWordVectors(dim=32).vector("graph")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_distinct_words_nearly_orthogonal(self):
        wv = HashWordVectors(dim=256)
        sims = [
            abs(float(wv.vector(f"word{i}") @ wv.vector(f"word{i + 1}")))
            for i in range(20)
        ]
        assert max(sims) < 0.35

    def test_salt_changes_family(self):
        a = HashWordVectors(dim=16, salt="x").vector("cat")
        b = HashWordVectors(dim=16, salt="y").vector("cat")
        assert not np.allclose(a, b)

    def test_vectors_shape_and_empty(self):
        wv = HashWordVectors(dim=8)
        assert wv.vectors(["a", "b"]).shape == (2, 8)
        assert wv.vectors([]).shape == (0, 8)

    def test_contains_everything(self):
        assert "anything" in HashWordVectors()


class TestSentenceEncoder:
    def test_shape_and_determinism(self):
        enc = SentenceEncoder(dim=32)
        a = enc.encode_tokens(tokenize("We propose a novel method for ranking."))
        b = SentenceEncoder(dim=32).encode_tokens(
            tokenize("We propose a novel method for ranking."))
        assert a.shape == (32,)
        np.testing.assert_array_equal(a, b)

    def test_encode_matrix_per_sentence(self):
        enc = SentenceEncoder(dim=16)
        out = enc.encode("First sentence here. Second sentence there.")
        assert out.shape == (2, 16)

    def test_empty_text(self):
        enc = SentenceEncoder(dim=16)
        assert enc.encode("").shape == (0, 16)

    def test_similar_sentences_closer_than_different(self):
        enc = SentenceEncoder(dim=64)
        a = enc.encode_tokens(tokenize("graph neural networks for recommendation"))
        b = enc.encode_tokens(tokenize("graph neural models for recommendation"))
        c = enc.encode_tokens(tokenize("protein folding in mitochondrial cells"))
        assert np.linalg.norm(a - b) < np.linalg.norm(a - c)

    def test_fit_frequencies_downweights_common_words(self):
        texts = ["the cat sat"] * 50 + ["quantum entanglement observed"]
        enc = SentenceEncoder(dim=64).fit_frequencies(texts)
        with_rare = enc.encode_tokens(tokenize("the quantum result"))
        base = SentenceEncoder(dim=64)
        # after frequency fitting, "the" contributes less; vectors differ
        assert not np.allclose(with_rare,
                               base.encode_tokens(tokenize("the quantum result")))

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            SentenceEncoder(dim=0)
