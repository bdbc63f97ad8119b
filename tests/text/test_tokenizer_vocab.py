"""Tests for tokenisation, sentence splitting, and the vocabulary."""

import pytest

from repro.text import (
    UNK_TOKEN,
    Vocabulary,
    sentence_tokens,
    split_sentences,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Hello, World! 42") == ["hello", "world"]

    def test_keeps_hyphens_and_apostrophes(self):
        assert tokenize("state-of-the-art doesn't") == ["state-of-the-art", "doesn't"]

    def test_drop_stopwords(self):
        assert tokenize("the model of choice", drop_stopwords=True) == ["model", "choice"]

    def test_empty(self):
        assert tokenize("") == []


class TestSentences:
    def test_split_on_terminal_punctuation(self):
        text = "First here. Second there! Third one?"
        assert split_sentences(text) == ["First here.", "Second there!", "Third one?"]

    def test_no_trailing_blank(self):
        assert split_sentences("One sentence.") == ["One sentence."]

    def test_empty_text(self):
        assert split_sentences("   ") == []

    def test_sentence_tokens_truncates(self):
        text = " ".join(["word"] * 50) + "."
        tokens = sentence_tokens(text, max_words=30)
        assert len(tokens) == 1
        assert len(tokens[0]) == 30

    def test_sentence_tokens_bad_max(self):
        with pytest.raises(ValueError):
            sentence_tokens("a b.", max_words=0)


class TestVocabulary:
    def test_build_orders_by_frequency(self):
        vocab = Vocabulary.from_documents([["b", "a", "a"], ["a", "c", "b"]])
        assert vocab["a"] == 1  # most frequent after <unk>
        assert vocab.decode([0]) == [UNK_TOKEN]

    def test_min_count_filters(self):
        vocab = Vocabulary.from_documents([["a", "a", "b"]], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.encode(["b"]) == [0]

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary.from_documents([["x", "y", "z"]])
        ids = vocab.encode(["x", "z"])
        assert vocab.decode(ids) == ["x", "z"]

    def test_len_and_iter(self):
        vocab = Vocabulary.from_documents([["a", "b"]])
        assert len(vocab) == 3  # unk + 2
        assert list(vocab)[0] == UNK_TOKEN

    def test_bad_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary(min_count=0)

    def test_deterministic_tie_break(self):
        v1 = Vocabulary.from_documents([["b", "a"]])
        v2 = Vocabulary.from_documents([["a", "b"]])
        assert list(v1) == list(v2)
