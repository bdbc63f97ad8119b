"""Tests for the CRF sentence-function labeler and text features."""

import numpy as np
import pytest

from repro.data import load_pubmed_rct, load_scopus
from repro.errors import NotFittedError
from repro.text import (
    SequenceLabeler,
    TextFeatures,
    estimate_syllables,
    extract_features,
    sentence_features,
    split_sentences,
)


@pytest.fixture(scope="module")
def labelled_corpus():
    corpus = load_scopus(scale=0.2, seed=9)
    texts = [p.abstract for p in corpus.papers]
    labels = [list(p.sentence_labels) for p in corpus.papers]
    return texts, labels


class TestSequenceLabeler:
    def test_learns_above_chance(self, labelled_corpus):
        texts, labels = labelled_corpus
        split = int(len(texts) * 0.8)
        labeler = SequenceLabeler(epochs=8, seed=0)
        labeler.fit(texts[:split], labels[:split])
        acc = labeler.accuracy(texts[split:], labels[split:])
        assert acc > 0.75  # cue+position features make this separable

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            SequenceLabeler().predict("Some sentence.")

    def test_label_length_matches_sentences(self, labelled_corpus):
        texts, labels = labelled_corpus
        labeler = SequenceLabeler(epochs=3, seed=0).fit(texts[:50], labels[:50])
        predicted = labeler.predict(texts[60])
        assert len(predicted) == len(split_sentences(texts[60]))

    def test_empty_abstract_predicts_empty(self, labelled_corpus):
        texts, labels = labelled_corpus
        labeler = SequenceLabeler(epochs=2, seed=0).fit(texts[:30], labels[:30])
        assert labeler.predict("") == []

    def test_mismatched_training_data(self):
        with pytest.raises(ValueError):
            SequenceLabeler().fit(["One sentence."], [[0, 1]])
        with pytest.raises(ValueError):
            SequenceLabeler().fit(["a."], [])

    def test_out_of_range_labels(self):
        with pytest.raises(ValueError):
            SequenceLabeler(num_labels=3).fit(["One sentence here."], [[5]])

    def test_pubmed_long_abstracts(self):
        corpus = load_pubmed_rct(scale=0.1, seed=3)
        texts = [p.abstract for p in corpus.papers]
        labels = [list(p.sentence_labels) for p in corpus.papers]
        labeler = SequenceLabeler(epochs=5, seed=1).fit(texts[:40], labels[:40])
        assert labeler.accuracy(texts[40:], labels[40:]) > 0.7


class TestSentenceFeatures:
    def test_shape(self):
        m = sentence_features(["We propose a method.", "Results show gains."])
        assert m.shape[0] == 2
        assert m[-1, 4] == 1.0  # last-sentence indicator

    def test_cue_features_fire(self):
        m = sentence_features(["We propose a novel method and algorithm."])
        method_col = 5 + 1  # background, method, result order
        assert m[0, method_col] > 0


class TestTextFeatures:
    def test_syllables(self):
        assert estimate_syllables("cat") == 1
        assert estimate_syllables("information") >= 3
        assert estimate_syllables("xyz") == 1  # minimum one

    def test_extract_counts(self):
        feats = extract_features("The quick fox jumps. It runs fast.")
        assert feats.sentence_count == 2
        assert feats.word_count == 7
        assert 0 < feats.type_token_ratio <= 1

    def test_empty_text_zero_features(self):
        feats = extract_features("")
        assert feats == TextFeatures(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_flesch_reasonable_range(self):
        feats = extract_features("The cat sat on the mat. The dog ran fast.")
        assert 50 < feats.flesch_reading_ease <= 206.835
