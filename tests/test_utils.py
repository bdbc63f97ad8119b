"""Tests for the shared utility helpers (RNG management, validation)."""

import numpy as np
import pytest

from repro.utils import as_generator, check_positive


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        check_positive("x", 0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)
