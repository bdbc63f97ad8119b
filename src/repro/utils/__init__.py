"""Shared utilities: seeded RNG management, validation helpers, and IO."""

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["as_generator", "check_positive"]
