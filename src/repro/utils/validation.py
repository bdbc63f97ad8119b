"""Small argument-validation helpers used across the library.

They exist to turn silent numerical nonsense (negative dimensions and
the like) into immediate, descriptive exceptions, following the "errors
should never pass silently" principle.
"""

from __future__ import annotations


def check_positive(name: str, value: float, *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless *value* is positive (or >= 0 if not strict)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")

