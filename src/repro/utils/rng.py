"""Deterministic random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed or
a ready :class:`numpy.random.Generator`. :func:`as_generator` normalises
both into a ``Generator`` so downstream code never touches the legacy
global numpy RNG, keeping all experiments reproducible end to end.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np

#: Anything accepted as a seed: an int, a ready generator, or ``None``
#: for a fresh nondeterministic stream.
SeedLike: TypeAlias = int | np.random.Generator | None


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` yields a fresh nondeterministic generator, an ``int`` yields a
    seeded PCG64 generator, and an existing ``Generator`` is passed through
    unchanged (so a caller can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

