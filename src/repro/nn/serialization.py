"""Loading module weights from ``.npz`` archives."""

from __future__ import annotations

import os

import numpy as np

from repro.nn.layers import Module


def load_module(module: Module, path: str | os.PathLike) -> Module:
    """Load an ``.npz`` archive of a ``state_dict`` into *module* (strict).

    Every archive key must match a module parameter by name *and* shape.
    Validation happens before any parameter is written, so a mismatched
    archive (e.g. weights saved from a differently-sized architecture)
    raises a clear error naming the archive and the offending parameters
    while leaving *module* untouched — weights are never silently
    broadcast or partially overwritten.
    """
    path = os.fspath(path)
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files}
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        kind = type(module).__name__
        raise type(exc)(
            f"cannot load {path!r} into {kind}: {exc}") from exc
    return module
