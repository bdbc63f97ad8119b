"""Process-wide holds on single-threaded BLAS.

numpy's bundled OpenBLAS keeps a pool of worker threads for its matrix
products. The products in this code base are small (a training batch's
GCN folds, a query's interest rows against a pool block), so a second
thread buys little wall time: it wakes for each product and spins until
its timeout, which doubled the CPU of a training fit and of an exact
query, and cost about 25 ms of CPU per served request. The count is
process-wide in OpenBLAS, so it is pinned by holds that nest: the first
hold sets one thread and the last release restores the count the first
one saw. Training holds one for its epochs
(:func:`repro.resilience.checkpoint.run_epochs`), JTIE's profile-text
fit one for its training loop
(:meth:`repro.baselines.neural.JTIERecommender.fit`, where a second
thread cost about 60% more CPU for a wall time within the run-to-run
spread), every live :class:`~repro.serve.scheduler.BatchScheduler` one
for its life, and every
:meth:`~repro.serve.index.ServingIndex.batch_top_k` and
:meth:`~repro.serve.index.ServingIndex.register_user` call one for its
length (nested in a live scheduler's, it never reaches the library).
Ingest and artifact load hold none. While a hold is
live, other threads' products run on one thread too: each comes out
whole, though for some shapes OpenBLAS rounds differently on one thread
than on several. Where no OpenBLAS is found the holds do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


@functools.cache
def _openblas() -> "tuple[Callable[[], int], Callable[[int], None]] | None":
    """(get, set) of numpy's bundled OpenBLAS thread count, or None when
    the library (``numpy.libs/libscipy_openblas64_*.so``) or its
    symbols are not there."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_blas_lock = threading.Lock()
_blas_pins = 0
#: The count the last release restores; None while unpinned or where no
#: OpenBLAS was found.
_blas_restore: int | None = None


def pin_blas() -> None:
    """Take one hold on single-threaded BLAS; the first hold pins it."""
    global _blas_pins, _blas_restore
    with _blas_lock:
        blas = _openblas()
        if _blas_pins == 0 and blas is not None:
            _blas_restore = blas[0]()
            blas[1](1)
        _blas_pins += 1


def release_blas() -> None:
    """Drop one hold; the last restores the count the first one saw."""
    global _blas_pins, _blas_restore
    with _blas_lock:
        _blas_pins -= 1
        if _blas_pins == 0 and _blas_restore is not None:
            _openblas()[1](_blas_restore)
            _blas_restore = None


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the body with numpy's OpenBLAS on one thread (one hold)."""
    pin_blas()
    try:
        yield
    finally:
        release_blas()


def blas_threads() -> int | None:
    """The live OpenBLAS thread count, or None where none was found."""
    blas = _openblas()
    return None if blas is None else blas[0]()
