"""Fixtures shared across test packages."""

import contextlib
import io
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.resilience import staging


class Crash(BaseException):
    """A simulated kill: no handler in the program catches it."""


@contextlib.contextmanager
def _crash_at(point):
    """Crash the staged writer at its *point*-th event (0-based), or at
    the first event named *point*.

    The events are every file write and every rename that
    :mod:`repro.resilience.staging` makes, named ``write <file name>``
    and ``rename <source name>``. A crashing write leaves the
    first half of its bytes, as a torn write would. Yields a namespace
    whose ``events`` lists the events seen and whose ``crashed`` says
    whether the crash fired (``point=None`` only counts).
    """
    run = SimpleNamespace(events=[], crashed=False)
    write, replace = staging._write, os.replace

    def due(name):
        run.events.append(name)
        return point in (len(run.events) - 1, name)

    def crashing_write(path, payload):
        if due(f"write {path.name}"):
            buffer = io.BytesIO()
            payload(buffer)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(buffer.getvalue()[:len(buffer.getvalue()) // 2])
            raise Crash(path)
        write(path, payload)

    def crashing_replace(src, dst):
        if due(f"rename {Path(src).name}"):
            raise Crash(src)
        replace(src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(staging, "_write", crashing_write)
        patch.setattr(staging.os, "replace", crashing_replace)
        try:
            yield run
        except Crash:
            run.crashed = True


@pytest.fixture
def crash_at():
    """The :func:`_crash_at` context manager."""
    return _crash_at
