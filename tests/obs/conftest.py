"""Fixtures for the observability tests: isolate the global obs state."""

import pytest

from repro import obs


@pytest.fixture
def obs_enabled():
    """Enable observability for one test, restoring the default after."""
    state = obs.configure(enabled=True, reset=True)
    try:
        yield state
    finally:
        obs.configure(enabled=False, reset=True)


@pytest.fixture
def obs_disabled():
    """Guarantee the default (disabled, empty) state around a test."""
    state = obs.configure(enabled=False, reset=True)
    try:
        yield state
    finally:
        obs.configure(enabled=False, reset=True)


@pytest.fixture
def clean_slos():
    """Run a test against an empty global SLO registry, restoring after."""
    previous = obs.slo.registered_slos()
    obs.slo.clear_slos()
    try:
        yield
    finally:
        obs.slo.clear_slos()
        for item in previous:
            obs.slo.register_slo(item)
