"""The shared FakeClock test double itself."""

import pytest

from tests.helpers import FakeClock


def test_manual_clock_is_frozen():
    clock = FakeClock(start=5.0)
    assert clock() == 5.0
    assert clock() == 5.0
    clock.advance(2.5)
    assert clock() == 7.5
    assert clock.calls == 3


def test_tick_auto_advances_after_each_call():
    clock = FakeClock(tick=0.5)
    assert [clock() for _ in range(3)] == [0.0, 0.5, 1.0]


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        FakeClock(tick=-1.0)
    with pytest.raises(ValueError):
        FakeClock().advance(-0.1)
