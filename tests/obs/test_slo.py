"""SLO evaluation, rolling-window burn rates, registry."""

import pytest

from repro import obs
from repro.obs.slo import (
    ErrorRateSLO,
    LatencySLO,
    SLOMonitor,
    SLOStatus,
    default_serving_slos,
    evaluate_registered,
    register_slo,
    registered_slos,
    unregister_slo,
)
from repro.obs.testing import FakeClock


class TestLatencySLO:
    def test_no_data_is_ok(self, obs_enabled):
        status = LatencySLO("s", metric="absent.latency").evaluate()
        assert status.ok and status.no_data
        assert status.observed is None

    def test_breach_and_pass(self, obs_enabled):
        slo = LatencySLO("s", metric="m.latency", quantile=0.99,
                         threshold=0.1)
        for _ in range(20):
            obs.observe_quantile("m.latency", 0.01)
        assert slo.evaluate().ok
        for _ in range(20):
            obs.observe_quantile("m.latency", 0.5)
        status = slo.evaluate()
        assert not status.ok
        assert status.observed > 0.1
        assert "p99" in status.detail

    def test_worst_label_set_is_judged(self, obs_enabled):
        slo = LatencySLO("s", metric="m.latency", threshold=0.1)
        obs.observe_quantile("m.latency", 0.01, route="fast")
        obs.observe_quantile("m.latency", 0.9, route="slow")
        status = slo.evaluate()
        assert not status.ok
        assert status.observed == pytest.approx(0.9)

    def test_untracked_quantile_falls_back_upward(self, obs_enabled):
        # Objective at p95; family only tracks p50/p90/p99 -> judge p99.
        obs.get_registry().quantile("m.latency").observe(0.2)
        status = LatencySLO("s", metric="m.latency", quantile=0.95,
                            threshold=0.1).evaluate()
        assert not status.ok

    def test_validation(self):
        with pytest.raises(ValueError, match="quantile"):
            LatencySLO("s", metric="m", quantile=1.5)
        with pytest.raises(ValueError, match="threshold"):
            LatencySLO("s", metric="m", threshold=0.0)


class TestErrorRateSLO:
    def test_no_traffic_is_ok(self, obs_enabled):
        status = ErrorRateSLO("s", numerator="errs",
                              denominator="reqs").evaluate()
        assert status.ok and status.no_data

    def test_lifetime_budget(self, obs_enabled):
        slo = ErrorRateSLO("s", numerator="errs", denominator="reqs",
                           budget=0.05)
        obs.count("reqs", 100)
        obs.count("errs", 2)
        status = slo.evaluate()
        assert status.ok
        assert status.burn_rate == pytest.approx(0.4)
        obs.count("errs", 8)
        status = slo.evaluate()
        assert not status.ok
        assert status.observed == pytest.approx(0.1)
        assert status.burn_rate == pytest.approx(2.0)

    def test_label_sets_sum_into_the_budget(self, obs_enabled):
        obs.count("reqs", 10)
        obs.count("errs", 1, reason="timeout")
        obs.count("errs", 1, reason="corrupt")
        status = ErrorRateSLO("s", numerator="errs", denominator="reqs",
                              budget=0.1).evaluate()
        assert not status.ok
        assert status.observed == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            ErrorRateSLO("s", numerator="a", denominator="b", budget=1.0)
        with pytest.raises(ValueError, match="window"):
            ErrorRateSLO("s", numerator="a", denominator="b", window=0.0)


class TestSLOMonitor:
    def test_windowed_burn_rate_recovers(self, obs_enabled):
        clock = FakeClock()
        slo = ErrorRateSLO("s", numerator="errs", denominator="reqs",
                           budget=0.05, window=60.0)
        monitor = SLOMonitor([slo], clock=clock)
        obs.count("reqs", 100)
        assert monitor.check()[0].no_data  # first sample: empty window

        obs.count("errs", 50)
        obs.count("reqs", 50)
        clock.advance(10)
        assert not monitor.check()[0].ok  # 50/50 errors inside the window

        # An hour later the bad minute has rolled out of the window;
        # fresh traffic is clean, so the SLO recovers even though the
        # lifetime totals stay bad.
        clock.advance(3600)
        obs.count("reqs", 100)
        status = monitor.check()[0]
        assert status.ok
        assert ErrorRateSLO.evaluate(slo).ok is False  # lifetime view

    def test_check_flags_only_breaches(self, obs_enabled):
        clock = FakeClock()
        slo = ErrorRateSLO("s", numerator="errs", denominator="reqs",
                           budget=0.05, window=60.0)
        monitor = SLOMonitor([slo], clock=clock)
        obs.count("reqs", 100)
        (first,) = monitor.check()
        assert isinstance(first, SLOStatus) and first.ok
        obs.count("errs", 50)
        obs.count("reqs", 50)
        clock.advance(1)
        (second,) = monitor.check()
        assert second.slo == "s" and not second.ok
        assert second.burn_rate == pytest.approx((50 / 50) / 0.05)

    def test_latency_slos_use_current_sketch(self, obs_enabled):
        monitor = SLOMonitor([LatencySLO("s", metric="m.latency",
                                         threshold=0.1)],
                             clock=FakeClock())
        obs.observe_quantile("m.latency", 5.0)
        assert not monitor.check()[0].ok


class TestRegistry:
    def test_register_evaluate_unregister(self, obs_enabled, clean_slos):
        slo = LatencySLO("mine", metric="m.latency", threshold=0.1)
        register_slo(slo)
        assert registered_slos() == [slo]
        obs.observe_quantile("m.latency", 9.0)
        statuses = evaluate_registered()
        assert len(statuses) == 1 and not statuses[0].ok
        unregister_slo("mine")
        assert registered_slos() == []

    def test_replace_false_keeps_existing(self, clean_slos):
        mine = LatencySLO("serve.query.p99", metric="m", threshold=9.0)
        register_slo(mine)
        for default in default_serving_slos():
            register_slo(default, replace=False)
        by_name = {s.name: s for s in registered_slos()}
        assert by_name["serve.query.p99"] is mine  # operator override wins
        assert "serve.error_budget" in by_name

    def test_default_serving_slos_cover_the_issue(self):
        defaults = {s.name: s for s in default_serving_slos()}
        assert defaults["serve.query.p99"].metric == "serve.query.latency"
        assert defaults["serve.error_budget"].numerator == "serve.degraded"
