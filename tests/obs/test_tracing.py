"""Tests for span tracing and the disabled-mode no-op fast path."""

import threading
import time

import pytest

from repro import obs
from repro.obs.tracing import Tracer


class TestDisabledFastPath:
    def test_trace_returns_shared_noop_singleton(self, obs_disabled):
        # The disabled path must not allocate: every call hands back the
        # same inert context manager object.
        assert obs.trace("a") is obs.trace("b") is obs.NOOP_CONTEXT

    def test_disabled_records_nothing(self, obs_disabled):
        with obs.trace("invisible") as span:
            span.set("key", "value")  # must be a harmless no-op
            obs.count("invisible.counter")
            obs.gauge("invisible.gauge", 1.0)
            obs.observe_quantile("invisible.latency", 0.5)
        assert obs.get_tracer().spans == []
        assert len(obs.get_registry()) == 0

    def test_disabled_overhead_is_tiny(self, obs_disabled):
        # Generous bound (20us/call) — the point is that the no-op path
        # cannot regress into doing real work or allocating span records.
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            with obs.trace("hot"):
                pass
            obs.count("hot.counter")
        elapsed = time.perf_counter() - start
        assert elapsed < n * 20e-6, f"no-op path too slow: {elapsed:.3f}s for {n} calls"
        assert obs.get_tracer().spans == []


class TestEnabledTracing:
    def test_nested_spans_record_hierarchy(self, obs_enabled):
        with obs.trace("outer", run=1) as outer:
            time.sleep(0.002)
            with obs.trace("inner") as inner:
                inner.set("k", "v")
                time.sleep(0.001)
        spans = obs.get_tracer().ordered()
        assert [s.name for s in spans] == ["outer", "inner"]
        out, inn = spans
        assert out.depth == 0 and out.parent is None
        assert inn.depth == 1 and inn.parent == out.index
        assert inn.duration > 0
        assert out.duration >= inn.duration
        assert out.attrs == {"run": 1}
        assert inn.attrs == {"k": "v"}

    def test_exception_closes_span_and_marks_error(self, obs_enabled):
        with pytest.raises(RuntimeError):
            with obs.trace("failing"):
                raise RuntimeError("boom")
        tracer = obs.get_tracer()
        assert tracer.open_depth == 0
        (span,) = tracer.spans
        assert span.attrs["error"] == "RuntimeError"

    def test_instrumented_function_raising_never_leaks_depth(self, obs_enabled):
        # Regression: an instrumented function that raises from a nested
        # region must leave the tracer balanced so the *next* capture on
        # the same process starts clean.
        def instrumented():
            with obs.trace("fn.outer"):
                with obs.trace("fn.inner"):
                    raise ValueError("deep failure")

        for _ in range(2):  # twice: a leak would trip the second pass
            with pytest.raises(ValueError, match="deep failure"):
                instrumented()
            assert obs.get_tracer().open_depth == 0
        by_name = {s.name: s for s in obs.get_tracer().spans}
        assert by_name["fn.inner"].attrs["error"] == "ValueError"
        assert by_name["fn.outer"].attrs["error"] == "ValueError"
        obs.configure(reset=True)  # balanced tracer: reset must succeed

    def test_exception_unwinds_leaked_raw_children(self, obs_enabled):
        # A raw tracer.start() child left open by the raising region used
        # to make __exit__'s finish() raise (masking the real error) and
        # leak open_depth. unwind_to closes it, tagged as leaked.
        tracer = obs.get_tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with obs.trace("outer"):
                tracer.start("leaked.child")
                raise RuntimeError("boom")
        assert tracer.open_depth == 0
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["leaked.child"].attrs["leaked"] is True
        assert by_name["outer"].attrs["error"] == "RuntimeError"

    def test_aggregate_statistics(self, obs_enabled):
        for _ in range(3):
            with obs.trace("repeated"):
                pass
        stats = obs.get_tracer().aggregate()["repeated"]
        assert stats.calls == 3
        assert stats.total >= stats.max >= stats.min >= 0
        assert stats.mean == pytest.approx(stats.total / 3)


class TestTracerInvariants:
    def test_out_of_order_finish_rejected(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(RuntimeError, match="nesting violated"):
            tracer.finish(outer)

    def test_reset_with_open_span_rejected(self):
        tracer = Tracer()
        tracer.start("open")
        with pytest.raises(RuntimeError, match="open span"):
            tracer.reset()

    def test_reset_with_open_span_on_another_thread_rejected(self):
        # The span stacks are thread-local; reset must still see spans
        # held open by *other* threads, or they would later finish into
        # the cleared list with stale parent indexes and a new epoch.
        tracer = Tracer()
        opened = threading.Event()
        release = threading.Event()

        def worker():
            record = tracer.start("other-thread")
            opened.set()
            release.wait(timeout=5)
            tracer.finish(record)

        thread = threading.Thread(target=worker)
        thread.start()
        assert opened.wait(timeout=5)
        with pytest.raises(RuntimeError, match="open span"):
            tracer.reset()
        release.set()
        thread.join(timeout=5)
        tracer.reset()  # balanced again once the worker finished
        assert tracer.spans == []

    def test_reset_clears_and_restarts_indices(self):
        tracer = Tracer()
        tracer.finish(tracer.start("a"))
        tracer.reset()
        assert tracer.spans == []
        record = tracer.start("b")
        assert record.index == 0

    def test_unwind_to_closes_children_innermost_first(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("mid")
        tracer.start("deep")
        tracer.unwind_to(outer)
        assert tracer.open_depth == 0
        names = [s.name for s in tracer.spans]
        assert names == ["deep", "mid", "outer"]  # innermost finished first
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["deep"].attrs["leaked"] is True
        assert by_name["mid"].attrs["leaked"] is True
        assert "leaked" not in by_name["outer"].attrs

    def test_unwind_to_unopened_span_rejected(self):
        tracer = Tracer()
        closed = tracer.start("closed")
        tracer.finish(closed)
        with pytest.raises(RuntimeError, match="not open"):
            tracer.unwind_to(closed)
