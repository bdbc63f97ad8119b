"""Exemplar reservoir bounds, request contexts, and trace-ID joins."""

import json

import pytest

from repro import obs
from repro.obs.exemplars import Exemplar, ExemplarReservoir


def make(trace_id, duration, error=None):
    return Exemplar(trace_id=trace_id, name="req", duration=duration,
                    error=error)


class TestReservoirBounds:
    def test_keeps_slowest_n(self):
        reservoir = ExemplarReservoir(slow_capacity=3, error_capacity=4)
        for i, duration in enumerate([0.1, 0.5, 0.2, 0.9, 0.05, 0.7]):
            reservoir.offer(make(f"t{i}", duration))
        slowest = reservoir.slowest()
        assert [e.duration for e in slowest] == [0.9, 0.7, 0.5]
        assert reservoir.offered == 6
        assert len(reservoir) == 3

    def test_fast_request_rejected_when_full(self):
        reservoir = ExemplarReservoir(slow_capacity=2, error_capacity=2)
        assert reservoir.offer(make("a", 0.5))
        assert reservoir.offer(make("b", 0.6))
        assert not reservoir.offer(make("c", 0.1))  # faster than both
        assert {e.trace_id for e in reservoir.slowest()} == {"a", "b"}

    def test_errors_keep_most_recent(self):
        reservoir = ExemplarReservoir(slow_capacity=2, error_capacity=2)
        for i in range(4):
            # Duration 0: would never survive on slowness, always
            # survives on error.
            assert reservoir.offer(make(f"e{i}", 0.0, error="boom"))
        errored = reservoir.errored()
        assert [e.trace_id for e in errored] == ["e3", "e2"]

    def test_errors_do_not_consume_slow_slots(self):
        reservoir = ExemplarReservoir(slow_capacity=1, error_capacity=1)
        reservoir.offer(make("slow", 1.0))
        reservoir.offer(make("err", 2.0, error="boom"))
        assert [e.trace_id for e in reservoir.slowest()] == ["slow"]
        assert [e.trace_id for e in reservoir.errored()] == ["err"]

    def test_reset(self):
        reservoir = ExemplarReservoir()
        reservoir.offer(make("a", 1.0))
        reservoir.offer(make("b", 0.0, error="x"))
        reservoir.reset()
        assert len(reservoir) == 0 and reservoir.offered == 0

    def test_snapshot_shape(self):
        exemplar = Exemplar(trace_id="t", name="req", duration=0.25,
                            error=None, spans=({"name": "child"},),
                            attrs={"k": 10})
        snap = exemplar.snapshot()
        assert snap["type"] == "exemplar"
        assert snap["reason"] == "slow"
        assert snap["trace_id"] == "t"
        assert snap["spans"] == [{"name": "child"}]
        assert make("t", 0.0, error="boom").reason == "error"

    def test_invalid_capacities(self):
        with pytest.raises(ValueError):
            ExemplarReservoir(slow_capacity=0)
        with pytest.raises(ValueError):
            ExemplarReservoir(error_capacity=0)


class TestRequestContext:
    def test_request_allocates_and_propagates_trace_id(self, obs_enabled):
        with obs.request("serve.query", k=5) as span:
            assert span.trace_id is not None
            assert obs.current_trace_id() == span.trace_id
            with obs.trace("rank") as child:
                assert child.trace_id == span.trace_id
        assert obs.current_trace_id() is None
        [exemplar] = obs.get_exemplars().slowest()
        assert exemplar.trace_id == span.trace_id
        assert {s["name"] for s in exemplar.spans} == {"serve.query", "rank"}
        assert all(s["trace_id"] == span.trace_id for s in exemplar.spans)

    def test_distinct_requests_get_distinct_ids(self, obs_enabled):
        ids = set()
        for _ in range(3):
            with obs.request("r") as span:
                ids.add(span.trace_id)
        assert len(ids) == 3

    def test_errored_request_is_retained(self, obs_enabled):
        with pytest.raises(RuntimeError):
            with obs.request("r"):
                raise RuntimeError("boom")
        [exemplar] = obs.get_exemplars().errored()
        assert exemplar.error == "RuntimeError"
        assert exemplar.reason == "error"

    def test_nested_request_joins_enclosing_trace(self, obs_enabled):
        # A serve.query request opened under a client.request must not
        # allocate a second trace: one ID, one reservoir offer (by the
        # outermost context), one coherent span tree.
        with obs.request("client.request") as outer:
            with obs.request("serve.query") as inner:
                assert obs.current_trace_id() == outer.trace_id
        assert inner.trace_id == outer.trace_id
        assert obs.current_trace_id() is None
        [exemplar] = obs.get_exemplars().slowest()
        assert exemplar.name == "client.request"
        assert {s["name"] for s in exemplar.spans} == {"client.request",
                                                       "serve.query"}
        assert all(s["trace_id"] == outer.trace_id for s in exemplar.spans)

    def test_slow_request_joins_through_the_reservoir(self, obs_enabled):
        # A latency sketch records the value only; the request behind the
        # tail is the reservoir's exemplar, under the same trace_id.
        with obs.request("r") as span:
            pass
        obs.observe_quantile("r.latency", span.duration)
        child = obs.get_registry().get("r.latency")
        assert child.max == span.duration
        assert "exemplar" not in child.snapshot()
        [exemplar] = obs.get_exemplars().slowest()
        assert exemplar.trace_id == span.trace_id
        assert exemplar.duration == span.duration

    def test_event_carries_trace_id(self, obs_enabled):
        with obs.request("r") as span:
            obs.event("serve.degraded", reason="no_model")
        [event] = list(obs_enabled.events)
        assert event["trace_id"] == span.trace_id
        assert event["reason"] == "no_model"

    def test_disabled_is_noop(self, obs_disabled):
        with obs.request("r") as span:
            assert span.trace_id is None
        obs.event("e")
        assert len(obs.get_exemplars()) == 0

    def test_exemplar_trace_ids_join_to_capture(self, obs_enabled, tmp_path):
        with obs.request("serve.query"):
            with obs.trace("rank"):
                pass
        path = tmp_path / "cap.jsonl"
        obs.write_jsonl(path)
        lines = [json.loads(line) for line in
                 path.read_text().strip().splitlines()]
        span_ids = {l["trace_id"] for l in lines if l.get("type") == "span"}
        exemplar_ids = {l["trace_id"] for l in lines
                        if l.get("type") == "exemplar"}
        assert exemplar_ids and exemplar_ids <= span_ids
