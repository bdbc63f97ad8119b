"""Tests for the JSONL and Prometheus emitters."""

import json

from repro.obs.emitters import prometheus_text, write_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def small_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("nprec.train.grad_steps", strategy="defuzz").inc(42)
    reg.gauge("graph.nodes", type="paper").set(120)
    reg.quantile("serve.ingest.latency").observe(0.5)
    return reg


class TestPrometheusText:
    def test_golden_format(self):
        # Golden test: the full exposition output for a fixed registry.
        assert prometheus_text(small_registry()) == (
            "# HELP repro_graph_nodes repro metric graph.nodes (gauge)\n"
            "# TYPE repro_graph_nodes gauge\n"
            'repro_graph_nodes{type="paper"} 120\n'
            "# HELP repro_nprec_train_grad_steps repro metric "
            "nprec.train.grad_steps (counter)\n"
            "# TYPE repro_nprec_train_grad_steps counter\n"
            'repro_nprec_train_grad_steps{strategy="defuzz"} 42\n'
            "# HELP repro_serve_ingest_latency repro metric "
            "serve.ingest.latency (summary)\n"
            "# TYPE repro_serve_ingest_latency summary\n"
            'repro_serve_ingest_latency{quantile="0.5"} 0.5\n'
            'repro_serve_ingest_latency{quantile="0.9"} 0.5\n'
            'repro_serve_ingest_latency{quantile="0.99"} 0.5\n'
            "repro_serve_ingest_latency_sum 0.5\n"
            "repro_serve_ingest_latency_count 1\n"
        )

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("weird", path='a"b\\c').inc()
        assert '{path="a\\"b\\\\c"}' in prometheus_text(reg)

    def test_newlines_in_label_values_escaped(self):
        # A raw newline would split the sample line in two and corrupt
        # the whole exposition; the spec says escape it as \n.
        reg = MetricsRegistry()
        reg.counter("weird", msg="line1\nline2").inc()
        text = prometheus_text(reg)
        assert '{msg="line1\\nline2"}' in text
        assert all(line.startswith(("#", "repro_"))
                   for line in text.strip().splitlines())

    def test_quantile_renders_as_summary(self):
        reg = MetricsRegistry()
        q = reg.quantile("serve.query.latency", route="top_k")
        for v in (0.1, 0.2, 0.3):
            q.observe(v)
        lines = prometheus_text(reg).strip().splitlines()
        assert lines[0].startswith("# HELP repro_serve_query_latency ")
        assert lines[1] == "# TYPE repro_serve_query_latency summary"
        assert 'repro_serve_query_latency{quantile="0.5",route="top_k"} 0.2' \
            in lines
        assert any(l.startswith(
            'repro_serve_query_latency{quantile="0.99"') for l in lines)
        assert 'repro_serve_query_latency_sum{route="top_k"} 0.6000000000000001' \
            in lines
        assert 'repro_serve_query_latency_count{route="top_k"} 3' in lines

    def test_empty_quantile_renders_nan(self):
        reg = MetricsRegistry()
        reg.quantile("idle.latency")
        text = prometheus_text(reg)
        assert 'repro_idle_latency{quantile="0.5"} NaN' in text
        assert "repro_idle_latency_count 0" in text


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        tracer = Tracer()
        outer = tracer.start("outer", {"run": 1})
        tracer.finish(tracer.start("inner"))
        tracer.finish(outer)
        path = write_jsonl(tmp_path / "sub" / "cap.jsonl",
                           registry=small_registry(), tracer=tracer,
                           meta={"benchmark": "demo"})
        events = [json.loads(line) for line in path.read_text().splitlines()]
        meta, *rest = events
        assert meta["type"] == "meta"
        assert meta["benchmark"] == "demo"
        assert meta["spans"] == 2 and meta["metrics"] == 3
        spans = [e for e in rest if e["type"] == "span"]
        metrics = [e for e in rest if e["type"] == "metric"]
        # Spans serialise in start order, not finish order.
        assert [s["name"] for s in spans] == ["outer", "inner"]
        assert spans[1]["parent"] == spans[0]["index"]
        assert {m["kind"] for m in metrics} == {"counter", "gauge", "quantile"}
