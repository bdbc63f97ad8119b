"""Run snapshots, flattening, diffing, and the regression gate."""

import copy
import json

import pytest

from repro import obs
from repro.obs import runs
from repro.obs.__main__ import main as obs_main


def record_sample_run():
    obs.count("nprec.train.grad_steps", 40)
    obs.gauge("graph.nodes", 120)
    obs.gauge("ann.recall_at_10", 0.8)
    for value in (0.01, 0.02, 0.04):
        obs.observe_quantile("serve.query.latency", value)
    with obs.trace("nprec.fit"):
        pass


class TestCaptureAndPersist:
    def test_snapshot_shape(self, obs_enabled):
        record_sample_run()
        snapshot = runs.capture_run(run_id="r1", meta={"seed": 7})
        assert snapshot["schema_version"] == runs.SCHEMA_VERSION
        assert snapshot["run_id"] == "r1"
        assert snapshot["meta"] == {"seed": 7}
        assert snapshot["git_sha"] == runs.git_sha()  # None without .git
        assert snapshot["spans"]["nprec.fit"]["calls"] == 1
        kinds = {e["kind"] for e in snapshot["metrics"]}
        assert kinds == {"counter", "gauge", "quantile"}

    def test_default_run_id_is_unique(self, obs_enabled):
        a = runs.capture_run()
        b = runs.capture_run()
        assert a["run_id"] != b["run_id"]

    def test_write_and_load_round_trip(self, obs_enabled, tmp_path):
        record_sample_run()
        path = runs.write_run(tmp_path / "runs", run_id="r1")
        assert path == tmp_path / "runs" / "r1.json"
        assert runs.load_run(path)["run_id"] == "r1"

    def test_load_rejects_garbage_and_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not a valid run snapshot"):
            runs.load_run(bad)
        no_schema = tmp_path / "no_schema.json"
        no_schema.write_text("{}")
        with pytest.raises(ValueError, match="schema_version"):
            runs.load_run(no_schema)
        future = tmp_path / "future.json"
        future.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="v99"):
            runs.load_run(future)


class TestFlattenAndClassify:
    def test_flatten_keys(self, obs_enabled):
        record_sample_run()
        flat = runs.flatten(runs.capture_run(run_id="r"))
        assert flat["nprec.train.grad_steps:value"] == 40.0
        assert flat["ann.recall_at_10:value"] == 0.8
        assert flat["serve.query.latency:mean"] == pytest.approx(0.07 / 3)
        assert flat["serve.query.latency:count"] == 3.0
        assert "serve.query.latency:p99" in flat
        assert flat["span.nprec.fit:calls"] == 1.0

    def test_labels_embed_in_the_key(self, obs_enabled):
        obs.count("serve.degraded", 2, reason="corrupt")
        flat = runs.flatten(runs.capture_run(run_id="r"))
        assert flat["serve.degraded{reason=corrupt}:value"] == 2.0

    def test_classification(self):
        assert runs.classify("serve.query.latency:p99") == "lower"
        assert runs.classify("serve.ingest.latency:p50") == "lower"
        assert runs.classify("serve.degraded{reason=x}:value") == "lower"
        # The ANN gate: losing recall or scanning more rows regresses.
        assert runs.classify("ann.recall_at_10{nprobe=8,pool=50000}:value") \
            == "higher"
        assert runs.classify("ann.scan_fraction{nprobe=8,pool=50000}:value") \
            == "lower"
        assert not runs.is_timing("ann.scan_fraction{pool=50000}:value")
        # Volume keys never gate: more traffic is not a regression.
        assert runs.classify("serve.query.latency:count") is None
        assert runs.classify("span.nprec.fit:calls") is None
        # A span's total/mean is wall clock: the table3 gate's keys.
        assert runs.classify("span.experiment.table3:total") == "lower"
        assert runs.classify("span.experiment.table3:mean") == "lower"
        # Structural gauges are informational.
        assert runs.classify("graph.nodes:value") is None
        # Training progress is a span attribute, never a snapshot key, so
        # only recall reads as higher-is-better.
        assert runs.classify("nprec.train.grad_steps:value") is None
        assert runs.classify("serve.queries:value") is None

    def test_timing_keys(self):
        assert runs.is_timing("serve.query.latency:p99")
        assert runs.is_timing("span.experiment.table3:mean")
        assert not runs.is_timing("serve.degraded:value")


class TestDiffAndCheck:
    def _snapshots(self, obs_enabled):
        record_sample_run()
        baseline = runs.capture_run(run_id="base")
        current = copy.deepcopy(baseline)
        current["run_id"] = "cur"
        return baseline, current

    def test_identical_runs_have_no_regressions(self, obs_enabled):
        baseline, current = self._snapshots(obs_enabled)
        assert runs.check_runs(baseline, current) == []

    def test_timing_uses_the_loose_budget(self, obs_enabled):
        baseline, current = self._snapshots(obs_enabled)
        for event in current["metrics"]:
            if event["name"] == "serve.query.latency":
                event["sum"] = event["sum"] * 3  # 3x slower: inside 5x budget
        assert runs.check_runs(baseline, current) == []
        for event in current["metrics"]:
            if event["name"] == "serve.query.latency":
                event["sum"] = event["sum"] * 10  # now far beyond it
        bad = runs.check_runs(baseline, current)
        assert [d.key for d in bad] == ["serve.query.latency:mean"]

    def test_a_slower_span_regresses_past_the_timing_budget(self,
                                                            obs_enabled):
        baseline, current = self._snapshots(obs_enabled)
        baseline["spans"]["nprec.fit"].update(total=1.0, mean=1.0)
        stats = current["spans"]["nprec.fit"]
        stats.update(total=3.0, mean=3.0)  # 3x slower: inside 5x budget
        assert runs.check_runs(baseline, current) == []
        stats.update(total=10.0, mean=10.0)
        bad = runs.check_runs(baseline, current)
        assert [d.key for d in bad] == ["span.nprec.fit:mean",
                                        "span.nprec.fit:total"]

    def test_accuracy_drop_regresses_tightly(self, obs_enabled):
        baseline, current = self._snapshots(obs_enabled)
        for event in current["metrics"]:
            if event["name"] == "ann.recall_at_10":
                event["value"] = event["value"] * 0.5
        bad = runs.check_runs(baseline, current)
        assert [d.key for d in bad] == ["ann.recall_at_10:value"]
        # Recall *gains* never fail the gate.
        for event in current["metrics"]:
            if event["name"] == "ann.recall_at_10":
                event["value"] = event["value"] * 4
        assert runs.check_runs(baseline, current) == []

    def test_new_failure_counter_from_zero_regresses(self, obs_enabled):
        record_sample_run()
        obs.count("serve.degraded", 0)  # family exists, clean run
        baseline = runs.capture_run(run_id="base")
        obs.count("serve.degraded", 1)
        current = runs.capture_run(run_id="cur")
        bad = runs.check_runs(baseline, current)
        assert any(d.key == "serve.degraded:value" for d in bad)

    def test_metric_new_in_current_is_informational(self, obs_enabled):
        baseline, _ = self._snapshots(obs_enabled)
        obs.count("serve.degraded", 5)
        current = runs.capture_run(run_id="cur")
        # Keys absent from the baseline cannot gate — refresh the
        # baseline to start gating newly added instrumentation.
        assert runs.check_runs(baseline, current) == []
        (delta,) = [d for d in runs.diff_runs(baseline, current)
                    if d.key == "serve.degraded:value"]
        assert delta.baseline is None and delta.current == 5.0

    def test_render_diff_mentions_direction(self, obs_enabled):
        baseline, current = self._snapshots(obs_enabled)
        text = runs.render_diff(runs.diff_runs(baseline, current))
        assert "ann.recall_at_10:value" in text
        assert "lower is better" in text


class TestCheckCLI:
    """Acceptance criterion: exit 0 on the committed baseline, nonzero
    on a perturbed run."""

    def _write(self, obs_enabled, tmp_path):
        record_sample_run()
        return runs.write_run(tmp_path, run_id="base")

    def test_exit_zero_on_identical_run(self, obs_enabled, tmp_path, capsys):
        base = self._write(obs_enabled, tmp_path)
        cur = runs.write_run(tmp_path, run_id="cur")
        assert obs_main(["check", str(cur), "--baseline", str(base)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_exit_nonzero_on_perturbation(self, obs_enabled, tmp_path, capsys):
        base = self._write(obs_enabled, tmp_path)
        snapshot = json.loads(base.read_text())
        for event in snapshot["metrics"]:
            if event["name"] == "ann.recall_at_10":
                event["value"] *= 0.5
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(snapshot))
        assert obs_main(["check", str(cur), "--baseline", str(base)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "recall_at_10" in out

    def test_exit_two_on_unreadable_snapshot(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        present = tmp_path / "present.json"
        present.write_text(json.dumps({"schema_version": 1, "run_id": "x",
                                       "metrics": [], "spans": {}}))
        assert obs_main(["check", str(present),
                         "--baseline", str(missing)]) == 2

    def test_committed_ci_baseline_gates_itself(self, capsys):
        # The in-repo baseline seeded from the table3 bench must pass its
        # own gate with the exact flags the CI workflow uses.
        baseline = "results/obs/baselines/test_table3.json"
        assert obs_main(["check", baseline, "--baseline", baseline,
                         "--tolerance", "0.1",
                         "--timing-tolerance", "5.0"]) == 0

    def test_diff_cli(self, obs_enabled, tmp_path, capsys):
        base = self._write(obs_enabled, tmp_path)
        cur = runs.write_run(tmp_path, run_id="cur")
        assert obs_main(["diff", str(base), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "baseline: base" in out and "current:  cur" in out
        assert obs_main(["diff", str(base), str(tmp_path / "nope.json")]) == 2
