"""BENCHMARK.json agrees with the metrics the benchmark reports."""

import json
import re
from pathlib import Path

from bench import params
from bench.tracing import PER_LAYER
from bench.workloads import END_TO_END

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_command_and_paths():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(params.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match_the_code():
    reported = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert reported == END_TO_END
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_the_code():
    reported = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert reported == {name: unit for name, (unit, _) in PER_LAYER.items()}
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
