"""Verdict rules of bench/compare.py on synthetic runs."""

import json

import pytest

from bench.compare import compare, verdict

FLAT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_identical_runs_are_unchanged():
    assert verdict(FLAT, list(FLAT), "lower", 0.10) == "unchanged"


def test_consistent_win_beyond_parent_spread_is_improved():
    faster = [v * 0.9 for v in FLAT]
    assert verdict(FLAT, faster, "lower", 0.10) == "improved"
    assert verdict(FLAT, faster, "higher", 0.10) != "improved"


def test_eight_wins_of_ten_is_not_improved():
    change = [v * 0.9 for v in FLAT[:8]] + [v * 1.01 for v in FLAT[8:]]
    assert verdict(FLAT, change, "lower", 0.10) == "unchanged"


def test_ties_count_for_neither_side():
    change = [v * 0.9 for v in FLAT[:9]] + [FLAT[9]]
    assert verdict(FLAT, change, "lower", 0.10) == "improved"
    change = [v * 0.9 for v in FLAT[:8]] + FLAT[8:]
    assert verdict(FLAT, change, "lower", 0.10) == "unchanged"


def test_win_inside_parent_spread_is_not_improved():
    noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    change = [v - 1.0 for v in noisy]
    assert verdict(noisy, change, "lower", 0.25) == "unchanged"


def test_median_worse_than_bound_is_regressed():
    slower = [v * 1.15 for v in FLAT]
    assert verdict(FLAT, slower, "lower", 0.10) == "regressed"
    assert verdict(FLAT, [v * 0.85 for v in FLAT], "higher",
                   0.10) == "regressed"


def test_worse_within_bound_is_unchanged():
    assert verdict(FLAT, [v * 1.05 for v in FLAT], "lower",
                   0.10) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert verdict(wide, list(reversed(wide)), "lower", 0.10) == "unresolved"


def test_wide_spread_but_every_change_run_better_is_not_unresolved():
    wide = [100.0, 140.0, 110.0, 130.0, 120.0] * 2
    assert verdict(wide, [60.0, 65.0, 62.0, 70.0, 68.0] * 2, "lower",
                   0.05) == "improved"
    # Better on every run, but by less than the parent's own spread.
    assert verdict(wide, [99.0] * 10, "lower", 0.05) == "unchanged"


def test_fewer_than_ten_pairs_never_claims_a_win():
    faster = [v * 0.5 for v in FLAT[:9]]
    assert verdict(FLAT[:9], faster, "lower", 0.10) == "unchanged"
    assert verdict(FLAT[:9], faster, "lower", None) == "unresolved"
    # A bounded regression needs no minimum: the bound already decides.
    assert verdict(FLAT[:3], [v * 2 for v in FLAT[:3]], "lower",
                   0.10) == "regressed"


def test_unbounded_metric_regresses_by_the_mirrored_win_rule():
    assert verdict(FLAT, [v * 1.2 for v in FLAT], "lower", None) == "regressed"
    assert verdict(FLAT, [v * 1.003 for v in FLAT], "lower",
                   None) == "unchanged"


def test_bad_direction_and_empty_input_are_rejected():
    with pytest.raises(ValueError):
        verdict(FLAT, FLAT, "sideways", 0.1)
    with pytest.raises(ValueError):
        verdict([], [], "lower", 0.1)


BENCHMARK = {"end_to_end": [{"name": "p50_ms", "unit": "ms",
                             "better": "lower", "bound": 0.1}],
             "per_layer": []}


def _write(directory, workload, seed, value, trace=False, started=0,
           failed=0):
    directory.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "started_at": f"2026-01-01T00:{started // 60:02d}:"
                            f"{started % 60:02d}Z",
              "failed": failed,
              "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}
    (directory / f"{workload}-{seed}-{started}.json").write_text(
        json.dumps(record))


def test_compare_pairs_runs_by_workload_and_seed(tmp_path):
    benchmark = BENCHMARK
    for seed in range(10):
        _write(tmp_path / "parent", "rank_closed", seed, 10.0 + seed)
        _write(tmp_path / "change", "rank_closed", seed, 5.0 + seed / 10)
    _write(tmp_path / "parent", "train", 0, 1.0)  # no partner: skipped
    _write(tmp_path / "change", "rank_closed", 99, 1.0)
    rows = compare(tmp_path / "parent", tmp_path / "change", benchmark)
    assert [(r["workload"], r["pairs"], r["verdict"]) for r in rows] == [
        ("rank_closed", 10, "improved")]


def test_repeated_runs_of_one_seed_pair_up_in_time_order(tmp_path):
    # Ten alternating runs of the default seed: none may overwrite another.
    for n in range(10):
        _write(tmp_path / "parent", "rank_closed", 0, 100.0 + n / 2,
               started=2 * n)
        _write(tmp_path / "change", "rank_closed", 0, 99.8 + n / 2,
               started=2 * n + 1)
    rows = compare(tmp_path / "parent", tmp_path / "change", BENCHMARK)
    assert [(r["pairs"], r["parent"][1], r["change"][1]) for r in rows] == [
        (10, 102.25, 102.05)]
    # Each change run is paired with the parent run of the same rank in
    # time, so it wins every pair, but by less than the parent's spread.
    assert rows[0]["verdict"] == "unchanged"


def test_more_failures_withhold_improved(tmp_path):
    for seed in range(10):
        _write(tmp_path / "parent", "rank_closed", seed, 10.0 + seed / 10)
        _write(tmp_path / "change", "rank_closed", seed, 5.0 + seed / 10,
               failed=1 if seed == 3 else 0)
    rows = compare(tmp_path / "parent", tmp_path / "change", BENCHMARK)
    assert [(r["failed"], r["verdict"]) for r in rows] == [((0, 1),
                                                            "unchanged")]
    # The same runs without the failure are a clear win.
    _write(tmp_path / "change", "rank_closed", 3, 5.3)
    rows = compare(tmp_path / "parent", tmp_path / "change", BENCHMARK)
    assert [(r["failed"], r["verdict"]) for r in rows] == [((0, 0),
                                                            "improved")]
