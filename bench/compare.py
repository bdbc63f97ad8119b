"""Compare benchmark result sets: ``python bench/compare.py PARENT CHANGE``.

Each directory holds result files written by ``bench/run.py``. Runs are
paired by workload, run kind (end-to-end or traced) and seed, and runs
of one seed in the order they started, so run the same seeds on both
sides, alternating which side goes first. One row is printed per
(metric, workload) with each side's median and quartiles and one
verdict:

``improved``    at least ten pairs, the change wins at least 9 of every
                10 (ties count for neither), the medians differ by more
                than the parent's interquartile range, and the change
                failed no more operations than the parent;
``regressed``   the change's median is worse than the parent's by more
                than the metric's bound in ``BENCHMARK.json``;
``unresolved``  a side's interquartile range, as a share of its median,
                is wider than the bound, and not every change run reads
                better than every parent run;
``unchanged``   otherwise.

Per-layer metrics have no bound: for them ``regressed`` mirrors
``improved`` (the change loses 9 of 10 pairs by more than the parent's
spread), and with fewer than ten pairs they are ``unresolved``. The
exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from bench.stats import quartiles  # noqa: E402

#: Fewest pairs on which a win (or, unbounded, a loss) can be claimed.
MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    """The verdict for paired runs (``parent[i]`` pairs ``change[i]``)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(parent, change))
    if not pairs:
        raise ValueError("no paired runs to compare")
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    separated = abs(cm - pm) > p3 - p1
    needed = math.ceil(0.9 * len(pairs))
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= needed and separated:
        return "improved"
    if bound is None:
        if not enough:
            return "unresolved"
        return "regressed" if losses >= needed and separated else "unchanged"
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed"
    spreads = [(q3 - q1) / abs(m) if m else 0.0
               for q1, m, q3 in ((p1, pm, p3), (c1, cm, c3))]
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spreads) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load_runs(directory: Path) -> dict[tuple[str, str], dict[tuple, dict]]:
    """``(workload, kind) -> (seed, n) -> record`` for every result file.

    ``n`` numbers the runs of one seed in the order they started, so
    repeated runs of a seed pair up with the other side's in time order
    instead of overwriting each other.
    """
    records = []
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        if "workload" in record and "metrics" in record:
            records.append((record.get("started_at", ""), path.name, record))
    runs: dict[tuple[str, str], dict[tuple, dict]] = {}
    for _, _, record in sorted(records, key=lambda r: r[:2]):
        kind = "trace" if record.get("trace") else "e2e"
        side = runs.setdefault((record["workload"], kind), {})
        n = sum(1 for seed, _ in side if seed == record["seed"])
        side[(record["seed"], n)] = record
    return runs


def compare(parent_dir: Path, change_dir: Path,
            benchmark: dict) -> list[dict]:
    """One row per (metric, workload, kind) present on both sides.

    A change with more failed operations than the parent over the paired
    runs is never ``improved``: a gain bought with failures is no gain.
    """
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs.update({m["name"]: {**m, "bound": None}
                  for m in benchmark["per_layer"]})
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for key in sorted(set(parent) & set(change)):
        runs = sorted(set(parent[key]) & set(change[key]))
        if not runs:
            continue
        failed = [sum(side[key][r].get("failed", 0) for r in runs)
                  for side in (parent, change)]
        for name in parent[key][runs[0]]["metrics"]:
            spec = specs.get(name)
            if spec is None or any(name not in side[key][r]["metrics"]
                                   for side in (parent, change)
                                   for r in runs):
                continue
            before = [parent[key][r]["metrics"][name]["value"] for r in runs]
            after = [change[key][r]["metrics"][name]["value"] for r in runs]
            outcome = verdict(before, after, spec["better"], spec["bound"])
            if outcome == "improved" and failed[1] > failed[0]:
                outcome = "unchanged"
            rows.append({
                "workload": key[0], "kind": key[1], "metric": name,
                "unit": spec["unit"], "pairs": len(runs),
                "parent": quartiles(before), "change": quartiles(after),
                "failed": tuple(failed), "verdict": outcome,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change,
                   json.loads(args.benchmark.read_text()))
    if not rows:
        print("no paired runs: run the same workloads and seeds on both "
              "sides", file=sys.stderr)
        return 2
    print(f"{'metric':28s} {'workload':12s} {'n':>3s} "
          f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'failed':>9s}  verdict")
    for row in rows:
        cells = [f"{m:10.4g} [{q1:.4g}, {q3:.4g}]"
                 for q1, m, q3 in (row["parent"], row["change"])]
        failed = "{}/{}".format(*row["failed"])
        print(f"{row['metric']:28s} {row['workload']:12s} {row['pairs']:3d} "
              f"{cells[0]:>34s} {cells[1]:>34s} {failed:>9s}  "
              f"{row['verdict']}  ({row['unit']})")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
