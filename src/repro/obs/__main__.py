"""CLI: compare run snapshots and gate runs against baselines.

Commands
--------
``diff <baseline.json> <current.json>``
    Render per-metric deltas between two run snapshots written by
    :func:`repro.obs.runs.write_run`.
``check <run.json> --baseline <file> [--tolerance T] [--timing-tolerance T]``
    Exit 1 when any gated metric regressed beyond tolerance — the CI
    perf gate. Counters/gauges use ``--tolerance`` (default 10%); wall
    clock keys (spans, latencies) use the looser ``--timing-tolerance``
    (default 500%, machines differ).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs import runs


def cmd_diff(args: argparse.Namespace) -> int:
    try:
        baseline = runs.load_run(args.baseline)
        current = runs.load_run(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline: {baseline['run_id']} "
          f"(git {baseline.get('git_sha') or '?'})")
    print(f"current:  {current['run_id']} "
          f"(git {current.get('git_sha') or '?'})")
    print()
    print(runs.render_diff(runs.diff_runs(baseline, current),
                           only_changed=args.only_changed))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    try:
        baseline = runs.load_run(args.baseline)
        current = runs.load_run(args.run)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    regressions = runs.check_runs(baseline, current,
                                  tolerance=args.tolerance,
                                  timing_tolerance=args.timing_tolerance)
    compared = sum(1 for d in runs.diff_runs(baseline, current)
                   if d.direction is not None and d.baseline is not None
                   and d.current is not None)
    if regressions:
        print(f"REGRESSION: {len(regressions)} gated metric(s) worsened "
              f"beyond tolerance (of {compared} compared):")
        print(runs.render_diff(regressions))
        return 1
    print(f"ok: {compared} gated metric(s) within tolerance "
          f"(tolerance={args.tolerance:g}, "
          f"timing-tolerance={args.timing_tolerance:g})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Compare and gate observability run snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser("diff", help="per-metric deltas of two run snapshots")
    diff.add_argument("baseline", type=pathlib.Path,
                      help="baseline run snapshot (repro.obs.runs.write_run)")
    diff.add_argument("current", type=pathlib.Path,
                      help="run snapshot to compare against the baseline")
    diff.add_argument("--only-changed", action="store_true",
                      help="hide keys whose value is identical")
    diff.set_defaults(fn=cmd_diff)

    check = sub.add_parser(
        "check", help="exit 1 when a gated metric regressed vs the baseline")
    check.add_argument("run", type=pathlib.Path, help="run snapshot to gate")
    check.add_argument("--baseline", type=pathlib.Path, required=True,
                       help="committed baseline snapshot")
    check.add_argument("--tolerance", type=float, default=0.1,
                       help="relative budget for deterministic metrics "
                            "(default 0.1 = 10%%)")
    check.add_argument("--timing-tolerance", type=float, default=5.0,
                       help="relative budget for wall-clock metrics "
                            "(default 5.0 = 500%%)")
    check.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
