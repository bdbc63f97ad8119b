"""Run the repository benchmark.

    python bench/run.py                          # all workloads, seed 0
    python bench/run.py --workload serve_open --seed 3 --seconds 10
    python bench/run.py --trace                  # per-layer breakdown

A single-workload run executes in this process; without ``--workload``
every workload runs in its own child process, so ``peak_rss_mb`` is per
workload. Each run prints its metrics with units, writes a result file
(metrics, answers checked, input sha256 and a machine fingerprint) to
``--results-dir``, and ends its standard output with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import params  # noqa: E402

DEFAULT_SECONDS = 10


def fingerprint() -> dict:
    """What the numbers depend on besides the code: recorded, never set."""
    import numpy as np

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": blas,
        "env": {name: os.environ.get(name) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git": _git_state(),
    }


def _git_state() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise ValueError("not this checkout's repository")
        dirty = bool(git("status", "--porcelain", "--", "src", "bench"))
        return {"sha": git("rev-parse", "HEAD"), "dirty": dirty}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}


def _print_metrics(workload: str, metrics: dict, title: str) -> None:
    print(f"[{workload}] {title}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:14.4f} {entry['unit']}")


def _write_result(directory: Path, record: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    kind = "trace" if record["trace"] else "e2e"
    path = directory / (f"{record['workload']}-seed{record['seed']}-{kind}-"
                        f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def run_one(args: argparse.Namespace) -> dict:
    from bench import workloads

    started = time.time()
    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), ROOT)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                    time.gmtime(started)),
        "elapsed_s": time.time() - started,
        "failed_ratio": outcome["failed"] / outcome["attempted"],
        "params": params.workload_params(args.workload),
        "fingerprint": fingerprint(),
        **outcome,
    }
    title = "per-layer" if args.trace else "end-to-end"
    _print_metrics(args.workload, record["metrics"], title)
    _print_metrics(args.workload, record["detail"], "detail")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    path = _write_result(args.results_dir, record)
    print(f"[{args.workload}] {outcome['attempted']} attempted, "
          f"{outcome['failed']} failed; inputs sha256 "
          f"{outcome['schedule_sha256'][:16]}; result {path}")
    return record


def run_all(args: argparse.Namespace) -> dict:
    # No timeout here: a child's fixture build is bounded by
    # ``fixture.BUILD_TIMEOUT_S`` and its run by the watchdog in
    # ``workloads.run``.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in params.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace)),
                   "--results-dir", str(args.results_dir)]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            raise SystemExit(f"{workload} exited with {child.returncode} "
                             "and printed no result") from None
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = entry
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=params.WORKLOADS,
                        help="run one workload (default: all, each in a "
                             "child process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured work, in seconds of the reference "
                             "machine (see bench/params.py)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--results-dir", type=Path,
                        default=ROOT / "bench" / "results" / "runs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.results_dir = args.results_dir.resolve()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    result = run_one(args) if args.workload else run_all(args)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
