"""IVF ANN benchmark: rows-scanned reduction and recall@K vs the exact oracle.

Sweeps synthetic influence pools (clustered gaussians — the shape real
influence embeddings take) by pool size × ``nprobe``, scoring every
query both ways:

- **exact** — :func:`repro.serve.ann.exact_top_k`, the same blockwise
  oracle ``ServingIndex`` serves with;
- **ivf** — :class:`repro.serve.ann.IVFIndex` probing ``nprobe`` lists.

Per sweep point it measures recall@10/recall@50 against the oracle,
the scan fraction (rows exact-scored / pool), and p50 query latency,
then writes ``BENCH_ann.json`` (inspectable trajectory) and freezes
the quality numbers into ``results/obs/runs/ann.json`` — the snapshot
``python -m repro.obs check`` gates against
``results/obs/baselines/ann.json`` in CI, with recall@K classified
higher-is-better and scan fraction lower-is-better, so a "faster"
index that quietly loses recall fails the build.

Scale is env-tunable so CI can smoke cheaply while the committed
``BENCH_ann.json`` documents the full 50k-point sweep::

    REPRO_ANN_POOLS=1500,6000 pytest benchmarks/test_ann_bench.py

The sweep runs on one BLAS thread (:func:`single_threaded_blas`), as
serving does while a scheduler is live. With OpenBLAS's default pool, a
process started right after a CPU-heavy one (CI runs table3 first) can
keep the BLAS worker on the main thread's core for about a second; each
threaded product then waits about 8 ms for it, and the pool-1500 exact
latency read 8 ms against a 0.19 ms baseline. One thread cannot wait
on a worker.

Shape assertions: recall@K is exactly monotone in ``nprobe`` (probing
more lists only grows the candidate superset), ``nprobe == n_lists``
reproduces the exact ranking order-for-order, and at the largest pool
some sweep point reaches recall@10 ≥ 0.95 while scanning ≤ 1/10 of the
rows — the ROADMAP's "ANN at corpus scale" acceptance bar.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import numpy as np

from repro import obs
from repro.obs import runs
from repro.serve.ann import IVFIndex, exact_top_k
from repro.utils.blas import single_threaded_blas

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_ann.json"
RUNS_DIR = REPO_ROOT / "results" / "obs" / "runs"

SEED = 0
DIM = 64
N_QUERIES = 24
INTEREST_ROWS = 6          # interest vectors per simulated user
MIX = 0.7                  # max/mean pooling mix (cfg.max_pool_mix shape)
BLOCK_SIZE = 2048
NPROBES = (1, 2, 4, 8, 16, 32, 64)
TIMING_REPEATS = 3


def _pool_sizes() -> list[int]:
    raw = os.environ.get("REPRO_ANN_POOLS", "2000,10000,50000")
    sizes = sorted({int(token) for token in raw.split(",") if token.strip()})
    if not sizes:
        raise ValueError(f"REPRO_ANN_POOLS={raw!r} names no pool sizes")
    return sizes


def _synthetic_pool(n: int, rng: np.random.Generator):
    """Clustered rows + on-manifold queries, all seeded."""
    n_centers = max(16, n // 100)
    centers = rng.normal(size=(n_centers, DIM))
    assign = rng.integers(0, n_centers, size=n)
    rows = centers[assign] + 0.3 * rng.normal(size=(n, DIM))
    seeds = rng.choice(n, size=(N_QUERIES, INTEREST_ROWS), replace=False)
    queries = [rows[s] + 0.1 * rng.normal(size=(INTEREST_ROWS, DIM))
               for s in seeds]
    # One pool-sized draw that no ranker reads (the rankers' novelty
    # term was removed): it keeps the shared generator's stream, and so
    # every later pool, identical to the committed baseline's.
    rng.normal(size=n)
    return rows, queries


def _median_seconds(fn, repeats: int = TIMING_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _recall(approx: np.ndarray, exact: np.ndarray, k: int) -> float:
    return len(set(approx[:k].tolist()) & set(exact[:k].tolist())) / k


def test_ann_sweep():
    was_enabled = obs.is_enabled()
    obs.configure(enabled=True, reset=True)
    try:
        with single_threaded_blas():
            report = _run_sweep()
    finally:
        RUNS_DIR.mkdir(parents=True, exist_ok=True)
        runs.write_run(RUNS_DIR, run_id="ann", meta=report.get("meta", {}))
        obs.configure(enabled=was_enabled)
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n",
                          encoding="utf-8")


def _run_sweep() -> dict:
    pools = _pool_sizes()
    rng = np.random.default_rng(SEED)
    pool_reports = []
    for n in pools:
        rows, queries = _synthetic_pool(n, rng)
        n_lists = max(8, int(round(2.0 * math.sqrt(n))))
        cluster_start = time.perf_counter()
        ivf = IVFIndex(n_lists=n_lists, seed=SEED).fit(rows)
        cluster_seconds = time.perf_counter() - cluster_start

        exact_results = [
            exact_top_k(q, rows, 50, mix=MIX, block_size=BLOCK_SIZE)
            for q in queries
        ]
        exact_p50 = float(np.median([
            _median_seconds(lambda q=q: exact_top_k(
                q, rows, 50, mix=MIX, block_size=BLOCK_SIZE))
            for q in queries[:8]
        ]))
        labels = {"pool": str(n)}
        obs.gauge("ann.exact.query.latency_ms", exact_p50 * 1e3, **labels)

        # Full probe must reproduce the oracle, order included.
        full, stats = ivf.search(queries[0], rows, 50, mix=MIX,
                                 nprobe=ivf.num_lists,
                                 block_size=BLOCK_SIZE)
        assert stats.candidates_scanned == n
        assert np.array_equal(full, exact_results[0]), \
            "nprobe == n_lists must equal the exact ranking"

        sweep = []
        previous_recall = -1.0
        for nprobe in [p for p in NPROBES if p <= ivf.num_lists]:
            recalls_10, recalls_50, fractions = [], [], []
            for q, oracle in zip(queries, exact_results):
                got, st = ivf.search(q, rows, 50, mix=MIX, nprobe=nprobe,
                                     block_size=BLOCK_SIZE)
                recalls_10.append(_recall(got, oracle, 10))
                recalls_50.append(_recall(got, oracle, 50))
                fractions.append(st.scan_fraction)
            ivf_p50 = float(np.median([
                _median_seconds(lambda q=q: ivf.search(
                    q, rows, 50, mix=MIX, nprobe=nprobe,
                    block_size=BLOCK_SIZE))
                for q in queries[:8]
            ]))
            point = {
                "nprobe": nprobe,
                "recall_at_10": float(np.mean(recalls_10)),
                "recall_at_50": float(np.mean(recalls_50)),
                "scan_fraction": float(np.mean(fractions)),
                "rows_scanned_reduction":
                    float(1.0 / max(np.mean(fractions), 1e-12)),
                "p50_ms": ivf_p50 * 1e3,
                "speedup_p50": exact_p50 / max(ivf_p50, 1e-12),
            }
            sweep.append(point)
            assert point["recall_at_10"] >= previous_recall - 1e-12, \
                f"recall@10 must be monotone in nprobe (pool {n})"
            previous_recall = point["recall_at_10"]
            point_labels = {"pool": str(n), "nprobe": str(nprobe)}
            obs.gauge("ann.recall_at_10", point["recall_at_10"],
                      **point_labels)
            obs.gauge("ann.recall_at_50", point["recall_at_50"],
                      **point_labels)
            obs.gauge("ann.scan_fraction", point["scan_fraction"],
                      **point_labels)
            obs.gauge("ann.query.latency_ms", point["p50_ms"],
                      **point_labels)

        pool_reports.append({
            "pool_size": n,
            "n_lists": ivf.num_lists,
            "cluster_seconds": cluster_seconds,
            "exact_p50_ms": exact_p50 * 1e3,
            "sweep": sweep,
        })

    # Acceptance bar at the largest pool: >=10x fewer rows scanned while
    # keeping recall@10 >= 0.95 against the exact oracle.
    largest = pool_reports[-1]
    qualifying = [p for p in largest["sweep"]
                  if p["scan_fraction"] <= 0.1 and p["recall_at_10"] >= 0.95]
    observed = [(p["nprobe"], round(p["recall_at_10"], 3),
                 round(p["scan_fraction"], 3)) for p in largest["sweep"]]
    assert qualifying, (
        f"no sweep point at pool {largest['pool_size']} reached "
        f"recall@10 >= 0.95 within a 0.1 scan fraction: {observed}")
    best = max(qualifying, key=lambda p: p["rows_scanned_reduction"])
    obs.gauge("ann.accepted.rows_scanned_reduction",
              best["rows_scanned_reduction"],
              pool=str(largest["pool_size"]))

    meta = {
        "benchmark": "ann", "seed": SEED, "dim": DIM,
        "queries": N_QUERIES, "interest_rows": INTEREST_ROWS,
        "mix": MIX,
        "pools": pools, "nprobes": list(NPROBES),
    }
    return {
        "schema_version": 1,
        "meta": meta,
        "pools": pool_reports,
        "accepted": {
            "pool_size": largest["pool_size"],
            "nprobe": best["nprobe"],
            "recall_at_10": best["recall_at_10"],
            "scan_fraction": best["scan_fraction"],
            "rows_scanned_reduction": best["rows_scanned_reduction"],
            "speedup_p50": best["speedup_p50"],
        },
    }
