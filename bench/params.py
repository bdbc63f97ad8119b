"""Frozen workload parameters.

Every number here was calibrated once on the commit that introduced the
benchmark and is then held fixed, so a parent and a change always do the
same work. Work is a function of ``--seconds`` only, never of how fast
the code under test runs: a faster change finishes the same requests
sooner instead of doing more of them on a larger pool.
"""

from __future__ import annotations

WORKLOADS = ("train", "rank_closed", "serve_open", "ingest_bulk")

#: Serving fixture: the artifact the three serving workloads load, fitted
#: on the synthetic ACM corpus once per checkout (and per source tree)
#: and cached. ``train`` uses the same corpus generator.
FIXTURE = {
    "scale": 3.0,
    "split_year": 2014,
    "users": 160,
    "candidate_size": 50,
    "task_seed": 0,
    "fit_seed": 0,
}

#: The NPRec configuration of ``python -m repro.serve warmup``, copied
#: rather than imported so a CLI change cannot silently change the work.
FIT_CONFIG = {"sem_n_triplets": 60, "sem_epochs": 2, "epochs": 4,
              "max_positives": 120}

#: ``train`` fits a smaller corpus than the fixture so that several fits
#: fit in one run; 0.6 is the smallest scale whose nDCG@20 varies by
#: under 2% across fit seeds (38 evaluation users). Three fits per ten
#: seconds make the median a warm fit; the first one runs cold.
TRAIN = {"scale": 0.6, "split_year": 2014, "users": 160,
         "candidate_size": 50, "task_seed": 0, "fits_per_second": 0.3,
         "min_fits": 2}

#: ``rank_closed``: one client issuing exact ``top_k`` back to back with
#: no usable cache, so every request costs exactly one rank computation.
#: With two clients they contend for the serving lock, and both
#: throughput (-16%) and run-to-run repeatability (+-12% instead of
#: +-6%) get worse.
RANK_CLOSED = {"queries_per_second": 620, "k": 10, "cache_size": 1,
               "index": "exact"}

#: ``serve_open``: the daemon configuration (``serve --scheduler --index
#: ivf``) under an open-loop schedule at half its capacity. Capacity is
#: the highest rate at which nothing is shed and the last request is
#: sent on time; it was measured by sweeping the rate with set-up
#: warm-up in place (see bench/README.md). Query users are drawn in
#: proportion to their profile sizes (``inputs.serve_open_inputs``).
SERVE_OPEN = {"rate": 22.5, "mix": {"query": 0.92, "ingest": 0.05,
                                    "probe": 0.03},
              "k": 10, "index": "ivf", "nprobe": 8,
              "cache_size": 128, "max_batch": 8, "max_wait_ms": 2.0,
              "queue_depth": 64, "shed_threshold_s": 0.25,
              "query_limit_ms": 25.0, "ingest_limit_ms": 250.0}

#: ``ingest_bulk``: durable cold-start ingestion into an IVF index, then
#: a restart that replays the log.
INGEST_BULK = {"ingests_per_second": 22, "k": 10, "index": "ivf",
               "nprobe": 8}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: nDCG cutoffs: ``train`` uses the paper's candidate-set protocol at 20,
#: the serving workloads score the top-10 users actually receive.
NDCG_AT = {"train": 20, "serving": 10}


def workload_params(name: str) -> dict:
    """The frozen parameters one workload runs with (for result files)."""
    specific = {"train": TRAIN, "rank_closed": RANK_CLOSED,
                "serve_open": SERVE_OPEN, "ingest_bulk": INGEST_BULK}[name]
    params = {"workload": dict(specific), "fit_config": dict(FIT_CONFIG),
              "setup_repeats": SETUP_REPEATS}
    if name != "train":
        params["fixture"] = dict(FIXTURE)
    return params
