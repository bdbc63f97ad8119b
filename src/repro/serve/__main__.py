"""CLI for the serving layer: ``python -m repro.serve <command>``.

Commands
--------
``warmup``
    Fit the full SEM -> NPRec pipeline on a synthetic ACM corpus and
    persist it as an artifact directory (the offline half of serving).
``query``
    Reload the artifact written by ``warmup``, build a
    :class:`~repro.serve.index.ServingIndex` over the evaluation pool,
    and print the top-K recommendations for one user.
``smoke``
    End-to-end serving check used by CI: fit, save, reload, verify the
    reloaded ranking is bit-identical, ingest one never-seen paper, and
    assert it surfaces in the user's top-10 — all without retraining.
``health``
    Load the artifact (with retries) over the evaluation pool ``query``
    serves, run the
    :meth:`~repro.serve.index.ServingIndex.health` checks (artifact
    checksums, embedding finiteness, fallback probe + self-heal, cache
    stats, registered SLOs), print the JSON report on stdout (one
    human-readable line per SLO goes to stderr), and exit non-zero when
    unhealthy — a degraded index is serving, but it is not healthy, and
    neither is one breaching a latency or error-budget objective.
``compact``
    Replay the ingestion write-ahead log into the artifact: load the
    artifact over the evaluation pool with the WAL attached (recovering
    torn tails, reapplying every durable record), re-save the pipeline
    plus a ``pool/pool.json`` snapshot, and truncate the log — after
    which a restart replays nothing and ``serve.wal.lag`` is back to
    zero.
``swap``
    Zero-downtime adoption of a retrained artifact: build the live
    index (registering the evaluation users), then
    :class:`~repro.serve.swap.HotSwapper` loads the candidate, replays
    the live pool onto it, canary-compares golden queries, and either
    cuts over in place or rolls back (exit 1) leaving the incumbent
    serving.
``serve``
    Long-running serving daemon: fit-or-load the artifact, register the
    evaluation users, attach the ingestion WAL (and, with
    ``--scheduler``, a batch scheduler), arm the flight recorder, and
    serve the embedded HTTP ops plane
    (:class:`repro.obs.server.ObsServer` — ``/metrics``, ``/healthz``,
    ``/readyz``, ``/slo``, ``/debug/vars``, ``/exemplars``) until
    SIGTERM/SIGINT or ``--duration`` elapses. The daemon has no query
    route yet, so its scheduler answers nothing: it shows up only in
    ``/readyz`` and ``/debug/vars``, and shutdown drains it through its
    quiesce barrier. Shutdown can also emit a final postmortem bundle.

``query``, ``compact``, ``swap``, ``health`` and ``serve`` rebuild the
evaluation task from the manifest's ``extra`` metadata (written by
``warmup`` and ``serve``). Against an artifact without it the first
three exit 2, and ``health`` and ``serve`` use an empty pool.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from repro.core.nprec import NPRecConfig, NPRecRecommender
from repro.core.sem import SEMConfig
from repro.data import load_acm
from repro.experiments.protocol import RecommendationTask, split_task_by_year
from repro.resilience import staging
from repro.serve.artifacts import (load_pipeline, manifest_extra,
                                   save_ann_index, save_pipeline)
from repro.serve.index import ServingIndex


def _fit_config(seed: int) -> NPRecConfig:
    """A lightened NPRec configuration for CLI-scale corpora."""
    return NPRecConfig(sem=SEMConfig(n_triplets=60, epochs=2),
                       epochs=4, max_positives=120, seed=seed)


def _build_task(scale: float, seed: int, split_year: int,
                n_users: int) -> RecommendationTask:
    corpus = load_acm(scale=scale, seed=seed if seed else None)
    return split_task_by_year(corpus, split_year, n_users=n_users,
                              candidate_size=50, seed=seed)


def _index_kwargs(args: argparse.Namespace) -> dict:
    """Retrieval-strategy kwargs shared by every index-building command."""
    return {"index": args.index, "nprobe": args.nprobe,
            "n_lists": args.n_lists}


def _add_scheduler_args(parser: argparse.ArgumentParser,
                        shed_threshold: bool = False) -> None:
    parser.add_argument("--scheduler", action="store_true",
                        help="attach a micro-batching BatchScheduler so "
                             "the health report carries its scheduler "
                             "check (queue depth, shed rate, BLAS "
                             "threads); no command routes queries "
                             "through it")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="requests per batch flush (a full batch "
                             "flushes immediately)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="max milliseconds a lone request waits for "
                             "batch co-riders before flushing")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="admission-queue bound; overflow sheds to "
                             "the TF-IDF degraded path")
    if shed_threshold:
        parser.add_argument("--shed-threshold", type=float, default=0.25,
                            help="governor latency threshold (seconds) "
                                 "above which requests count against the "
                                 "SLO burn budget")


def _add_index_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--index", choices=("exact", "ivf"), default="exact",
                        help="retrieval strategy: exact blockwise scan "
                             "(default, the oracle) or approximate IVF")
    parser.add_argument("--nprobe", type=int, default=8,
                        help="IVF lists probed per query (clamped to the "
                             "list count; == list count reproduces exact)")
    parser.add_argument("--n-lists", type=int, default=None,
                        help="IVF coarse-cluster count "
                             "(default: round(sqrt(pool)))")


def _fit_and_save(args: argparse.Namespace, out=None):
    """Fit NPRec on the task *args* describe and save it to ``args.dir``.

    The manifest records the task parameters so :func:`_manifest_task`
    can rebuild the evaluation task. Progress goes to *out* (default
    stdout). Returns ``(task, artifact path)``.
    """
    task = _build_task(args.scale, args.seed, args.split_year, args.users)
    print(f"fitting NPRec on {len(task.train_papers)} train / "
          f"{len(task.new_papers)} new papers ...", file=out)
    recommender = NPRecRecommender(_fit_config(args.seed))
    recommender.fit(task.corpus, task.train_papers, task.new_papers)
    path = save_pipeline(recommender, str(args.dir), corpus=task.corpus,
                         extra_metadata={
                             "corpus": "acm", "scale": args.scale,
                             "seed": args.seed, "split_year": args.split_year,
                             "users": args.users,
                         })
    return task, path


def cmd_warmup(args: argparse.Namespace) -> int:
    task, path = _fit_and_save(args)
    print(f"artifact written to {path}")
    if args.index == "ivf":
        # Cluster the evaluation pool once, offline, and persist the
        # quantizer into the artifact — `query`/`serve --index ivf`
        # adopt it by pool fingerprint and never re-cluster at startup.
        index = ServingIndex.from_artifact(str(path), papers=task.new_papers,
                                           **_index_kwargs(args))
        ivf = index.build_ann_index()
        save_ann_index(path, ivf, index.paper_ids)
        print(f"IVF quantizer ({ivf.num_lists} lists over "
              f"{ivf.num_rows} papers) persisted to {path / 'ann'}")
    return 0


def _manifest_task(directory: str) -> RecommendationTask | None:
    """The evaluation task the artifact's manifest records, or None."""
    extra = manifest_extra(directory)
    if "scale" not in extra:
        return None
    return _build_task(float(extra["scale"]), int(extra.get("seed", 0)),
                       int(extra.get("split_year", 2014)),
                       int(extra.get("users", 12)))


def _require_task(command: str, directory: str) -> RecommendationTask | None:
    """:func:`_manifest_task`, reporting on stderr when there is none."""
    task = _manifest_task(directory)
    if task is None:
        print(f"cannot {command}: the manifest at {directory} records no "
              "evaluation task (save it with warmup or serve)",
              file=sys.stderr)
    return task


@contextlib.contextmanager
def _obs_enabled():
    """Record with obs on for one command, then restore the prior state.

    A one-shot command's own work (the load, the fallback probe, a WAL
    replay) then feeds the latency SLOs, and callers that embed the CLI
    see no lasting change to their obs configuration.
    """
    from repro import obs

    was_enabled = obs.is_enabled()
    obs.configure(enabled=True)
    try:
        yield
    finally:
        obs.configure(enabled=was_enabled)


def _load_usable(command: str, args: argparse.Namespace,
                 task: RecommendationTask, wal,
                 what: str = "artifact") -> ServingIndex | None:
    """Load ``args.dir`` over the task's pool with the ``--retries`` and
    index flags; None, reported on stderr, when the load degrades."""
    index = ServingIndex.from_artifact(args.dir, papers=task.new_papers,
                                       wal=wal, retry_attempts=args.retries,
                                       **_index_kwargs(args))
    if index.degraded:
        print(f"cannot {command}: {what} at {args.dir} is unusable "
              f"({index._degraded_reason})", file=sys.stderr)
        return None
    return index


def cmd_query(args: argparse.Namespace) -> int:
    task = _require_task("query", args.dir)
    if task is None:
        return 2
    index = ServingIndex.from_artifact(args.dir, papers=task.new_papers,
                                       **_index_kwargs(args))
    if index.degraded:
        print("WARNING: artifact unusable, serving degraded TF-IDF results",
              file=sys.stderr)
    users = {u.author_id: u for u in task.users}
    if args.user is not None:
        if args.user not in users:
            print(f"unknown user {args.user!r}; known: {sorted(users)}",
                  file=sys.stderr)
            return 2
        user = users[args.user]
    else:
        user = task.users[0]
    top = index.top_k(list(user.train_papers), k=args.k)
    strategy = (f"ivf, nprobe={index.nprobe}" if args.index == "ivf"
                else "exact")
    print(f"top-{args.k} for user {user.author_id} "
          f"(pool of {index.num_papers} papers, {strategy}):")
    for rank, pid in enumerate(top, start=1):
        marker = "*" if pid in user.relevant_ids else " "
        print(f"  {rank:2d}. {marker} {pid}")
    print("(* = held-out ground-truth citation)")
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    task = _build_task(args.scale, args.seed, 2014, 8)
    recommender = NPRecRecommender(_fit_config(args.seed))
    print(f"[1/5] fitting on {len(task.train_papers)} train papers ...")
    recommender.fit(task.corpus, task.train_papers, task.new_papers)
    user = task.users[0]
    candidates = user.candidate_set(20)
    before = recommender.rank(list(user.train_papers), candidates)

    with tempfile.TemporaryDirectory() as scratch:
        directory = args.dir or str(Path(scratch) / "artifact")
        print(f"[2/5] saving artifact to {directory} ...")
        save_pipeline(recommender, directory, corpus=task.corpus)
        print("[3/5] reloading and checking rank() round trip ...")
        reloaded = load_pipeline(directory)
        after = reloaded.rank(list(user.train_papers), candidates)
        if before != after:
            print("FAIL: reloaded ranking differs from the original",
                  file=sys.stderr)
            return 1
        print("[4/5] ingesting one never-seen paper ...")
        index = ServingIndex.from_artifact(directory,
                                           papers=task.new_papers)
        if index.degraded:
            print("FAIL: freshly written artifact failed to load",
                  file=sys.stderr)
            return 1
        # The ingested paper mirrors the user's latest publication (same
        # text and metadata, fresh id): a correct cold-start path must
        # surface it near the top of that user's feed.
        template = user.train_papers[-1]
        fresh = dataclasses.replace(template, id="smoke-ingested-paper",
                                    references=(), citation_count=0)
        index.add_paper(fresh)
        print("[5/5] querying top-10 ...")
        top = index.top_k(list(user.train_papers), k=10)
        if fresh.id not in top:
            print(f"FAIL: ingested paper not in top-10 ({top})",
                  file=sys.stderr)
            return 1
    print("serve smoke OK: exact round trip + cold-start ingestion")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    with _obs_enabled(), contextlib.ExitStack() as stack:
        # The pool `query` serves; empty when the manifest records no
        # task (an unreadable one degrades the load and is reported).
        task = _manifest_task(args.dir)
        index = ServingIndex.from_artifact(
            args.dir, papers=task.new_papers if task else (),
            retry_attempts=args.retries)
        if args.wal:
            # Attach (and replay) the ingestion WAL so the report
            # carries the "wal" check and the compaction-lag SLO judges
            # the actual log size — `health --wal` exits 1 when the log
            # has grown past the lag bound.
            from repro.serve.wal import WriteAheadLog
            index.attach_wal(WriteAheadLog(args.wal),
                             lag_bound=args.wal_lag_bound)
        if args.scheduler:
            # Attach a live scheduler so the report includes the
            # "scheduler" check (queue depth, in-flight batches, shed
            # rate) exactly as a long-running server would publish it.
            from repro.serve.scheduler import BatchScheduler
            scheduler = BatchScheduler(index, max_batch=args.max_batch,
                                       max_wait_ms=args.max_wait_ms,
                                       queue_depth=args.queue_depth)
            stack.callback(scheduler.close)
        report = index.health()
    # stdout stays pure JSON (machine-readable); the per-SLO summary
    # lines go to stderr alongside any UNHEALTHY banner.
    print(json.dumps(report, indent=2, sort_keys=True))
    for status in report["slos"]:
        state = ("no data" if status["no_data"]
                 else "ok" if status["ok"] else "BREACH")
        print(f"SLO [{status['slo']}] ({status['kind']}): {state}"
              + (f" — {status['detail']}" if status["detail"] else ""),
              file=sys.stderr)
    if not report["healthy"]:
        print("UNHEALTHY: see checks above", file=sys.stderr)
        return 1
    return 0


def _default_wal(directory: str) -> str:
    """WAL path convention: a sibling of the artifact directory.

    The log must live *outside* the artifact tree — the manifest
    checksums every file under the directory, and a log that keeps
    growing after ``save_pipeline`` would fail verification on the next
    health probe.
    """
    return str(Path(directory).with_name(Path(directory).name + ".wal"))


def cmd_compact(args: argparse.Namespace) -> int:
    from repro.serve.wal import WriteAheadLog

    task = _require_task("compact", args.dir)
    if task is None:
        return 2
    wal_path = args.wal or _default_wal(args.dir)
    with _obs_enabled():
        # The evaluation pool first, then every durable record replayed
        # (recovering any torn tail first): the in-memory pool is exactly
        # what a crashed server would come back with, in its order —
        # that is what gets baked in.
        index = _load_usable("compact", args, task, WriteAheadLog(wal_path))
        if index is None:
            return 2
        summary = index.compact()
    summary["wal"] = wal_path
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"compacted {summary['records_compacted']} WAL records into "
          f"{summary['directory']} (pool of {summary['pool_size']})",
          file=sys.stderr)
    return 0


def cmd_swap(args: argparse.Namespace) -> int:
    from repro.serve.swap import HotSwapper
    from repro.serve.wal import WriteAheadLog

    task = _require_task("swap", args.dir)
    if task is None:
        return 2
    with _obs_enabled():
        wal = WriteAheadLog(args.wal) if args.wal else None
        index = _load_usable("swap", args, task, wal, what="live artifact")
        if index is None:
            return 2
        # The evaluation users double as the canary golden set — both
        # indexes answer the same queries and must mostly agree.
        for user in task.users:
            index.register_user(user.author_id, list(user.train_papers))
        swapper = HotSwapper(index, golden_k=args.k,
                             min_overlap=args.min_overlap,
                             retry_attempts=args.retries)
        report = swapper.swap(args.candidate)
    print(json.dumps(report.snapshot(), indent=2, sort_keys=True))
    if report.swapped:
        print(f"swapped to {args.candidate} "
              f"({report.delta_papers} papers replayed at cutover)",
              file=sys.stderr)
        return 0
    print(f"NOT swapped ({report.outcome}): {report.error}", file=sys.stderr)
    return 1


def _load_or_fit_index(args: argparse.Namespace):
    """Fit-or-load the artifact for ``serve``: (task or None, index)."""
    directory = Path(args.dir)
    staging.recover(directory)  # a crash mid-swap leaves only the backup
    if (directory / staging.MANIFEST_NAME).exists():
        print(f"loading artifact from {directory} ...", file=sys.stderr)
        task = _manifest_task(str(directory))
        if task is None:
            print("WARNING: the manifest records no evaluation task; "
                  "serving an empty pool", file=sys.stderr)
    else:
        print(f"no artifact at {directory}; fitting one "
              f"(scale={args.scale}, seed={args.seed}) ...", file=sys.stderr)
        task, _ = _fit_and_save(args, out=sys.stderr)
    index = ServingIndex.from_artifact(str(directory),
                                       papers=task.new_papers if task else (),
                                       cache_size=args.cache_size,
                                       **_index_kwargs(args))
    return task, index


def cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading
    import time

    from repro import obs
    from repro.serve.wal import WriteAheadLog

    # Ops plane first: the flight recorder is armed before anything that
    # can crash, so even a failed warmup leaves a postmortem bundle.
    obs.configure(enabled=True, reset=True)
    recorder = obs.get_flight_recorder()
    recorder.arm(args.postmortem_dir)

    task, index = _load_or_fit_index(args)
    if index.degraded:
        print("WARNING: index is degraded; serving the TF-IDF fallback only",
              file=sys.stderr)
    for user in task.users if task else ():
        index.register_user(user.author_id, list(user.train_papers))
    wal_path = args.wal or _default_wal(args.dir)
    index.attach_wal(WriteAheadLog(wal_path), lag_bound=args.wal_lag_bound)

    scheduler = None
    if args.scheduler:
        from repro.serve.scheduler import BatchScheduler, SheddingGovernor
        scheduler = BatchScheduler(
            index, max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            queue_depth=args.queue_depth,
            governor=SheddingGovernor(threshold=args.shed_threshold))

    server = obs.ObsServer(index=index, recorder=recorder,
                           host=args.host, port=args.port)
    server.start()
    # First stdout line is the machine-readable announcement CI and the
    # daemon tests parse for the (ephemeral) port; chatter goes to stderr.
    print(json.dumps({"url": server.url, "port": server.port,
                      "pid": os.getpid(), "artifact": str(args.dir),
                      "wal": wal_path,
                      "scheduler": scheduler is not None,
                      "postmortems": args.postmortem_dir}), flush=True)
    print(f"ops plane at {server.url} "
          f"(/metrics /healthz /readyz /slo /debug/vars /exemplars); "
          "SIGTERM or SIGINT to stop", file=sys.stderr)

    stop = threading.Event()

    def _signalled(signum, frame):  # noqa: ARG001 - signal signature
        print(f"received signal {signum}; draining ...", file=sys.stderr)
        stop.set()

    previous_handlers = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _signalled)
    except ValueError:
        # Not the main thread (embedded test run): --duration bounds us.
        pass
    deadline = (time.monotonic() + args.duration
                if args.duration is not None else None)
    try:
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                print(f"duration of {args.duration}s elapsed; draining ...",
                      file=sys.stderr)
                break
            stop.wait(0.2)
    finally:
        if scheduler is not None:
            # Drain barrier first so no in-flight batch straddles
            # shutdown, then release the worker threads.
            with scheduler.quiesce():
                pass
            scheduler.close()
        if args.final_postmortem:
            path = recorder.dump_postmortem(args.postmortem_dir, "shutdown")
            print(f"final postmortem: {path}", file=sys.stderr)
        server.stop()
        if index.wal is not None:
            index.wal.close()
        recorder.disarm()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    print("serve daemon stopped cleanly", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persist and serve a fitted NPRec pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    warmup = sub.add_parser("warmup", help="fit and persist a pipeline")
    warmup.add_argument("--dir", default="artifacts/serve")
    warmup.add_argument("--scale", type=float, default=0.5)
    warmup.add_argument("--seed", type=int, default=0)
    warmup.add_argument("--split-year", type=int, default=2014)
    warmup.add_argument("--users", type=int, default=12)
    _add_index_args(warmup)
    warmup.set_defaults(fn=cmd_warmup)

    query = sub.add_parser("query", help="top-K from a saved artifact")
    query.add_argument("--dir", default="artifacts/serve")
    query.add_argument("--user", default=None,
                       help="author id (defaults to the first test user)")
    query.add_argument("-k", type=int, default=10)
    _add_index_args(query)
    query.set_defaults(fn=cmd_query)

    smoke = sub.add_parser("smoke",
                           help="save/reload/ingest/query end-to-end check")
    smoke.add_argument("--dir", default=None,
                       help="artifact directory (default: temporary)")
    smoke.add_argument("--scale", type=float, default=0.35)
    smoke.add_argument("--seed", type=int, default=7)
    smoke.set_defaults(fn=cmd_smoke)

    health = sub.add_parser(
        "health", help="artifact + index health checks, exit 1 on unhealthy")
    health.add_argument("--dir", default="artifacts/serve")
    health.add_argument("--retries", type=int, default=3,
                        help="artifact load attempts before degrading")
    health.add_argument("--wal", default=None,
                        help="ingestion WAL to attach; the report then "
                             "includes the wal check and the "
                             "serve.wal.lag SLO")
    health.add_argument("--wal-lag-bound", type=int, default=10_000,
                        help="max WAL records before the lag SLO breaches")
    _add_scheduler_args(health)
    health.set_defaults(fn=cmd_health)

    compact = sub.add_parser(
        "compact",
        help="replay the ingestion WAL into the artifact and truncate it")
    compact.add_argument("--dir", default="artifacts/serve")
    compact.add_argument("--wal", default=None,
                         help="WAL path (default: <dir>.wal, beside the "
                              "artifact — never inside it)")
    compact.add_argument("--retries", type=int, default=3)
    _add_index_args(compact)
    compact.set_defaults(fn=cmd_compact)

    swap = sub.add_parser(
        "swap",
        help="canary-validated zero-downtime swap to a retrained artifact")
    swap.add_argument("--dir", default="artifacts/serve",
                      help="live artifact directory")
    swap.add_argument("--candidate", required=True,
                      help="retrained artifact directory to adopt")
    swap.add_argument("--wal", default=None,
                      help="live ingestion WAL to attach before swapping")
    swap.add_argument("-k", type=int, default=10,
                      help="canary query depth (overlap@k)")
    swap.add_argument("--min-overlap", type=float, default=0.6,
                      help="mean canary overlap@k floor; below it the "
                           "swap rolls back")
    swap.add_argument("--retries", type=int, default=3)
    _add_index_args(swap)
    swap.set_defaults(fn=cmd_swap)

    serve = sub.add_parser(
        "serve",
        help="long-running serving daemon with the embedded HTTP ops "
             "plane (/metrics, /healthz, /readyz, /slo, /debug/vars, "
             "/exemplars) and an armed flight recorder")
    serve.add_argument("--dir", default="artifacts/serve",
                       help="artifact directory (loaded when present, "
                            "fitted and persisted otherwise)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="ops-plane port (0: ephemeral; read it from "
                            "the first stdout JSON line)")
    serve.add_argument("--wal", default=None,
                       help="ingestion WAL path (default: <dir>.wal)")
    serve.add_argument("--wal-lag-bound", type=int, default=10_000)
    serve.add_argument("--duration", type=float, default=None,
                       help="stop after this many seconds (default: run "
                            "until SIGTERM/SIGINT)")
    serve.add_argument("--postmortem-dir", default="results/postmortems",
                       help="where flight-recorder crash bundles land")
    serve.add_argument("--final-postmortem", action="store_true",
                       help="dump a postmortem bundle on clean shutdown "
                            "too (postmortem-on-demand)")
    serve.add_argument("--scale", type=float, default=0.3)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--split-year", type=int, default=2014)
    serve.add_argument("--users", type=int, default=12)
    serve.add_argument("--cache-size", type=int, default=128)
    _add_index_args(serve)
    _add_scheduler_args(serve, shed_threshold=True)
    serve.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
