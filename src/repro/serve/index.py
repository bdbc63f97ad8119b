"""Online serving: precomputed embeddings, blockwise top-K, ingestion.

:class:`ServingIndex` is the query-side half of :mod:`repro.serve`. It
holds a *candidate pool* of papers with their influence representations
precomputed, plus precomputed interest profiles for registered users,
and answers top-K queries with a bounded heap over fixed-size blocks.
Besides one block's scores and the heap, a query holds one
``n_pool * n_interest`` array, its content-block term over the whole
pool (0.9 MB for a 148-row profile against 773 papers).

Pool rows and profiles are :class:`~repro.serve.ann.SplitRows`: the
model's learned blocks as a dense head and its gated lexical content
block as a CSR :class:`~repro.core.nprec.model.ContentRows` store (a
model without a content block gives plain head-only arrays). The pool's
head lives in a capacity-doubling buffer and its content store grows
the same way, so an ingest appends one row to each. Every path scores
with :mod:`repro.serve.ann`'s pooled correlation, which reads the content
block's non-zeros instead of its zeros.

Scoring matches :meth:`NPRecRecommender._rank`'s correlation term —
``mix * max + (1 - mix) * mean`` over the user's interest vectors — with
one documented serving simplification: the profile-text blend is
omitted (it requires a full re-rank per query, which contradicts
blockwise retrieval).

There is one rank path: :meth:`ServingIndex.batch_top_k`. Serial
:meth:`ServingIndex.top_k` is a batch of one, and the micro-batching
scheduler (:mod:`repro.serve.scheduler`) feeds it larger batches. The
path snapshots pool state under ``_serve_lock`` and scores with the
lock released, on one BLAS thread (:mod:`repro.utils.blas`).

Retrieval is a pluggable strategy: ``index="exact"`` (the default, and
the correctness oracle) scores every pool row blockwise;
``index="ivf"`` routes queries through a pure-numpy IVF coarse
quantizer (:mod:`repro.serve.ann`) that exact-scores only the
``nprobe`` most promising inverted lists — same score function, same
tie-breaking, a measured recall@K trade documented in
``BENCH_ann.json`` and gated in CI. Probing every list reproduces the
exact ranking order-for-order.

New papers enter through :meth:`ServingIndex.add_paper` — the Sec. IV-E
cold-start path at serving time: SEM subspace embedding, metadata-only
graph attachment, embedding imputation from neighbours. No retraining.
Under ``index="ivf"`` the new row joins its nearest centroid's list,
and a lopsided list (``recluster_factor`` × the mean occupancy)
triggers a full deterministic re-cluster, counted as
``serve.ann.recluster``.

Degradation is graceful and observable: an unloadable artifact
(:meth:`ServingIndex.from_artifact`) or a query touching entities the
model has never seen falls back to TF-IDF content ranking, counting
``serve.degraded`` with a ``reason`` label. The fallback scores a sparse
dot product over the pool's rows in the index's one TF-IDF vocabulary
(the content block's; the pool's when no model loads), kept in a
:class:`~repro.core.nprec.model.ContentRows` CSR store that is built on
first use and then grows by one row per ingest.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.obs.slo import (default_serving_slos, evaluate_registered,
                           register_slo, wal_lag_slo)
from repro.baselines.content import TfIdfIndex
from repro.core.nprec.model import ContentRows
from repro.core.nprec.recommend import CONTENT_FEATURES, NPRecRecommender
from repro.data.io import paper_from_dict
from repro.data.schema import Paper
from repro.errors import (ArtifactError, GraphError, InjectedFault,
                          NotFittedError, ReproError, RetryExhaustedError,
                          WALError)
from repro.graph.builder import attach_paper_to_network
from repro.nn import no_grad
from repro.resilience import faults
from repro.resilience.retry import Backoff, retry
from repro.utils.blas import single_threaded_blas
# exact_top_k is unused here; bench/tests/test_tracing.py expects it bound.
from repro.serve.ann import (IVFIndex, Rows, SplitRows,  # noqa: F401
                             _dense, batch_exact_top_k, exact_top_k,
                             rank_candidates)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.scheduler import BatchScheduler
    from repro.serve.wal import WALRecord, WriteAheadLog

#: Initial head-buffer capacity (rows); doubles on overflow, so
#: ingesting n papers copies O(n) floats total instead of O(n^2).
_INITIAL_CAPACITY = 8


@dataclass
class BatchQueryResult:
    """Outcome of one request inside a :meth:`ServingIndex.batch_top_k`.

    ``scores`` carries the ranked pooled scores when the answer was
    computed in this batch (``None`` on a cache hit, whose scores were
    produced — bit-identically — by an earlier computation).
    ``pool_version`` stamps the pool state the answer reflects, so a
    response produced while ingestion raced the batch can be checked
    against the right serial oracle (pre- or post-ingest, never a torn
    mix). A per-request validation failure (unknown user, bad k) lands
    in ``error`` instead of failing the whole batch.
    """

    ids: list[str] = field(default_factory=list)
    scores: np.ndarray | None = None
    pool_version: int = -1
    cache: str = "miss"
    degraded_reason: str | None = None
    error: Exception | None = None


class _BatchJob:
    """One deduplicated unit of batch work: a distinct ``(user, k)``."""

    __slots__ = ("cache_key", "papers", "profile", "k", "positions", "mode",
                 "reason", "fault", "interest", "candidates", "stats",
                 "ids", "scores")

    def __init__(self, cache_key: tuple, papers: list, profile, k: int) -> None:
        self.cache_key = cache_key
        self.papers = papers
        self.profile = profile
        self.k = k
        self.positions: list[int] = []  # request indices sharing this job
        self.mode = "rank"
        self.reason: str | None = None
        self.fault = False
        self.interest: np.ndarray | None = None
        self.candidates: np.ndarray | None = None
        self.stats = None
        self.ids: list[str] = []
        self.scores: np.ndarray | None = None


class ServingIndex:
    """Blockwise top-K retrieval over a pool of recommendable papers.

    Parameters
    ----------
    recommender:
        A fitted :class:`NPRecRecommender`, or ``None`` for a degraded
        (TF-IDF only) index.
    papers:
        The initial candidate pool. Papers already in the model's graph
        (e.g. the fit-time new papers) are indexed directly; papers the
        model has never seen are ingested through :meth:`add_paper`.
    author_affiliations:
        ``author id -> affiliation`` map so ingested papers keep
        affiliation edges for known authors (see
        :func:`repro.serve.artifacts.load_author_affiliations`).
    block_size:
        Candidates scored per matmul block during retrieval.
    cache_size:
        Bound on the LRU query cache (distinct ``(user, k)`` entries).
    index:
        Retrieval strategy — ``"exact"`` (default; scores the whole
        pool, the correctness oracle) or ``"ivf"`` (approximate;
        coarse-quantized probing via :class:`repro.serve.ann.IVFIndex`).
    nprobe:
        Inverted lists probed per ``"ivf"`` query (clamped to the list
        count; probing every list reproduces the exact ranking).
    n_lists:
        Coarse-cluster count for ``"ivf"``; default ``round(sqrt(n))``
        for the ``n`` rows of the pool as loaded (see
        :meth:`build_ann_index`).
    ann_seed:
        Seed of the deterministic k-means quantizer.
    """

    def __init__(self, recommender: NPRecRecommender | None,
                 papers: Sequence[Paper] = (),
                 author_affiliations: dict[str, str] | None = None,
                 block_size: int = 512, cache_size: int = 128,
                 index: str = "exact", nprobe: int = 8,
                 n_lists: int | None = None, ann_seed: int = 0) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if index not in ("exact", "ivf"):
            raise ValueError(f"index must be 'exact' or 'ivf', got {index!r}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        if n_lists is not None and n_lists < 1:
            raise ValueError(f"n_lists must be >= 1, got {n_lists}")
        if recommender is not None and (recommender.model is None
                                        or recommender.sem is None):
            raise NotFittedError("ServingIndex needs a *fitted* recommender")
        self.block_size = block_size
        self.cache_size = cache_size
        self._recommender = recommender
        self._affiliations = dict(author_affiliations or {})
        self._papers: list[Paper] = []
        self._ids: list[str] = []
        self._positions: dict[str, int] = {}
        # Influence rows live in a capacity-doubling head buffer plus a
        # ContentRows store (which grows the same way) when the model has
        # a content block; `_influence` views their filled prefixes.
        # Appends are amortized O(d) instead of an O(n*d) copy per paper.
        self._head_buffer: np.ndarray | None = None
        self._pool_content: ContentRows | None = None
        self._pool_count = 0
        #: ``(pool version, rows)``: the last `_influence` snapshot, so
        #: its content store's CSR matrix is built once per version.
        self._pool_rows: "tuple[int, Rows] | None" = None
        self.index_kind = index
        self.nprobe = nprobe
        self._n_lists = n_lists
        self._ann_seed = ann_seed
        self._ann: IVFIndex | None = None
        #: user id -> (profile papers, precomputed interest rows or None)
        self._profiles: dict[str, tuple[list[Paper], Rows | None]] = {}
        self._cache: "OrderedDict[tuple, tuple[str, ...]]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        #: The vocabulary when fully degraded (see _content_tfidf).
        self._pool_tfidf: TfIdfIndex | None = None
        #: The pool's TF-IDF rows, built on first fallback use.
        self._fallback_rows: ContentRows | None = None
        #: Artifact directory this index was loaded from, when known —
        #: lets :meth:`health` re-verify checksums in place.
        self._artifact_dir: Path | None = None
        self._degraded_reason: str | None = ("no_model" if recommender is None
                                             else None)
        self._last_load_error: RetryExhaustedError | None = None
        # Monotone stamp of result-affecting pool state: bumps on every
        # append, nprobe retune, and influence heal. Batched responses
        # are stamped with the version they were computed against.
        self._pool_version = 0
        #: Attached micro-batching scheduler, reported by health().
        self._scheduler: "BatchScheduler | None" = None
        #: Attached write-ahead log (see attach_wal); while it is set,
        #: every add_paper is durably logged before it is applied.
        self._wal: "WriteAheadLog | None" = None
        # True only while attach_wal replays recovered records: the
        # replayed ingests are *already* in the log and must not be
        # re-appended.
        self._wal_replaying = False
        # Serialises pool mutation and retrieval so the index can be
        # driven from concurrent threads (the serve daemon's scheduler
        # workers and ingest callers). Reentrant: add_paper at
        # construction time and health probes nest inside already-locked
        # sections.
        self._serve_lock = threading.RLock()
        # Publish the serving objectives once; replace=False keeps any
        # operator-tuned SLO registered under the same name.
        for slo in default_serving_slos():
            register_slo(slo, replace=False)

        papers = list(papers)
        if self.degraded:
            for paper in papers:
                self._append(paper, None)
        else:
            graph = recommender.model.graph
            known = [p for p in papers if ("paper", p.id) in graph]
            for start in range(0, len(known), block_size):
                block = known[start:start + block_size]
                rows = self._influence_rows([p.id for p in block])
                for i, paper in enumerate(block):
                    self._append(paper, rows[i:i + 1])
            for paper in papers:
                if ("paper", paper.id) not in graph:
                    self.add_paper(paper)
        #: Pool rows at load time, before any ingest or WAL replay: what
        #: a lazily fitted quantizer clusters (see _ensure_ann).
        self._loaded_count = self._pool_count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True when no model is available and every query is TF-IDF."""
        return self._recommender is None

    @property
    def num_papers(self) -> int:
        """Current candidate-pool size."""
        return len(self._papers)

    @property
    def paper_ids(self) -> list[str]:
        """Pool paper ids, in insertion order."""
        return list(self._ids)

    @property
    def pool_version(self) -> int:
        """Monotone stamp of result-affecting state (see batch_top_k)."""
        return self._pool_version

    @property
    def scheduler(self) -> "BatchScheduler | None":
        """The attached micro-batching scheduler, when one is serving."""
        return self._scheduler

    def attach_scheduler(self, scheduler: "BatchScheduler") -> None:
        """Register *scheduler* so :meth:`health` reports its state."""
        self._scheduler = scheduler

    def detach_scheduler(self, scheduler: "BatchScheduler | None" = None) -> None:
        """Drop the attached scheduler (no-op when another is attached)."""
        if scheduler is None or self._scheduler is scheduler:
            self._scheduler = None

    @property
    def _influence(self) -> Rows | None:
        """The pool rows' filled prefix (None when empty): a snapshot that
        later appends do not change, one per pool version."""
        if self._pool_count == 0:
            return None
        if self._pool_rows is None or self._pool_rows[0] != self._pool_version:
            rows = self._head_buffer[:self._pool_count]
            if self._pool_content is not None:
                rows = SplitRows(rows, self._pool_content.snapshot(),
                                 self._recommender.model.content_columns.start)
            self._pool_rows = (self._pool_version, rows)
        return self._pool_rows[1]

    @property
    def ann(self) -> IVFIndex | None:
        """The coarse quantizer, once built (``index="ivf"`` only)."""
        return self._ann

    # ------------------------------------------------------------------
    # Construction from an artifact
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, directory, papers: Sequence[Paper] = (),
                      block_size: int = 512, cache_size: int = 128,
                      retry_attempts: int = 3, index: str = "exact",
                      nprobe: int = 8, n_lists: int | None = None,
                      ann_seed: int = 0, wal: "WriteAheadLog | None" = None,
                      wal_lag_bound: int = 10_000) -> "ServingIndex":
        """Build an index from a saved artifact, degrading on failure.

        The load is retried *retry_attempts* times with deterministic
        exponential backoff (transient faults — injected or real — often
        clear). A corrupt, missing, or wrong-schema artifact that
        survives every attempt does **not** raise: the index comes up in
        degraded TF-IDF mode (``serve.degraded`` counted with
        ``reason="artifact_load_failed"``) so the service keeps
        answering, just without the learned model. The exhausted-retry
        attempt log stays inspectable on the returned index (and in the
        :meth:`health` report).

        A pool snapshot persisted by :meth:`compact`
        (``pool/pool.json``) is merged into *papers* — snapshot order
        first, then any *papers* not already in it — so compacted
        ingests survive restarts with no WAL records left to replay.
        Passing *wal* attaches (and replays) a write-ahead log via
        :meth:`attach_wal` after construction, making the index durable
        end to end in one call.

        With ``index="ivf"``, a quantizer persisted next to the
        pipeline (:func:`repro.serve.artifacts.save_ann_index`) is
        adopted when its pool fingerprint matches *papers* — warmup
        clusters once, serving never re-clusters. A missing or stale
        ANN artifact falls back to a lazy deterministic refit on first
        query (counted as ``serve.ann.artifact{outcome=...}``).
        """
        from repro.serve.artifacts import (load_ann_index,
                                           load_author_affiliations,
                                           load_pipeline, load_pool,
                                           pool_fingerprint)

        try:
            snapshot = load_pool(directory)
        except (ArtifactError, OSError, ValueError):
            snapshot = []
            obs.count("serve.artifact.pool", outcome="corrupt")
        else:
            if snapshot:
                obs.count("serve.artifact.pool", outcome="loaded")
        if snapshot:
            merged: "dict[str, Paper]" = {p.id: p for p in snapshot}
            for paper in papers:
                merged.setdefault(paper.id, paper)
            papers = list(merged.values())

        @retry(attempts=retry_attempts, backoff=Backoff(base=0.02),
               retry_on=(ArtifactError, InjectedFault, RetryExhaustedError,
                         OSError),
               name="serve.from_artifact")
        def _load():
            return load_pipeline(directory), load_author_affiliations(directory)

        options = dict(block_size=block_size, cache_size=cache_size,
                       index=index, nprobe=nprobe, n_lists=n_lists,
                       ann_seed=ann_seed)
        try:
            recommender, affiliations = _load()
        except RetryExhaustedError as exc:
            obs.count("serve.degraded", reason="artifact_load_failed")
            obs.event("serve.degraded", reason="artifact_load_failed")
            obs.count("serve.artifact.load_failures")
            with obs.trace("serve.degraded_startup", error=str(exc)):
                built = cls(None, papers, **options)
            built._degraded_reason = "artifact_load_failed"
            built._last_load_error = exc
        else:
            built = cls(recommender, papers,
                        author_affiliations=affiliations, **options)
        built._artifact_dir = Path(directory)
        if index == "ivf" and not built.degraded:
            try:
                ivf, meta = load_ann_index(directory)
            except (ArtifactError, OSError):
                obs.count("serve.ann.artifact", outcome="absent")
            else:
                if (meta.get("pool_sha256") == pool_fingerprint(built._ids)
                        and ivf.num_rows == built.num_papers):
                    built._ann = ivf
                    obs.count("serve.ann.artifact", outcome="adopted")
                else:
                    # Stale fingerprint: the serving pool is not the one
                    # the quantizer was built over; refit lazily.
                    obs.count("serve.ann.artifact", outcome="stale")
        if wal is not None:
            # After ANN adoption on purpose: replayed ingests must route
            # through the adopted quantizer's incremental add path —
            # exactly like the live ingests they reproduce — not force a
            # stale-fingerprint refit.
            built.attach_wal(wal, lag_bound=wal_lag_bound)
        return built

    # ------------------------------------------------------------------
    # Pool maintenance
    # ------------------------------------------------------------------
    def add_paper(self, paper: Paper) -> int:
        """Ingest one newly published paper without retraining.

        Runs the model's cold-start path — SEM fused text embedding with
        the fit-time encoder, lexical content row with the fit-time
        TF-IDF vocabulary, metadata-only graph attachment, base-embedding
        imputation from neighbours — then precomputes the paper's
        influence row and invalidates the query cache. In degraded mode
        the paper simply joins the TF-IDF pool.

        Ingestion is atomic under injected faults: the fallible
        embedding work (``serve.ingest`` / ``sem.embed`` fault sites) is
        retried *before* the graph is mutated, and a
        :class:`~repro.errors.RetryExhaustedError` leaves the pool and
        the model untouched.

        Returns the paper's position in the pool.
        """
        rec = self._recommender
        graph = None if rec is None else rec.model.graph
        with obs.request("serve.add_paper", paper=paper.id) as span:
            with self._serve_lock:
                if paper.id in self._positions:
                    raise ValueError(
                        f"paper {paper.id!r} is already in the pool")
                known = graph is None or ("paper", paper.id) in graph
            text_vector = content_vector = None
            if not known:
                # The fallible, pure, *expensive* half (SEM embedding,
                # TF-IDF row) runs with _serve_lock released: concurrent
                # queries and batch flushes keep flowing while this
                # paper embeds, and a retry never observes a
                # half-ingested paper. Commit re-checks under the lock.
                text_vector, content_vector = self._prepare_ingest(paper)
            with self._serve_lock:
                if paper.id in self._positions:
                    raise ValueError(
                        f"paper {paper.id!r} is already in the pool")
                # Write-ahead: the record must be durable *before* any
                # graph/model/pool mutation, so a crash at any later
                # point leaves an ingest that replay will redo — and a
                # crash here (the serve.wal.append fault site) leaves
                # no record, no mutation, and no acknowledgement.
                self._wal_log(paper)
                row = None
                if graph is not None:
                    # A paper known to the model (e.g. a fit-time paper
                    # joining the pool late) needs no graph/model mutation.
                    if ("paper", paper.id) not in graph:
                        index = attach_paper_to_network(graph, paper,
                                                        self._affiliations)
                        rec.model.attach_paper(index, text_vector=text_vector,
                                               content_vector=content_vector)
                    row = self._influence_rows([paper.id])
                obs.count("serve.papers_ingested",
                          **({"mode": "degraded"} if graph is None else {}))
                self._append(paper, row, content_vector)
                self._cache.clear()
                position = self._positions[paper.id]
        # The P² sketch behind the serve.ingest.p99 SLO.
        obs.observe_quantile("serve.ingest.latency", span.duration)
        return position

    def _prepare_ingest(self, paper: Paper) -> tuple:
        """The fallible, side-effect-free half of ingestion, retried.

        Computes the SEM text vector and TF-IDF content row under the
        ``serve.ingest`` fault site (and, transitively, ``sem.embed``)
        *before* any graph or model mutation, so a retry never observes
        a half-ingested paper.
        """
        rec = self._recommender
        model = rec.model

        @retry(attempts=3, backoff=Backoff(base=0.02),
               retry_on=(InjectedFault,), name="serve.ingest")
        def _prepare():
            faults.maybe_fail("serve.ingest")
            text_vector = content_vector = None
            if model.use_text:
                text_vector = rec.sem.fused_embeddings([paper])[0]
            if model.content_matrix is not None:
                content_vector = self._content_tfidf().transform(paper)
            return text_vector, content_vector

        return _prepare()

    # ------------------------------------------------------------------
    # Durability: write-ahead log
    # ------------------------------------------------------------------
    @property
    def wal(self) -> "WriteAheadLog | None":
        """The attached write-ahead log, when ingestion is durable."""
        return self._wal

    def _wal_log(self, paper: Paper) -> None:
        """Durably log one ingest-to-be (no-op without a WAL / in replay)."""
        if self._wal is not None and not self._wal_replaying:
            self._wal.append(paper, self._pool_version)

    def attach_wal(self, wal: "WriteAheadLog", replay: bool = True,
                   lag_bound: int = 10_000) -> int:
        """Attach *wal*, recover it, and replay its records into the pool.

        From here on every successful :meth:`add_paper` appends a
        checksummed record to *wal* — fsync'd **before** the mutation is
        applied or acknowledged — so a restarted process can call
        ``attach_wal`` on the same log file and reproduce the
        never-crashed process' pool bit for bit: replay drives the same
        ingests in order, and a row depends only on the fixed neighbour
        tables, not on which users registered or which queries ran.

        Recovery drops torn-tail records (see
        :meth:`repro.serve.wal.WriteAheadLog.recover`); replay applies
        the surviving records in append order through the normal
        ingestion path, skipping papers already in the pool (idempotent
        after :meth:`compact`). Each replayed record passes the
        ``serve.wal.replay`` fault site inside a 3-attempt retry;
        exhaustion raises :class:`~repro.errors.WALError` — an
        acknowledged ingest that cannot be reapplied is data loss, and
        startup fails loudly rather than serving a silently shrunken
        pool. Outcomes are counted under
        ``serve.wal.replayed{outcome=applied|skipped|failed}``.

        Also registers the compaction-lag objective
        (:func:`repro.obs.slo.wal_lag_slo` with *lag_bound*) so
        :meth:`health` pages when the log outgrows cheap replay.

        Returns the number of records applied.
        """
        with self._serve_lock:
            records = wal.recover()
            self._wal = wal
            applied = self._replay_wal(records) if replay else 0
            obs.gauge("serve.wal.lag", float(wal.lag))
        # replace=True so the *lag_bound* passed here always wins — a
        # stale registration from an earlier attach (different bound)
        # must not silently override the operator's current choice.
        register_slo(wal_lag_slo(bound=lag_bound))
        return applied

    def _replay_wal(self, records: "Sequence[WALRecord]") -> int:
        """Reapply recovered WAL records in order; returns applied count."""
        applied = 0
        self._wal_replaying = True
        try:
            with obs.trace("serve.wal.replay", records=len(records)) as span:
                for record in records:
                    if record.paper.get("id") in self._positions:
                        obs.count("serve.wal.replayed", outcome="skipped")
                        continue
                    paper = paper_from_dict(record.paper)

                    @retry(attempts=3, backoff=Backoff(base=0.02),
                           retry_on=(InjectedFault,), name="serve.wal.replay")
                    def _apply(paper: Paper = paper) -> None:
                        faults.maybe_fail("serve.wal.replay")
                        self.add_paper(paper)

                    try:
                        _apply()
                    except ReproError as exc:
                        obs.count("serve.wal.replayed", outcome="failed")
                        error = WALError(
                            f"replay of WAL record #{record.seq} (paper "
                            f"{record.paper.get('id')!r}) failed — the log "
                            f"acknowledged this ingest, refusing to serve "
                            f"without it: {exc}")
                        obs.get_flight_recorder().trip("wal_replay_failed",
                                                       exc=error)
                        raise error from exc
                    obs.count("serve.wal.replayed", outcome="applied")
                    applied += 1
                span.set("applied", applied)
        finally:
            self._wal_replaying = False
        return applied

    def compact(self, directory: "str | Path | None" = None) -> dict:
        """Bake WAL-covered mutations into the artifact; truncate the log.

        Under ``_serve_lock``: writes one staged snapshot
        (:func:`repro.serve.artifacts.save_compacted`) of the pool, the
        re-saved pipeline (keeping the manifest's ``extra``, which the
        CLI rebuilds its pool from) and the IVF quantizer (fitted first
        by :meth:`_ensure_ann` when no query has fitted it), and only
        *then* truncates the log. A crash at any point leaves the old
        artifact with the whole log or the new one; either restarts to
        the same pool and answers. A degraded index carries the
        artifact's payloads under their old checksums instead.

        *directory* defaults to the artifact directory the index was
        loaded from. Returns a summary dict (records compacted, pool
        size, directory).
        """
        from repro.serve.artifacts import save_compacted
        with self._serve_lock:
            if self._wal is None:
                raise WALError("compact() needs an attached write-ahead log "
                               "(call attach_wal first)")
            target = Path(directory) if directory is not None \
                else self._artifact_dir
            if target is None:
                raise WALError("compact() needs an artifact directory: the "
                               "index was not loaded from one, so pass "
                               "directory= explicitly")
            ivf = self._ann
            if (self.index_kind == "ivf" and not self.degraded
                    and self._influence is not None):
                # Fit now if no query has: a restart adopts the saved
                # quantizer, whereas one that fitted its own would
                # cluster the compacted ingests the live index added.
                ivf = self._ensure_ann()
            with obs.trace("serve.wal.compact", records=self._wal.lag,
                           pool=self.num_papers):
                save_compacted(target, None if self.degraded
                               else self._recommender, self._papers,
                               self._artifact_dir or target,
                               self._affiliations, ivf)
                dropped = self._wal.truncate()
            self._artifact_dir = target
            pool_size = self.num_papers
        return {"records_compacted": dropped, "pool_size": pool_size,
                "directory": str(target)}

    def _adopt(self, donor: "ServingIndex") -> None:
        """Transplant *donor*'s pool/model state into this index in place.

        The hot-swap cutover primitive (:class:`repro.serve.swap.
        HotSwapper`): callers everywhere hold references to *this*
        index object — the scheduler, the CLI, the ops plane — so
        the swap mutates it under ``_serve_lock`` instead of handing
        out a new object. Serving-surface configuration (block size,
        cache capacity, retrieval strategy, attached scheduler, WAL)
        stays this index's own; everything the donor computed — model,
        pool, influence rows, quantizer, profiles, fallback — moves
        over. The cache is dropped and the pool version bumped past
        both indexes so any in-flight batch publishes nothing stale.
        """
        with self._serve_lock:
            self._recommender = donor._recommender
            self._affiliations = donor._affiliations
            self._papers = donor._papers
            self._ids = donor._ids
            self._positions = donor._positions
            self._head_buffer = donor._head_buffer
            self._pool_content = donor._pool_content
            self._pool_count = donor._pool_count
            self._loaded_count = donor._loaded_count
            self._ann = donor._ann
            self._n_lists = donor._n_lists
            self._ann_seed = donor._ann_seed
            self._profiles = donor._profiles
            self._pool_tfidf = donor._pool_tfidf
            self._fallback_rows = donor._fallback_rows
            self._artifact_dir = donor._artifact_dir
            self._degraded_reason = donor._degraded_reason
            self._last_load_error = donor._last_load_error
            self._cache.clear()
            self._pool_version = max(self._pool_version,
                                     donor._pool_version) + 1

    @single_threaded_blas()
    def register_user(self, user_id: str, user_papers: Sequence[Paper]) -> None:
        """Precompute and store the interest profile of one user.

        Queries for *user_id* then skip the per-query interest forward
        pass. A profile containing papers the model has never seen is
        stored without an interest matrix — queries for that user serve
        through the TF-IDF fallback (counted as degraded). The call
        holds single-threaded BLAS (:mod:`repro.utils.blas`), so a
        registration sweep leaves no second thread spinning after it.
        """
        papers = list(user_papers)
        if not papers:
            raise ValueError("user profile needs at least one paper")
        profile: Rows | None = None
        with self._serve_lock, no_grad():
            if not self.degraded:
                try:
                    profile = self._split(
                        self._recommender.model.interest_vectors(
                            [p.id for p in papers]).data)
                except GraphError:
                    obs.count("serve.degraded", reason="unknown_entity")
                    obs.event("serve.degraded", reason="unknown_entity")
            self._profiles[user_id] = (papers, profile)
            self._drop_cached_user(user_id)

    def invalidate(self) -> None:
        """Explicitly drop every cached query result."""
        with self._serve_lock:
            self._cache.clear()

    def _drop_cached_user(self, user_key: str) -> None:
        for key in [k for k in self._cache if k[0] == user_key]:
            del self._cache[key]

    def _cache_hit(self, cache_key: tuple) -> list[str] | None:
        """Cached ids for *cache_key*, counted as a hit; None on a miss.

        Call with ``_serve_lock`` held. A miss touches no counters: the
        path that computes the answer accounts for it.
        """
        cached = self._cache.get(cache_key)
        if cached is None:
            return None
        self._cache.move_to_end(cache_key)
        self.cache_hits += 1
        obs.count("serve.cache", outcome="hit")
        return list(cached)

    def _append(self, paper: Paper, row: Rows | None,
                content_row: np.ndarray | None = None) -> None:
        """Add *paper* to the pool; *row* is its influence row (one row of
        :meth:`_influence_rows`), None in degraded mode."""
        self._pool_version += 1
        self._positions[paper.id] = len(self._papers)
        self._papers.append(paper)
        self._ids.append(paper.id)
        if row is not None:
            self._push_rows(row)
            if self._ann is not None:
                self._ann_add(row, self._pool_count)
        if self._fallback_rows is not None:
            if content_row is None:  # else _prepare_ingest computed it
                content_row = self._content_tfidf().transform(paper)
            self._fallback_rows.append([content_row])

    def _ann_add(self, row: Rows, count: int) -> None:
        """Assign pool row ``count - 1`` (*row*) to the quantizer.

        Imbalance trigger: when one inverted list outgrows the recluster
        factor, refit the quantizer over the first *count* pool rows
        (deterministic, same seed).
        """
        if self._ann.add(row):
            self._ann.fit(self._pool_prefix(count))
            obs.count("serve.ann.recluster")
            obs.event("serve.ann.recluster", pool_size=count)

    def _pool_prefix(self, count: int) -> Rows:
        """The first *count* pool rows: the memoized :attr:`_influence`
        snapshot itself (and its CSR matrix) when that is the whole pool."""
        rows = self._influence
        return rows if count == self._pool_count else rows[:count]

    def _push_rows(self, rows: Rows) -> None:
        """Append *rows* to the head buffer (doubled when full) and the
        content store; rows below the old count are never written."""
        head = rows.head if isinstance(rows, SplitRows) else rows
        count = self._pool_count + head.shape[0]
        buffer = self._head_buffer
        if buffer is None or buffer.shape[0] < count:
            capacity = _INITIAL_CAPACITY if buffer is None else buffer.shape[0]
            while capacity < count:
                capacity *= 2
            grown = np.empty((capacity, head.shape[1]), dtype=head.dtype)
            if buffer is not None:
                grown[:self._pool_count] = buffer[:self._pool_count]
            buffer = grown
        buffer[self._pool_count:count] = head
        if isinstance(rows, SplitRows):
            if self._pool_content is None:
                self._pool_content = ContentRows.from_rows(
                    (), rows.content.width)
            self._pool_content.extend(rows.content)
        self._head_buffer = buffer
        self._pool_count = count

    def _split(self, rows: np.ndarray) -> Rows:
        """Dense model rows as serving stores them: :class:`SplitRows`
        when the model has a content block, else as they are."""
        columns = self._recommender.model.content_columns
        return rows if columns is None else SplitRows.from_dense(rows, columns)

    @no_grad()
    def _influence_rows(self, paper_ids: Sequence[str]) -> Rows:
        """Influence rows of at most ``block_size`` papers, split."""
        return self._split(
            self._recommender.model.influence_vectors(paper_ids).data)

    def _content_tfidf(self) -> TfIdfIndex:
        """The index's one TF-IDF vocabulary: the model's, stored with
        it, or, fully degraded, the pool's, fitted on first use."""
        if self._recommender is not None:
            return self._recommender.content_tfidf_
        if self._pool_tfidf is None:
            self._pool_tfidf = TfIdfIndex(
                max_features=CONTENT_FEATURES).fit(self._papers)
        return self._pool_tfidf

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _resolve_user(self, user: "str | Sequence[Paper]"):
        """``(user_key, profile papers, interest or None)`` for *user*.

        Raises :class:`KeyError` for an unregistered user id and
        :class:`ValueError` for an empty ad-hoc paper list — the same
        contract whether the request arrives serially or in a batch.
        """
        if isinstance(user, str):
            if user not in self._profiles:
                raise KeyError(f"user {user!r} is not registered "
                               "(call register_user first)")
            papers, profile = self._profiles[user]
            return user, papers, profile
        papers = list(user)
        if not papers:
            raise ValueError("user has no representative papers")
        return tuple(p.id for p in papers), papers, None

    def top_k(self, user: "str | Sequence[Paper]", k: int = 10) -> list[str]:
        """Ids of the top-*k* pool papers for *user*, best first.

        *user* is either a registered user id or an ad-hoc sequence of
        the user's papers. A batch of one through :meth:`batch_top_k`:
        results are LRU-cached per ``(user, k)`` until the pool changes
        or :meth:`invalidate` is called. Raises :class:`KeyError` for an
        unregistered user and :class:`ValueError` for ``k < 1`` or an
        empty paper list.
        """
        # A request span (not a plain trace): allocates the trace_id
        # every nested span and degradation event carries, and offers
        # the finished span tree to the exemplar reservoir. Lock wait is
        # inside the span: client-visible latency.
        with obs.request("serve.query", k=int(k)) as span:
            result = self.batch_top_k([(user, k)])[0]
            if result.error is not None:
                raise result.error
            span.set("cache", result.cache)
        # Split by cache outcome: hit-path latency is microseconds and
        # would otherwise mask the miss-path tail in the merged p99.
        obs.observe_quantile("serve.query.latency", span.duration,
                             cache=result.cache)
        return result.ids

    def cached_top_k(self, user: "str | Sequence[Paper]",
                     k: int = 10) -> BatchQueryResult | None:
        """Answer from the LRU cache alone, or ``None`` on a miss.

        The scheduler's admission fast path: a hit resolves without
        queueing (and without a batch slot), counted exactly like a
        serial hit. A miss — or an invalid request, which the batch path
        reports per-request — touches **no** counters and returns
        ``None``, leaving the miss accounting to whichever path actually
        computes the answer.
        """
        if k < 1:
            return None
        try:
            user_key, _, _ = self._resolve_user(user)
        except (KeyError, ValueError):
            return None
        start = time.perf_counter()
        with self._serve_lock:
            ids = self._cache_hit((user_key, int(k)))
            if ids is None:
                return None
            obs.count("serve.queries")
            version = self._pool_version
        obs.observe_quantile("serve.query.latency",
                             time.perf_counter() - start, cache="hit")
        return BatchQueryResult(ids=ids, scores=None, pool_version=version,
                                cache="hit")

    def shed_rank(self, user: "str | Sequence[Paper]",
                  k: int = 10) -> BatchQueryResult:
        """Degraded TF-IDF answer for a request the scheduler shed.

        Same validation contract as :meth:`top_k`, but the model rank
        path is skipped entirely — this is the load-shedding escape
        hatch, counted as ``serve.degraded{reason="shed"}`` and never
        cached (the next uncongested identical query should get the
        model ranking back).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        _, papers, _ = self._resolve_user(user)
        with obs.request("serve.query", k=int(k)) as span:
            with self._serve_lock:
                obs.count("serve.queries")
                obs.count("serve.degraded", reason="shed")
                obs.event("serve.degraded", reason="shed")
                version = self._pool_version
                ids = (self._fallback_rank(papers, k, self._fallback_locked(),
                                           self._ids)
                       if self._papers else [])
            span.set("cache", "shed")
        obs.observe_quantile("serve.query.latency", span.duration,
                             cache="shed")
        return BatchQueryResult(ids=ids, scores=None, pool_version=version,
                                cache="shed", degraded_reason="shed")

    @single_threaded_blas()
    def batch_top_k(self, requests: "Sequence[tuple]"
                    ) -> list[BatchQueryResult]:
        """Answer several ``(user, k)`` requests in one coalesced pass.

        The one rank path: :meth:`top_k` is a batch of one, and the
        micro-batching scheduler submits larger batches. Three phases:

        1. **Admit** (under ``_serve_lock``): validate and resolve each
           request, serve cache hits, deduplicate the misses into jobs
           (one per distinct ``(user, k)``), resolve interest matrices,
           and — under ``index="ivf"`` — gather each job's candidate
           lists. Everything that reads mutable pool state happens here,
           including the snapshot of the id list that phase 2 maps
           positions through.
        2. **Score** (lock *released*): pure-numpy ranking over the
           influence snapshot — one call for every exact job
           (:func:`repro.serve.ann.batch_exact_top_k`), per-job
           candidate scoring for IVF; each job's interest rows are split
           once. Concurrent ingestion and other batches proceed while
           this runs; scores are bit-identical to ranking each request
           alone because per-query matmul shapes are preserved.
        3. **Publish** (re-locked): fill the LRU cache — skipped when
           the pool version moved under the batch (the results are
           still *valid* for the stamped version, just not cacheable)
           or the job answered through the fault-degradation path.

        Per-request validation errors land in
        :attr:`BatchQueryResult.error`; the rest of the batch is
        unaffected. The call holds single-threaded BLAS
        (:func:`repro.utils.blas.single_threaded_blas`) from entry to
        every exit; products that other threads run meanwhile give the
        same bits on one thread.
        """
        results: list[BatchQueryResult | None] = [None] * len(requests)
        jobs: "OrderedDict[tuple, _BatchJob]" = OrderedDict()
        fallback = matrix = cfg = None
        rank_jobs: list[_BatchJob] = []
        with self._serve_lock, no_grad():
            version = self._pool_version
            # Appends only extend this list and _adopt rebinds _ids to a
            # new one, so the reference stays consistent with the matrix
            # and fallback snapshots taken below.
            pool_ids = self._ids
            for i, (user, k) in enumerate(requests):
                try:
                    if k < 1:
                        raise ValueError(f"k must be >= 1, got {k}")
                    user_key, papers, profile = self._resolve_user(user)
                except (KeyError, ValueError) as exc:
                    results[i] = BatchQueryResult(pool_version=version,
                                                  cache="error", error=exc)
                    continue
                obs.count("serve.queries")
                cache_key = (user_key, int(k))
                cached = self._cache_hit(cache_key)
                if cached is not None:
                    results[i] = BatchQueryResult(
                        ids=cached, scores=None,
                        pool_version=version, cache="hit")
                    continue
                self.cache_misses += 1
                obs.count("serve.cache", outcome="miss")
                job = jobs.get(cache_key)
                if job is None:
                    job = jobs[cache_key] = _BatchJob(cache_key, papers,
                                                      profile, int(k))
                job.positions.append(i)
            pending = list(jobs.values())
            # Over an empty pool every job keeps its empty answer.
            if pending and self._papers:
                if self.degraded:
                    for job in pending:
                        job.mode, job.reason = "fallback", "no_model"
                else:
                    cfg = self._recommender.config
                    for job in pending:
                        try:
                            faults.maybe_fail("serve.query")
                            interest = job.profile
                            if interest is None:
                                try:
                                    interest = self._split(
                                        self._recommender.model
                                        .interest_vectors(
                                            [p.id for p in job.papers])
                                        .data)
                                except GraphError:
                                    job.mode = "fallback"
                                    job.reason = "unknown_entity"
                                    continue
                            job.interest = interest
                        except InjectedFault:
                            job.mode, job.reason = "fallback", "query_fault"
                            job.fault = True
                if any(job.mode == "fallback" for job in pending):
                    fallback = self._fallback_locked()
                rank_jobs = [j for j in pending if j.mode == "rank"]
                if rank_jobs:
                    # `_influence` views the filled prefixes of the head
                    # buffer and the content store; entries below them
                    # are immutable (appends either write past the
                    # prefixes or copy into grown buffers), so the view
                    # is a consistent snapshot outside the lock.
                    matrix = self._influence
                    if self.index_kind == "ivf":
                        ann = self._ensure_ann()
                        for job in rank_jobs:
                            job.candidates, job.stats = ann.gather(
                                job.interest, cfg.max_pool_mix, self.nprobe)

        # Phase 2 — lock released: pure-numpy scoring over snapshots.
        for job in pending:
            if job.mode == "fallback":
                n = len(job.positions)
                obs.count("serve.degraded", n, reason=job.reason)
                for _ in range(n):
                    obs.event("serve.degraded", reason=job.reason)
                job.ids = self._fallback_rank(job.papers, job.k, fallback,
                                              pool_ids)
        if rank_jobs and self.index_kind == "ivf":
            for job in rank_jobs:
                positions, scores = rank_candidates(
                    job.interest, matrix, job.candidates, job.k,
                    mix=cfg.max_pool_mix, block_size=self.block_size)
                job.ids = [pool_ids[int(p)] for p in positions]
                job.scores = scores
                n = len(job.positions)
                obs.count("serve.ann.lists_probed",
                          job.stats.lists_probed * n)
                obs.count("serve.ann.candidates_scanned",
                          job.stats.candidates_scanned * n)
        elif rank_jobs:
            ranked = batch_exact_top_k(
                [j.interest for j in rank_jobs], matrix,
                [j.k for j in rank_jobs], mix=cfg.max_pool_mix,
                block_size=self.block_size)
            for job, (positions, scores) in zip(rank_jobs, ranked):
                job.ids = [pool_ids[int(p)] for p in positions]
                job.scores = scores

        # Phase 3 — publish: cache only when the pool did not move.
        if pending:
            with self._serve_lock:
                fresh = self._pool_version == version
                for job in pending:
                    if fresh and not job.fault:
                        self._cache[job.cache_key] = tuple(job.ids)
                        while len(self._cache) > self.cache_size:
                            self._cache.popitem(last=False)
        for job in pending:
            for i in job.positions:
                results[i] = BatchQueryResult(
                    ids=list(job.ids), scores=job.scores,
                    pool_version=version, cache="miss",
                    degraded_reason=job.reason)
        return results  # type: ignore[return-value]

    def _ensure_ann(self) -> IVFIndex:
        """The fitted coarse quantizer, clustering lazily on first use.

        It clusters the pool as loaded, then adds each later row as its
        ingest would have, so the quantizer does not depend on when the
        first query came: a restart that replays the WAL before its
        first query builds the one the live index built. :meth:`compact`
        fits it before saving, so a restart from the compacted artifact
        adopts it rather than clustering the compacted ingests. An index
        loaded with an empty pool clusters the pool of its first use.
        """
        matrix = self._influence
        assert matrix is not None
        if self._ann is None or not self._ann.fitted:
            count = matrix.shape[0]
            base = self._loaded_count or count
            n_lists = self._n_lists
            if n_lists is None:
                n_lists = max(1, int(round(math.sqrt(base))))
            self._ann = IVFIndex(n_lists, seed=self._ann_seed).fit(
                self._pool_prefix(base))
            # The later rows, densified a block at a time rather than
            # sliced one by one (the same values, so the same lists).
            for start in range(base, count, self.block_size):
                block = _dense(matrix[start:start + self.block_size])
                for position, row in enumerate(block, start + 1):
                    self._ann_add(row, position)
        return self._ann

    def build_ann_index(self) -> IVFIndex:
        """Force-build (or return) the IVF quantizer over the pool, by
        the rule of the lazy fit (:meth:`_ensure_ann`).

        Public hook for warmup flows that cluster once offline and
        persist the result (:func:`repro.serve.artifacts.save_ann_index`)
        so serving startup never pays the k-means.
        """
        with self._serve_lock:
            if self.degraded or self._influence is None:
                raise NotFittedError(
                    "cannot cluster: the index has no influence rows "
                    "(degraded or empty pool)")
            return self._ensure_ann()

    def set_nprobe(self, nprobe: int) -> None:
        """Retune the recall/latency trade-off; drops cached results."""
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        with self._serve_lock:
            self.nprobe = nprobe
            self._cache.clear()
            self._pool_version += 1

    # ------------------------------------------------------------------
    # Degraded path
    # ------------------------------------------------------------------
    @staticmethod
    def _fallback_rank(user_papers: list[Paper], k: int,
                       fallback: tuple[TfIdfIndex, ContentRows],
                       ids: list[str]) -> list[str]:
        """TF-IDF top-*k* of the pool against the user's papers.

        *fallback* is a :meth:`_fallback_locked` snapshot and *ids* the
        pool id list it was built over, so this runs without the lock.
        Ties go to the lower pool position.
        """
        tfidf, rows = fallback
        profile = np.mean([tfidf.transform(p) for p in user_papers], axis=0)
        order = np.argsort(-rows.dot(profile), kind="mergesort")[:k]
        return [ids[int(i)] for i in order]

    def _fallback_locked(self) -> tuple[TfIdfIndex, ContentRows]:
        """``(vocabulary, pool rows)`` snapshot under ``_serve_lock``; the
        store is built on first use. Appends rebind the live store's
        arrays, so the snapshot over the current ones stays consistent."""
        tfidf = self._content_tfidf()
        if self._fallback_rows is None:
            self._fallback_rows = ContentRows.from_rows(
                (tfidf.transform(p) for p in self._papers), tfidf.dim)
        return tfidf, self._fallback_rows.snapshot()

    # ------------------------------------------------------------------
    # Health and self-healing
    # ------------------------------------------------------------------
    def health(self, probe: bool = True) -> dict:
        """JSON-ready health report, running self-heal where possible.

        Checks, in order:

        - **artifact** — when the index came from :meth:`from_artifact`,
          the manifest is re-verified in place (schema version plus
          per-file SHA-256);
        - **embeddings** — the precomputed influence rows (head and
          content store) must be entirely finite; non-finite rows are
          recomputed from the model (self-heal) before being declared
          unhealthy;
        - **fallback** — with ``probe=True`` and a non-empty pool, the
          TF-IDF degradation path is probed (its pool rows must be
          finite); a failed probe triggers :meth:`self_heal` (rebuild the
          fallback rows) and one re-probe;
        - **SLOs** — every registered service-level objective (the
          serving defaults plus operator registrations, see
          :mod:`repro.obs.slo`) is evaluated against the live metrics;
          breaches are listed under ``slo_breaches``.

        ``healthy`` is True only when the index is not degraded, every
        check passed, and no SLO with data is breached — a
        degraded-but-answering index is *serving* but not *healthy*,
        which is exactly what operators page on.
        """
        checks: dict[str, dict] = {}
        if self._artifact_dir is not None:
            from repro.serve.artifacts import _verify_manifest
            entry: dict = {"path": str(self._artifact_dir)}
            try:
                _verify_manifest(self._artifact_dir)
                entry["ok"] = True
            except (ArtifactError, InjectedFault) as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
            checks["artifact"] = entry

        finite = _finite(self._influence)
        healed_embeddings = False
        if not finite:
            finite = healed_embeddings = self._heal_influence()
        checks["embeddings"] = {
            "ok": finite,
            "healed": healed_embeddings,
            "rows": self._pool_count,
        }

        fallback: dict = {"ok": True, "healed": False, "probed": False}
        if probe and self._papers:
            fallback["probed"] = True
            if not self._probe_fallback():
                self.self_heal()
                fallback["healed"] = True
                fallback["ok"] = self._probe_fallback()
        checks["fallback"] = fallback

        # Attached micro-batching scheduler: a queue saturated to
        # capacity (admissions are being shed as queue_full) or an
        # actively-burning SLO governor makes the index unhealthy —
        # it is answering, but through the degraded path. Its stats
        # carry blas_threads: 1 while the scheduler pins BLAS.
        if self._scheduler is not None:
            stats = self._scheduler.stats()
            saturated = stats["queue_depth"] >= stats["queue_capacity"]
            checks["scheduler"] = {
                "ok": not (saturated or stats["shedding"]),
                "saturated": bool(saturated),
                **stats,
            }

        # Attached write-ahead log: structural state (lag, torn records
        # dropped at last recovery) plus a gauge refresh so the
        # compaction-lag SLO below judges the *current* log size even
        # when obs was enabled after the appends happened.
        if self._wal is not None:
            obs.gauge("serve.wal.lag", float(self._wal.lag))
            checks["wal"] = {
                "ok": True,
                "path": str(self._wal.path),
                "lag": int(self._wal.lag),
                "torn_records": int(self._wal.torn_records),
            }

        # Registered SLOs (latency quantiles, error budgets) close the
        # observability loop: a breach with real data makes the index
        # unhealthy, exactly like a failed structural check. SLOs with
        # no recorded data (obs off, or no traffic yet) stay ok.
        slo_statuses = evaluate_registered()
        slo_breaches = [s.slo for s in slo_statuses if not s.ok]

        healthy = (not self.degraded
                   and not slo_breaches
                   and all(entry.get("ok", True) for entry in checks.values()))
        obs.gauge("serve.healthy", 1.0 if healthy else 0.0)
        report = {
            "healthy": bool(healthy),
            "degraded": bool(self.degraded),
            "degraded_reason": self._degraded_reason if self.degraded else None,
            "pool_size": self.num_papers,
            "registered_users": len(self._profiles),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses,
                      "size": len(self._cache), "capacity": self.cache_size},
            "checks": checks,
            "slos": [s.snapshot() for s in slo_statuses],
            "slo_breaches": slo_breaches,
        }
        if self._last_load_error is not None:
            report["load_attempts"] = [
                {"attempt": a.attempt, "error": repr(a.error),
                 "delay": a.delay}
                for a in self._last_load_error.attempt_log]
        return report

    def self_heal(self) -> None:
        """Drop the fallback's pool rows; the next use rebuilds them.

        Called by :meth:`health` when the fallback probe fails; also safe
        to call directly after mutating the pool out of band.
        """
        with self._serve_lock:
            self._fallback_rows = None
        obs.count("serve.self_heal", component="fallback")

    def _probe_fallback(self) -> bool:
        """True when the degradation path can produce finite scores."""
        try:
            # Locked: the probe may build the lazy store under traffic.
            with self._serve_lock:
                _, rows = self._fallback_locked()
            return bool(np.isfinite(rows.data).all())
        except Exception:  # a health probe must never take the service down
            return False

    def _heal_influence(self) -> bool:
        """Recompute the influence rows from the model; True on success.

        The stores are rebuilt and any clustered structure over the old
        values is dropped for a lazy refit.
        """
        if self.degraded or self._influence is None:
            return False
        try:
            blocks = [self._influence_rows(self._ids[start:start
                                                     + self.block_size])
                      for start in range(0, len(self._ids), self.block_size)]
        except Exception:
            return False
        with self._serve_lock:
            self._head_buffer = self._pool_content = None
            self._pool_count = 0
            for rows in blocks:
                self._push_rows(rows)
            self._ann = None
            self._pool_version += 1
            self._cache.clear()
        obs.count("serve.self_heal", component="influence")
        return _finite(self._influence)


def _finite(rows: Rows | None) -> bool:
    """True when every stored value of *rows* (if any) is finite."""
    if rows is None:
        return True
    if isinstance(rows, SplitRows):
        return bool(np.isfinite(rows.head).all()
                    and np.isfinite(rows.content.data).all())
    return bool(np.isfinite(rows).all())
