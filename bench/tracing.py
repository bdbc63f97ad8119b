"""In-memory span tracing for ``--trace 1`` runs.

:meth:`Recorder.install` wraps public functions of the program under
test, at the layer boundaries listed in :data:`TARGETS`, so that each
call records a span: name, start, end, parent span, request id and the
run phase. :meth:`Recorder.uninstall` puts every original object back.
Nothing here changes the program's own code; untraced runs never
install anything.

Spans stay in a list until the run ends; :func:`layer_metrics` then
reduces them to the per-layer metrics of ``BENCHMARK.json``. A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Iterable

from bench.stats import quantile


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "phase",
                 "attrs")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 request: object, phase: str | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.phase = phase
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _exact_queries(span: Span, args: tuple, result) -> None:
    span.attrs["mb"] = args[1].nbytes / 1e6
    span.attrs["queries"] = 1


def _batch_exact_queries(span: Span, args: tuple, result) -> None:
    # One blockwise pass over the pool is shared by the whole batch.
    span.attrs["mb"] = args[1].nbytes / 1e6
    span.attrs["queries"] = len(args[0])


def _scan_fraction(span: Span, args: tuple, result) -> None:
    span.attrs["scan_fraction"] = result[1].scan_fraction


def _batch_members(span: Span, args: tuple, result) -> None:
    span.attrs["size"] = len(args[1])
    span.attrs["users"] = {id(user) for user, _ in args[1]}


def _attach_bytes(span: Span, args: tuple, result) -> None:
    # Each attach re-allocates every per-entity table at its grown size.
    model = args[0]
    tables = [model.embeddings.weight.data, model.content_matrix,
              getattr(model, "_text_matrix", None)]
    span.attrs["mb"] = sum(t.nbytes for t in tables if t is not None) / 1e6


def _pair_count(span: Span, args: tuple, result) -> None:
    span.attrs["pairs"] = len(result)


#: (span name, "module:attribute path", optional result observer). A
#: module-level function is re-bound in every ``repro`` module that
#: imported it; a method is replaced on its class.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("nprec.fit", "repro.core.nprec.recommend:NPRecRecommender.fit", None),
    ("sem.fit", "repro.core.sem:SubspaceEmbeddingMethod.fit", None),
    ("sem.twin_train", "repro.core.twin:TwinNetworkTrainer.train", None),
    ("sem.embed", "repro.core.sem:SubspaceEmbeddingMethod.embed", None),
    ("graph.build", "repro.graph.builder:build_academic_network", None),
    ("graph.attach", "repro.graph.builder:attach_paper_to_network", None),
    ("sampling.pairs", "repro.core.nprec.sampling:build_training_pairs",
     _pair_count),
    ("nn.forward", "repro.core.nprec.model:NPRecModel.score_pairs", None),
    ("nn.backward", "repro.nn.tensor:Tensor.backward", None),
    ("nn.adam", "repro.nn.optim:Adam.step", None),
    ("nn.interest", "repro.core.nprec.model:NPRecModel.interest_vectors",
     None),
    ("nprec.attach", "repro.core.nprec.model:NPRecModel.attach_paper",
     _attach_bytes),
    ("nprec.influence", "repro.core.nprec.model:NPRecModel.influence_vectors",
     None),
    ("profile_text.fit", "repro.baselines.neural:JTIERecommender.fit", None),
    ("fallback.rebuild", "repro.baselines.content:TfIdfIndex.transform_many",
     None),
    ("artifact.save", "repro.serve.artifacts:save_pipeline", None),
    ("artifact.save", "repro.serve.artifacts:save_ann_index", None),
    ("artifact.load", "repro.serve.artifacts:load_pipeline", None),
    ("index.top_k", "repro.serve.index:ServingIndex.top_k", None),
    ("index.batch_top_k", "repro.serve.index:ServingIndex.batch_top_k",
     _batch_members),
    ("index.add_paper", "repro.serve.index:ServingIndex.add_paper", None),
    ("index.register_user", "repro.serve.index:ServingIndex.register_user",
     None),
    ("index.attach_wal", "repro.serve.index:ServingIndex.attach_wal", None),
    ("ann.exact", "repro.serve.ann:exact_top_k", _exact_queries),
    ("ann.exact", "repro.serve.ann:batch_exact_top_k", _batch_exact_queries),
    ("ann.gather", "repro.serve.ann:IVFIndex.gather", _scan_fraction),
    ("ann.search", "repro.serve.ann:IVFIndex.search", _scan_fraction),
    ("ann.rank_candidates", "repro.serve.ann:rank_candidates", None),
    ("ann.ivf_add", "repro.serve.ann:IVFIndex.add", None),
    ("ann.ivf_fit", "repro.serve.ann:IVFIndex.fit", None),
    ("scheduler.submit", "repro.serve.scheduler:BatchScheduler.submit", None),
    ("wal.append", "repro.serve.wal:WriteAheadLog.append", None),
    ("wal.recover", "repro.serve.wal:WriteAheadLog.recover", None),
)

#: The recording entry points of ``repro.obs``; calls are counted, not
#: timed (a call made from inside another is not counted again).
OBS_FUNCTIONS = ("trace", "request", "event", "count", "gauge", "observe",
                 "observe_quantile", "profile")


class Recorder:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.obs_calls = 0
        self._local = threading.local()
        self._count_lock = threading.Lock()
        #: (owner, attribute, original, owner held it itself)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = (parent.request if parent is not None
                   else getattr(self._local, "request", None))
        # time.monotonic: the scheduler stamps Ticket.enqueued with it,
        # and queue waits are measured against span starts.
        span = Span(name, time.monotonic(), parent, request, self.phase)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.monotonic()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextlib.contextmanager
    def request(self, request_id: object):
        """Spans opened by this thread inside belong to *request_id*."""
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = None

    def add(self, name: str, start: float, end: float,
            request: object = None) -> Span:
        """Record an interval measured by the benchmark itself."""
        span = Span(name, start, None, request, self.phase)
        span.end = end
        self.spans.append(span)
        return span

    # -- wrappers ---------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracing wrappers are already installed")
        try:
            for name, path, observe in TARGETS:
                owner, attribute = _resolve(path)
                original = getattr(owner, attribute)
                wrapper = self._timed(name, original, observe)
                if isinstance(owner, type):
                    if not inspect.isfunction(original):
                        raise TypeError(f"{path} is not a plain method")
                    self._patch(owner, attribute, wrapper)
                else:
                    for module, bound in _bindings(original):
                        self._patch(module, bound, wrapper)
            obs = importlib.import_module("repro.obs")
            for attribute in OBS_FUNCTIONS:
                self._patch(obs, attribute,
                            self._counted(getattr(obs, attribute)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _patch(self, owner, attribute: str, replacement) -> None:
        owned = attribute in vars(owner)
        self._patches.append((owner, attribute,
                              vars(owner).get(attribute), owned))
        setattr(owner, attribute, replacement)

    def _timed(self, name: str, original, observe):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if observe is not None:
                observe(span, args, result)
            return result

        return traced

    def _counted(self, original):
        recorder = self
        local = self._local

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if getattr(local, "in_obs", False) or recorder.phase != "window":
                return original(*args, **kwargs)
            with recorder._count_lock:
                recorder.obs_calls += 1
            local.in_obs = True
            try:
                return original(*args, **kwargs)
            finally:
                local.in_obs = False

        return counted


class NullRecorder:
    """The recorder of an untraced run: records nothing."""

    phase = None

    @contextlib.contextmanager
    def span(self, name: str):
        yield None

    @contextlib.contextmanager
    def request(self, request_id: object):
        yield

    def add(self, name: str, start: float, end: float,
            request: object = None) -> None:
        return None


def _resolve(path: str):
    module_name, _, qualified = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attribute = qualified.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attribute


def _bindings(function) -> Iterable[tuple[object, str]]:
    """Every (module, name) in the ``repro`` package bound to *function*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                yield module, name


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
def covered(start: float, end: float,
            intervals: Iterable[tuple[float, float]]) -> float:
    """Seconds of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class SpanIndex:
    """Spans grouped by name and phase, outermost calls only."""

    def __init__(self, spans: list[Span]) -> None:
        self._children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self._children.setdefault(id(span.parent), []).append(span)
        self._by_name: dict[str, list[Span]] = {}
        for span in spans:
            ancestor = span.parent
            while ancestor is not None and ancestor.name != span.name:
                ancestor = ancestor.parent
            if ancestor is None:  # recursion counts once
                self._by_name.setdefault(span.name, []).append(span)

    def spans(self, name: str, phase: str | None = "window") -> list[Span]:
        return [s for s in self._by_name.get(name, ())
                if phase is None or s.phase == phase]

    def self_time(self, span: Span) -> float:
        children = self._children.get(id(span), ())
        return span.duration - covered(span.start, span.end,
                                       ((c.start, c.end) for c in children))

    def total_s(self, name: str, phase: str | None = "window") -> float:
        return sum(s.duration for s in self.spans(name, phase))

    def count(self, name: str, phase: str | None = "window") -> int:
        return len(self.spans(name, phase))

    def ms(self, name: str, q: float = 0.5,
           phase: str | None = "window") -> float:
        return quantile([s.duration for s in self.spans(name, phase)], q) * 1e3

    def self_ms(self, name: str, q: float = 0.5) -> float:
        return quantile([self.self_time(s) for s in self.spans(name)], q) * 1e3

    def mean_ms(self, name: str) -> float:
        spans = self.spans(name)
        return self.total_s(name) / len(spans) * 1e3 if spans else 0.0

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0.0) for s in self.spans(name))

    def attr_mean(self, names: tuple[str, ...], attr: str) -> float:
        values = [s.attrs[attr] for n in names for s in self.spans(n)
                  if attr in s.attrs]
        return sum(values) / len(values) if values else 0.0

    def by_request(self) -> dict[object, list[tuple[float, float]]]:
        """Intervals of the window's spans, grouped by request id."""
        grouped: dict[object, list[tuple[float, float]]] = {}
        for name, spans in self._by_name.items():
            if name == "bench.op":  # the request itself, not a part of it
                continue
            for span in spans:
                if span.request is not None and span.phase == "window":
                    grouped.setdefault(span.request, []).append(
                        (span.start, span.end))
        return grouped

    def replay_s(self) -> float:
        """Time ``attach_wal`` spent replaying, beyond reading the log."""
        total = 0.0
        for span in self.spans("index.attach_wal", "recovery"):
            reading = sum(c.duration for c in self._children.get(id(span), ())
                          if c.name == "wal.recover")
            total += span.duration - reading
        return total


def unattributed_pct(index: SpanIndex, requests, extra=None) -> float:
    """Share of request time that no span covers, in percent.

    *requests* holds ``(start, end, request id)`` per request;
    *extra* maps a request id to intervals measured outside its own
    spans (queue waits, the batch that answered it).
    """
    extra = extra or {}
    by_request = index.by_request()
    total = uncovered = 0.0
    for start, end, request in requests:
        intervals = by_request.get(request, []) + list(extra.get(request, ()))
        total += end - start
        uncovered += (end - start) - covered(start, end, intervals)
    return 100.0 * uncovered / total if total > 0 else 0.0


#: The per-layer metrics: name -> (unit, reducer of (SpanIndex, extra)).
#: ``extra`` carries what the workload measured outside spans.
PER_LAYER: dict[str, tuple[str, Callable[[SpanIndex, dict], float]]] = {
    "data.task_s": ("s", lambda ix, x: ix.total_s("data.task", None)),
    "sem.fit_s": ("s", lambda ix, x: ix.total_s("sem.fit")),
    "sem.twin_train_s": ("s", lambda ix, x: ix.total_s("sem.twin_train")),
    "sem.embed_calls": ("count", lambda ix, x: ix.count("sem.embed")),
    "sem.embed_ms": ("ms", lambda ix, x: ix.mean_ms("sem.embed")),
    "graph.build_s": ("s", lambda ix, x: ix.total_s("graph.build")),
    "graph.attach_ms": ("ms", lambda ix, x: ix.ms("graph.attach")),
    "sampling.pairs_s": ("s", lambda ix, x: ix.total_s("sampling.pairs")),
    "sampling.pairs": ("count",
                       lambda ix, x: ix.attr_sum("sampling.pairs", "pairs")),
    "nn.forward_s": ("s", lambda ix, x: ix.total_s("nn.forward")),
    "nn.backward_s": ("s", lambda ix, x: ix.total_s("nn.backward")),
    "nn.adam_s": ("s", lambda ix, x: ix.total_s("nn.adam")),
    "nn.steps": ("count", lambda ix, x: ix.count("nn.adam")),
    "nn.interest_ms": ("ms", lambda ix, x: ix.ms("nn.interest")),
    "nprec.attach_ms": ("ms", lambda ix, x: ix.ms("nprec.attach")),
    "nprec.attach_mb_copied": (
        "MB", lambda ix, x: ix.attr_mean(("nprec.attach",), "mb")),
    "nprec.influence_ms": ("ms", lambda ix, x: ix.ms("nprec.influence")),
    "profile_text.fit_s": ("s", lambda ix, x: ix.total_s("profile_text.fit")),
    "fallback.rebuilds": ("count", lambda ix, x: ix.count("fallback.rebuild")),
    "fallback.rebuild_ms": ("ms", lambda ix, x: ix.ms("fallback.rebuild")),
    "artifact.save_s": ("s", lambda ix, x: ix.total_s("artifact.save")),
    "artifact.load_s": (
        "s", lambda ix, x: ix.ms("artifact.load", phase=None) / 1e3),
    "artifact.mb": ("MB", lambda ix, x: x.get("artifact_mb", 0.0)),
    "index.top_k_ms_p50": ("ms", lambda ix, x: ix.ms("index.top_k")),
    "index.top_k_self_ms_p50": ("ms", lambda ix, x: ix.self_ms("index.top_k")),
    "index.batch_top_k_ms_p99": (
        "ms", lambda ix, x: ix.ms("index.batch_top_k", 0.99)),
    "index.add_paper_self_ms": (
        "ms", lambda ix, x: ix.self_ms("index.add_paper")),
    "index.register_ms": (
        "ms", lambda ix, x: ix.ms("index.register_user", phase=None)),
    "index.rank_computations": (
        "count", lambda ix, x: x.get("rank_computations", 0)),
    "index.cache_hit_ratio": ("ratio",
                              lambda ix, x: x.get("cache_hit_ratio", 0.0)),
    "ann.exact_ms_p50": ("ms", lambda ix, x: ix.ms("ann.exact")),
    "ann.exact_mb_per_query": (
        "MB", lambda ix, x: (ix.attr_sum("ann.exact", "mb")
                             / max(1, ix.attr_sum("ann.exact", "queries")))),
    "ann.ivf_gather_ms": ("ms", lambda ix, x: ix.ms("ann.gather")),
    "ann.rank_candidates_ms": ("ms",
                               lambda ix, x: ix.ms("ann.rank_candidates")),
    "ann.scan_fraction": (
        "ratio", lambda ix, x: ix.attr_mean(("ann.gather", "ann.search"),
                                            "scan_fraction")),
    "ann.ivf_adds": ("count", lambda ix, x: ix.count("ann.ivf_add")),
    "ann.ivf_refits": ("count", lambda ix, x: ix.count("ann.ivf_fit")),
    "ann.ivf_refit_ms": ("ms", lambda ix, x: ix.ms("ann.ivf_fit")),
    "scheduler.batches": ("count",
                          lambda ix, x: ix.count("index.batch_top_k")),
    "scheduler.batch_size_mean": (
        "count", lambda ix, x: ix.attr_mean(("index.batch_top_k",), "size")),
    "scheduler.wait_ms_p99": ("ms", lambda ix, x: x.get("wait_ms_p99", 0.0)),
    "scheduler.fast_hits": ("count", lambda ix, x: x.get("fast_hits", 0)),
    "scheduler.shed": ("count", lambda ix, x: x.get("shed", 0)),
    "wal.append_ms_p50": ("ms", lambda ix, x: ix.ms("wal.append")),
    "wal.recover_s": ("s", lambda ix, x: ix.total_s("wal.recover",
                                                     "recovery")),
    "wal.replay_s": ("s", lambda ix, x: ix.replay_s()),
    "wal.mb": ("MB", lambda ix, x: x.get("wal_mb", 0.0)),
    "obs.calls_per_request": (
        "count", lambda ix, x: x.get("obs_calls", 0) / max(1, x["requests"])),
    "bench.lateness_p99_ms": ("ms", lambda ix, x: x.get("lateness_p99_ms",
                                                         0.0)),
    "bench.trace_overhead_pct": ("%", lambda ix, x: x["trace_overhead_pct"]),
    "bench.unattributed_pct": ("%", lambda ix, x: x["unattributed_pct"]),
}


def layer_metrics(index: SpanIndex, extra: dict) -> dict[str, dict]:
    """Every per-layer metric as ``{"value", "unit"}``."""
    return {name: {"value": float(reduce(index, extra)), "unit": unit}
            for name, (unit, reduce) in PER_LAYER.items()}
