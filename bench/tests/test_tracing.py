"""Tracing wrappers: what they record, and that uninstall restores all."""

import importlib

import numpy as np
import pytest

from bench import tracing
from bench.tracing import (OBS_FUNCTIONS, TARGETS, Recorder, SpanIndex,
                           covered, unattributed_pct)


def _locations():
    """Every attribute the recorder may patch, with its current object."""
    found = {}
    for _, path, _ in TARGETS:
        owner, attribute = tracing._resolve(path)
        if isinstance(owner, type):
            found[(owner, attribute)] = vars(owner).get(attribute)
        else:
            for module, name in tracing._bindings(getattr(owner, attribute)):
                found[(module, name)] = vars(module)[name]
    obs = importlib.import_module("repro.obs")
    for name in OBS_FUNCTIONS:
        found[(obs, name)] = vars(obs)[name]
    return found


def test_uninstall_restores_every_original_object():
    before = _locations()
    recorder = Recorder()
    recorder.install()
    try:
        assert recorder.installed
        replaced = [key for key, original in before.items()
                    if vars(key[0]).get(key[1]) is not original]
        assert len(replaced) == len(before)
    finally:
        recorder.uninstall()
    assert not recorder.installed
    for (owner, attribute), original in before.items():
        assert vars(owner).get(attribute) is original, (owner, attribute)


def test_module_functions_are_rebound_in_every_importing_module():
    ann = importlib.import_module("repro.serve.ann")
    index = importlib.import_module("repro.serve.index")
    original = ann.exact_top_k
    assert index.exact_top_k is original
    recorder = Recorder()
    recorder.install()
    try:
        assert ann.exact_top_k is not original
        assert index.exact_top_k is ann.exact_top_k
    finally:
        recorder.uninstall()
    assert ann.exact_top_k is original and index.exact_top_k is original


def test_a_second_install_is_refused_and_changes_nothing():
    before = _locations()
    recorder = Recorder()
    recorder.install()
    try:
        with pytest.raises(RuntimeError):
            recorder.install()
    finally:
        recorder.uninstall()
    assert _locations() == before


def test_failed_install_rolls_back(monkeypatch):
    before = _locations()
    monkeypatch.setattr(tracing, "TARGETS", TARGETS + (
        ("broken", "repro.serve.ann:IVFIndex.num_rows", None),))
    recorder = Recorder()
    with pytest.raises(TypeError):
        recorder.install()
    assert not recorder.installed
    assert _locations() == before


def test_inherited_attribute_is_removed_again_on_uninstall():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    recorder = Recorder()
    recorder._patch(Child, "method", lambda self: "patched")
    assert Child().method() == "patched"
    recorder.uninstall()
    assert "method" not in vars(Child) and Child().method() == "base"


def test_spans_carry_parent_request_phase_and_observed_attributes():
    ann = importlib.import_module("repro.serve.ann")
    recorder = Recorder()
    recorder.phase = "window"
    matrix = np.arange(24.0).reshape(6, 4)
    recorder.install()
    try:
        with recorder.request(7), recorder.span("bench.op") as root:
            ann.exact_top_k(np.ones((2, 4)), matrix, 3, mix=0.5)
    finally:
        recorder.uninstall()
    inner = [s for s in recorder.spans if s.name == "ann.exact"]
    assert len(inner) == 1
    span = inner[0]
    assert span.parent is root and span.request == 7
    assert span.phase == "window" and root.start <= span.start <= span.end
    assert span.attrs == {"mb": matrix.nbytes / 1e6, "queries": 1}


def test_obs_calls_are_counted_once_and_only_in_the_window():
    obs = importlib.import_module("repro.obs")
    recorder = Recorder()
    recorder.install()
    try:
        recorder.phase = "setup"
        obs.count("bench.test")
        recorder.phase = "window"
        obs.count("bench.test")
        with obs.trace("bench.test"):
            pass
    finally:
        recorder.uninstall()
    assert recorder.obs_calls == 2


def _span(recorder, name, start, end, parent=None, request=None):
    span = tracing.Span(name, start, parent, request, "window")
    span.end = end
    recorder.spans.append(span)
    return span


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12), (-5, 0.5)]) == 6.5
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_and_unattributed_share():
    recorder = Recorder()
    root = _span(recorder, "bench.op", 0.0, 10.0, request=1)
    child = _span(recorder, "index.top_k", 1.0, 7.0, parent=root, request=1)
    _span(recorder, "ann.exact", 2.0, 6.0, parent=child, request=1)
    index = SpanIndex(recorder.spans)
    assert index.self_time(root) == pytest.approx(4.0)
    assert index.self_time(child) == pytest.approx(2.0)
    assert unattributed_pct(index, [(0.0, 10.0, 1)]) == pytest.approx(40.0)
    extra = {1: [(7.0, 9.0)]}
    assert unattributed_pct(index, [(0.0, 10.0, 1)], extra) == \
        pytest.approx(20.0)


def test_recursive_calls_count_once():
    recorder = Recorder()
    outer = _span(recorder, "nn.backward", 0.0, 4.0)
    _span(recorder, "nn.backward", 1.0, 2.0, parent=outer)
    index = SpanIndex(recorder.spans)
    assert index.count("nn.backward") == 1
    assert index.total_s("nn.backward") == 4.0
