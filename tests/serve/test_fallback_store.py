"""The degraded fallback: one vocabulary, an append-only CSR pool store.

The index ranks fallback answers with a sparse dot product over the
pool's TF-IDF rows in the content block's vocabulary (or, fully
degraded, one fitted on the pool). The dense ranking it replaced — the
whole pool re-transformed into a matrix, a matrix-vector product and a
stable sort — lives here as the reference.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.content import TfIdfIndex
from repro.core.nprec.model import ContentRows
from repro.core.nprec.recommend import CONTENT_FEATURES
from repro.nn import Tensor
from repro.serve import ServingIndex, load_pipeline

TOL = 1e-12


def _clone(paper, new_id):
    return dataclasses.replace(paper, id=new_id, references=(),
                               citation_count=0)


def _dense_reference(tfidf, pool, user_papers, k):
    """The old dense fallback: ``(top-k ids, dense scores by id)``."""
    matrix = tfidf.transform_many(pool)
    profile = np.mean([tfidf.transform(p) for p in user_papers], axis=0)
    scores = matrix @ profile
    order = np.argsort(-scores, kind="mergesort")[:k]
    return ([pool[int(i)].id for i in order],
            {p.id: s for p, s in zip(pool, scores)})


def _fresh_rows(index):
    """The store built from scratch over the index's current pool."""
    tfidf = index._content_tfidf()
    return ContentRows.from_rows([tfidf.transform(p) for p in index._papers],
                                 tfidf.dim)


def _assert_same_store(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.fixture
def pool(serve_task):
    return list(serve_task.new_papers)


@pytest.fixture
def index(artifact, pool):
    return ServingIndex(load_pipeline(artifact[0]), papers=pool)


@pytest.fixture
def degraded(pool):
    return ServingIndex(None, papers=pool)


@pytest.fixture
def count_calls(monkeypatch):
    """Count ``TfIdfIndex.fit`` and ``transform_many`` calls from now on."""
    calls = {"fit": 0, "transform_many": 0}
    for name in calls:
        original = getattr(TfIdfIndex, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(TfIdfIndex, name, counted)
    return calls


def _probe(index, paper, tag):
    """One unknown-entity fallback answer for a clone of *paper*."""
    return index.top_k([_clone(paper, f"probe-{tag}")], k=10)


class TestSparseMatchesDenseReference:
    @pytest.mark.parametrize("mode", ["model", "degraded"])
    def test_scores_and_ranking(self, request, mode, serve_task):
        index = request.getfixturevalue("index" if mode == "model"
                                        else "degraded")
        tfidf, rows = index._fallback_locked()
        assert tfidf.dim <= CONTENT_FEATURES
        pool = index._papers
        users = [list(u.train_papers) for u in serve_task.users]
        users += [[_clone(p, f"single-{i}")] for i, p in enumerate(pool[:20])]
        for papers in users:
            want, dense = _dense_reference(tfidf, pool, papers, len(pool))
            profile = np.mean([tfidf.transform(p) for p in papers], axis=0)
            sparse = rows.dot(profile)
            assert np.max(np.abs(sparse - [dense[p.id] for p in pool])) <= TOL
            got = ServingIndex._fallback_rank(papers, len(pool),
                                              (tfidf, rows), index._ids)
            for a, b in zip(got, want):
                # Order may differ only between scores within 1e-12.
                assert a == b or abs(dense[a] - dense[b]) <= TOL

    def test_ties_go_to_the_lower_position(self, degraded, pool):
        # A profile sharing no term with the pool scores every row 0.
        tfidf, rows = degraded._fallback_locked()
        blank = dataclasses.replace(pool[0], id="blank", title="",
                                    abstract="", keywords=())
        got = ServingIndex._fallback_rank([blank], 7, (tfidf, rows),
                                          degraded._ids)
        assert got == [p.id for p in pool[:7]]

    def test_served_answer_is_the_fallback_rank(self, index, serve_task):
        papers = [_clone(p, f"served-{i}") for i, p
                  in enumerate(serve_task.users[0].train_papers)]
        tfidf = index._content_tfidf()
        want, _ = _dense_reference(tfidf, index._papers, papers, 10)
        assert index.top_k(papers, k=10) == want


class TestIncrementalStore:
    @pytest.mark.parametrize("mode", ["model", "degraded"])
    def test_appended_store_equals_fresh_build(self, request, mode,
                                               serve_task):
        index = request.getfixturevalue("index" if mode == "model"
                                        else "degraded")
        templates = list(serve_task.train_papers[:6])
        _probe(index, templates[0], "first")  # builds the store
        for i, template in enumerate(templates):
            index.add_paper(_clone(template, f"ingest-{i}"))
            _probe(index, template, i)
        assert index.num_papers == len(serve_task.new_papers) + len(templates)
        _assert_same_store(index._fallback_rows, _fresh_rows(index))

    def test_known_paper_joining_late_gets_a_row(self, artifact, pool):
        index = ServingIndex(load_pipeline(artifact[0]), papers=pool[:-3])
        _probe(index, pool[0], "first")
        for paper in pool[-3:]:  # in the model's graph: no content row
            index.add_paper(paper)
        _assert_same_store(index._fallback_rows, _fresh_rows(index))

    def test_store_stays_lazy(self, index, serve_task):
        index.add_paper(_clone(serve_task.train_papers[0], "lazy"))
        index.top_k(list(serve_task.users[0].train_papers), k=5)
        assert index._fallback_rows is None

    def test_snapshot_survives_later_appends(self, index, serve_task):
        tfidf, before = index._fallback_locked()
        n = before.shape[0]
        data = before.data.copy()
        index.add_paper(_clone(serve_task.train_papers[1], "later"))
        assert before.shape[0] == n and np.array_equal(before.data, data)
        assert index._fallback_rows.shape[0] == n + 1


class TestOneVocabulary:
    def test_model_index_never_fits_and_never_densifies(self, artifact,
                                                        pool, serve_task,
                                                        count_calls):
        # The vocabulary is the artifact's: load, registration, queries,
        # fallback probes and ingests fit none.
        index = ServingIndex.from_artifact(artifact[0], papers=pool)
        user = serve_task.users[0]
        index.register_user(user.author_id, list(user.train_papers))
        index.top_k(user.author_id, k=10)
        _probe(index, pool[0], "first")
        for i, template in enumerate(serve_task.train_papers[:4]):
            index.add_paper(_clone(template, f"count-{i}"))
            _probe(index, template, i)
            index.shed_rank([_clone(template, f"shed-{i}")], k=5)
        assert index.health()["checks"]["fallback"]["ok"]
        assert not index.degraded
        assert count_calls == {"fit": 0, "transform_many": 0}
        # The fallback vocabulary is the content block's.
        rec = index._recommender
        assert index._content_tfidf() is rec.content_tfidf_
        assert rec.content_tfidf_.dim <= CONTENT_FEATURES

    def test_degraded_index_fits_once_on_the_pool(self, pool, serve_task,
                                                  count_calls):
        index = ServingIndex(None, papers=pool)
        for i, template in enumerate(serve_task.train_papers[:4]):
            _probe(index, template, i)
            index.add_paper(_clone(template, f"count-{i}"))
        index.health()
        assert count_calls == {"fit": 1, "transform_many": 0}
        fitted = TfIdfIndex(max_features=CONTENT_FEATURES).fit(pool)
        assert list(index._pool_tfidf.vocabulary_) == \
            list(fitted.vocabulary_)
        assert np.array_equal(index._pool_tfidf.idf_, fitted.idf_)


class TestSwapAndHeal:
    def test_adopt_carries_the_store(self, artifact, pool, serve_task):
        live = ServingIndex(None, papers=pool)
        donor = ServingIndex(load_pipeline(artifact[0]), papers=pool)
        _probe(donor, pool[0], "donor")
        store = donor._fallback_rows
        live._adopt(donor)
        assert live._fallback_rows is store
        assert live._content_tfidf() is donor._content_tfidf()
        live.add_paper(_clone(serve_task.train_papers[0], "after-swap"))
        _assert_same_store(live._fallback_rows, _fresh_rows(live))

    @pytest.mark.parametrize("mode", ["model", "degraded"])
    def test_self_heal_rebuilds_a_poisoned_store(self, request, mode,
                                                 obs_enabled):
        index = request.getfixturevalue("index" if mode == "model"
                                        else "degraded")
        index._fallback_locked()
        index._fallback_rows.data = index._fallback_rows.data.copy()
        index._fallback_rows.data[3] = np.nan
        assert not index._probe_fallback()
        fallback = index.health()["checks"]["fallback"]
        assert fallback == {"ok": True, "healed": True, "probed": True}
        _assert_same_store(index._fallback_rows, _fresh_rows(index))


class TestQueryPathRecordsNoGraph:
    def test_interest_matrices_equal_without_graph(self, index, serve_task,
                                                   monkeypatch):
        model = index._recommender.model
        original = model.interest_vectors
        served: list[Tensor] = []

        def recording(paper_ids):
            out = original(paper_ids)
            served.append(out)
            return out

        monkeypatch.setattr(model, "interest_vectors", recording)
        users = serve_task.users[:2]
        index.register_user("u", list(users[0].train_papers))
        index.batch_top_k([(list(users[1].train_papers), 5)])
        monkeypatch.undo()
        assert len(served) == 2
        for out, user in zip(served, users):
            assert out._parents == () and not out.requires_grad
            recorded = original([p.id for p in user.train_papers])
            assert recorded._parents  # outside no_grad() a graph is built
            assert np.array_equal(out.data, recorded.data)
        assert np.array_equal(index._profiles["u"][1].dense(), served[0].data)
