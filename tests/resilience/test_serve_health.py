"""Serving resilience: retry-before-degrade, health checks, CLI exit codes."""

import dataclasses
import json

import pytest

from repro import obs
from repro.core.nprec import NPRecConfig, NPRecRecommender
from repro.core.sem import SEMConfig
from repro.data import load_acm
from repro.experiments.protocol import split_task_by_year
from repro.resilience import faults
from repro.serve import save_pipeline
from repro.serve.__main__ import main as serve_main
from repro.serve.index import ServingIndex
from repro.serve.scheduler import BatchScheduler


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """(directory, task): one small fitted pipeline saved to disk."""
    corpus = load_acm(scale=0.25, seed=None)
    task = split_task_by_year(corpus, 2014, n_users=4, candidate_size=30,
                              seed=0)
    config = NPRecConfig(sem=SEMConfig(n_triplets=30, epochs=1),
                         epochs=2, max_positives=60, seed=3)
    recommender = NPRecRecommender(config).fit(
        task.corpus, task.train_papers, task.new_papers)
    directory = str(tmp_path_factory.mktemp("resil-serve") / "artifact")
    save_pipeline(recommender, directory, corpus=task.corpus)
    return directory, task


def _transient_seed(probability: float) -> int:
    """A seed whose first draw fires and whose second does not."""
    import numpy as np
    for seed in range(500):
        rng = np.random.default_rng(seed)
        if rng.random() < probability and rng.random() >= probability:
            return seed
    raise RuntimeError("no transient seed found")  # pragma: no cover


class TestFromArtifactRetry:
    def test_transient_fault_is_retried_away(self, artifact, obs_enabled):
        directory, task = artifact
        seed = _transient_seed(0.6)
        with faults.inject(f"artifact.load:0.6:{seed}"):
            index = ServingIndex.from_artifact(directory,
                                               papers=task.new_papers)
        assert not index.degraded
        attempts = obs.get_registry().get("resilience.retry.attempts",
                                          op="artifact.load")
        assert attempts is not None and attempts.value == 1

    def test_persistent_fault_degrades_not_crashes(self, artifact,
                                                   obs_enabled):
        directory, task = artifact
        with faults.inject("artifact.load:1.0"):
            index = ServingIndex.from_artifact(directory,
                                               papers=task.new_papers)
        assert index.degraded
        degraded = obs.get_registry().get("serve.degraded",
                                          reason="artifact_load_failed")
        assert degraded is not None and degraded.value == 1
        exhausted = obs.get_registry().get("resilience.retry.exhausted",
                                           op="serve.from_artifact")
        assert exhausted is not None and exhausted.value == 1
        # Degraded is still serving: TF-IDF answers the query.
        user = task.users[0]
        top = index.top_k(list(user.train_papers), k=5)
        assert len(top) == 5 and set(top) <= set(index.paper_ids)
        # The health report surfaces the failed attempts for operators.
        report = index.health()
        assert report["degraded"] and not report["healthy"]
        assert report["degraded_reason"] == "artifact_load_failed"
        assert [a["attempt"] for a in report["load_attempts"]] == [1, 2, 3]


class TestHealthReport:
    def test_healthy_index(self, artifact, obs_enabled):
        directory, task = artifact
        index = ServingIndex.from_artifact(directory, papers=task.new_papers)
        report = index.health()
        assert report["healthy"] and not report["degraded"]
        assert report["checks"]["artifact"]["ok"]
        assert report["checks"]["embeddings"]["ok"]
        assert report["checks"]["fallback"]["probed"]
        gauge = obs.get_registry().get("serve.healthy")
        assert gauge is not None and gauge.value == 1.0

    def test_query_fault_degrades_single_answer(self, artifact, obs_enabled):
        directory, task = artifact
        index = ServingIndex.from_artifact(directory, papers=task.new_papers)
        user = task.users[0]
        with faults.inject("serve.query:1.0"):
            top = index.top_k(list(user.train_papers), k=5)
        assert len(top) == 5
        degraded = obs.get_registry().get("serve.degraded",
                                          reason="query_fault")
        assert degraded is not None and degraded.value == 1
        # The degraded answer was not cached: the model path now recovers
        # and is allowed to disagree with the TF-IDF fallback answer.
        assert not index.degraded
        hits, misses = index.cache_hits, index.cache_misses
        assert index.top_k(list(user.train_papers), k=5)
        assert index.cache_misses == misses + 1
        assert index.cache_hits == hits


class TestSLOHealth:
    def test_default_latency_slos_registered_and_reported(self, artifact,
                                                          obs_enabled):
        directory, task = artifact
        index = ServingIndex.from_artifact(directory, papers=task.new_papers)
        report = index.health()
        kinds = {s["slo"]: s["kind"] for s in report["slos"]}
        assert kinds.get("serve.query.p99") == "latency"
        assert kinds.get("serve.ingest.p99") == "latency"
        assert kinds.get("serve.error_budget") == "error_rate"
        # An idle index has no latency samples: SLOs report no-data, not
        # a breach, and the index stays healthy.
        assert report["slo_breaches"] == []
        assert report["healthy"]

    def test_queries_feed_the_latency_quantiles(self, artifact, obs_enabled):
        directory, task = artifact
        index = ServingIndex.from_artifact(directory, papers=task.new_papers)
        user = task.users[0]
        for _ in range(3):
            index.top_k(list(user.train_papers), k=5)
        # Latency sketches are split by cache outcome: the first query is
        # a miss, the repeats hit the LRU cache.
        registry = obs.get_registry()
        miss = registry.get("serve.query.latency", cache="miss")
        hit = registry.get("serve.query.latency", cache="hit")
        assert miss is not None and miss.count == 1
        assert hit is not None and hit.count == 2
        index.add_paper(dataclasses.replace(task.new_papers[0], id="late-1",
                                            references=(), citation_count=0))
        assert registry.get("serve.ingest.latency").count == 1
        # The sketches are the one record of a served latency.
        names = {metric.name for metric in registry.collect()}
        assert not [name for name in names if "duration_seconds" in name]

    def test_scheduled_miss_records_one_sketch_sample(self, artifact,
                                                      obs_enabled):
        directory, task = artifact
        index = ServingIndex.from_artifact(directory, papers=task.new_papers)
        user = task.users[0]
        index.register_user(user.author_id, list(user.train_papers))
        scheduler = BatchScheduler(index, max_batch=4, max_wait_ms=1.0)
        try:
            scheduler.query(user.author_id, 5)
        finally:
            scheduler.close()
        registry = obs.get_registry()
        assert registry.get("serve.query.latency", cache="miss").count == 1
        assert registry.family("serve.query.duration_seconds") == []

    def test_latency_breach_makes_index_unhealthy(self, artifact, obs_enabled):
        directory, task = artifact
        index = ServingIndex.from_artifact(directory, papers=task.new_papers)
        # Force the p99 sketch over the 250ms objective: a sustained run
        # of slow queries, as the monitor would see it.
        for _ in range(30):
            obs.observe_quantile("serve.query.latency", 2.0)
        report = index.health()
        assert "serve.query.p99" in report["slo_breaches"]
        assert not report["healthy"]
        assert not report["degraded"]  # breached, not degraded

    def test_error_budget_breach(self, artifact, obs_enabled):
        directory, task = artifact
        index = ServingIndex.from_artifact(directory, papers=task.new_papers)
        obs.count("serve.queries", 10)
        obs.count("serve.degraded", 3, reason="query_fault")
        report = index.health()
        assert "serve.error_budget" in report["slo_breaches"]
        assert not report["healthy"]


class TestHealthCli:
    def test_healthy_exit_zero(self, artifact, capsys):
        directory, _ = artifact
        assert serve_main(["health", "--dir", directory]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # stdout stays pure JSON
        assert report["healthy"] is True
        # Acceptance criterion: the CLI reports at least one registered
        # latency SLO (human lines on stderr).
        assert "SLO [serve.query.p99] (latency):" in captured.err

    def test_cli_restores_obs_state(self, artifact):
        directory, _ = artifact
        obs.configure(enabled=False, reset=True)
        serve_main(["health", "--dir", directory])
        assert not obs.is_enabled()
        obs.configure(reset=True)

    def test_injected_verify_fault_exits_nonzero(self, artifact, capsys):
        directory, _ = artifact
        with faults.inject("artifact.verify:1.0"):
            code = serve_main(["health", "--dir", directory])
        captured = capsys.readouterr()
        assert code == 1
        report = json.loads(captured.out)
        assert report["healthy"] is False
        assert report["degraded"] is True
        assert report["degraded_reason"] == "artifact_load_failed"
        assert "UNHEALTHY" in captured.err

    def test_missing_artifact_exits_nonzero(self, tmp_path, capsys):
        code = serve_main(["health", "--dir", str(tmp_path / "absent")])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["degraded"] is True
