"""End-to-end telemetry: trainers, sampler, graph builder, experiments.

These tests assert the acceptance criteria of the observability layer:
with obs enabled, a real ``NPRecTrainer.train`` call and an experiment
run each produce a JSON-lines trace containing named spans with
durations and the de-fuzzing drop counter; with obs disabled the same
code paths record nothing.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import runs
from repro.core.nprec import NPRecModel, NPRecTrainer, build_training_pairs
from repro.core.nprec.sampling import defuzzed_negatives
from repro.core.rules import ExpertRuleSet
from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.core.twin import TwinNetworkTrainer
from repro.core.annotation import annotate_triplets
from repro.data import load_acm
from repro.experiments.common import ResultTable, register, run_experiment
from repro.graph import build_academic_network
from repro.text import SentenceEncoder


@pytest.fixture(scope="module")
def acm_small():
    return load_acm(scale=0.25, seed=11)


@pytest.fixture(scope="module")
def train_papers(acm_small):
    train, _ = acm_small.split_by_year(2014)
    return train


@pytest.fixture(scope="module")
def fitted_rules(train_papers):
    return ExpertRuleSet(SentenceEncoder(dim=16)).fit(train_papers, n_pairs=40,
                                                      seed=0)


def make_model(corpus, train_papers, seed=0):
    graph = build_academic_network(corpus, papers=train_papers)
    rng = np.random.default_rng(seed)
    text = {p.id: rng.normal(size=12) for p in train_papers}
    return NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=seed)


class TestTrainerTelemetry:
    def test_per_epoch_metrics_recorded(self, obs_enabled, acm_small,
                                        train_papers, fitted_rules):
        pairs = build_training_pairs(train_papers, rules=fitted_rules,
                                     negative_ratio=2, max_positives=20, seed=0)
        model = make_model(acm_small, train_papers)
        epochs = 2
        history = NPRecTrainer(model, lr=1e-2, epochs=epochs, seed=0).train(pairs)

        tracer = obs.get_tracer()
        names = [s.name for s in tracer.spans]
        assert names.count("nprec.train.epoch") == epochs
        assert "nprec.train" in names
        assert all(s.duration > 0 for s in tracer.spans)
        # One span per epoch carries the loss/accuracy the history
        # reports; that is their only record (no metric family).
        epoch_spans = sorted((s for s in tracer.spans
                              if s.name == "nprec.train.epoch"),
                             key=lambda s: s.index)
        assert [s.attrs["loss"] for s in epoch_spans] == history.losses
        assert [s.attrs["accuracy"] for s in epoch_spans] == history.accuracies

        reg = obs.get_registry()
        assert [m.name for m in reg.collect()
                if m.name.startswith("nprec.train.")] == \
            ["nprec.train.grad_steps"]
        assert reg.get("nprec.train.grad_steps").value >= epochs
        # The epoch spans are the one record of an epoch's duration.
        flat = runs.flatten(runs.capture_run())
        assert flat["span.nprec.train.epoch:calls"] == epochs
        assert flat["span.nprec.train.epoch:total"] > 0

    def test_full_capture_has_spans_and_drop_counter(self, obs_enabled, tmp_path,
                                                     acm_small, train_papers,
                                                     fitted_rules):
        # The acceptance-criteria capture: sample (de-fuzzed) + train, then
        # export JSONL and check spans + the de-fuzzing drop counter.
        pairs = build_training_pairs(train_papers, rules=fitted_rules,
                                     negative_ratio=2, max_positives=10, seed=0)
        model = make_model(acm_small, train_papers)
        NPRecTrainer(model, lr=1e-2, epochs=1, seed=0).train(pairs)
        path = obs.write_jsonl(tmp_path / "train.jsonl")
        events = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [e for e in events if e.get("type") == "span"]
        metrics = [e for e in events if e.get("type") == "metric"]
        assert any(s["name"] == "nprec.train.epoch" and s["duration"] > 0
                   for s in spans)
        assert any(s["name"] == "nprec.sampling.build" for s in spans)
        drop = [m for m in metrics
                if m["name"] == "nprec.sampling.dropped_ambiguous"]
        assert drop and drop[0]["labels"] == {"strategy": "defuzz"}

    def test_disabled_records_nothing(self, obs_disabled, acm_small,
                                      train_papers, fitted_rules):
        pairs = build_training_pairs(train_papers, rules=fitted_rules,
                                     negative_ratio=1, max_positives=10, seed=0)
        model = make_model(acm_small, train_papers)
        NPRecTrainer(model, lr=1e-2, epochs=1, seed=0).train(pairs)
        assert obs.get_tracer().spans == []
        assert len(obs.get_registry()) == 0


class TestTwinTelemetry:
    def test_hinge_loss_and_rule_agreement_curves(self, obs_enabled,
                                                  train_papers, fitted_rules):
        encoder = SentenceEncoder(dim=16)
        papers = train_papers[:30]
        triplets = annotate_triplets(papers, fitted_rules, n_triplets=12, seed=0)
        encoded = {}
        for p in papers:
            H = encoder.encode(p.abstract)
            labels = list(p.sentence_labels)[:H.shape[0]]
            encoded[p.id] = (H[:len(labels)], labels)
        network = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        epochs = 2
        trainer = TwinNetworkTrainer(network, epochs=epochs, batch_size=8, seed=0)
        history = trainer.train(triplets, encoded)

        # One span per epoch carries the Eq. 14 hinge loss and the rule
        # agreement; that is their only record (no metric family).
        epoch_spans = sorted((s for s in obs.get_tracer().spans
                              if s.name == "sem.twin.train.epoch"),
                             key=lambda s: s.index)
        assert [s.attrs["hinge_loss"] for s in epoch_spans] == history.losses
        agreement = [s.attrs["rule_agreement"] for s in epoch_spans]
        assert all(0.0 <= a <= 1.0 for a in agreement)
        # Agreement is the complement of the reported violation rate.
        assert agreement == pytest.approx(
            [1.0 - v for v in history.violation_rates])
        assert [m.name for m in obs.get_registry().collect()
                if m.name.startswith("sem.twin.")] == ["sem.twin.grad_steps"]
        flat = runs.flatten(runs.capture_run())
        assert flat["span.sem.twin.train.epoch:calls"] == epochs


class TestFitTelemetry:
    def test_fit_durations_are_spans_only(self, obs_enabled, acm_small):
        from repro.core.nprec import NPRecConfig, NPRecRecommender
        from repro.core.sem import SEMConfig

        train, new = acm_small.split_by_year(2014)
        epochs = 2
        NPRecRecommender(NPRecConfig(
            seed=0, epochs=epochs, max_positives=30,
            sem=SEMConfig(n_triplets=10, epochs=1))).fit(acm_small, train, new)
        flat = runs.flatten(runs.capture_run())
        assert flat["span.nprec.train.epoch:calls"] == epochs
        assert flat["span.sem.twin.train.epoch:calls"] > 0
        durations = [key for key in flat if not key.startswith("span.")
                     and ("duration_seconds" in key or ".latency" in key)]
        assert durations == []


class TestRankTelemetry:
    def _recommender(self, acm_small, train_papers):
        from repro.core.nprec.recommend import NPRecRecommender

        rec = NPRecRecommender()
        rec.model = make_model(acm_small, train_papers)
        rec._train_by_id = {p.id: p for p in train_papers}
        return rec

    def test_rank_records_one_span(self, obs_enabled, acm_small,
                                   train_papers):
        rec = self._recommender(acm_small, train_papers)
        ranked = rec.rank(train_papers[:2], train_papers[2:8])
        assert len(ranked) == 6
        (span,) = [s for s in obs.get_tracer().spans
                   if s.name == "nprec.recommend.rank"]
        flat = runs.flatten(runs.capture_run())
        assert flat["span.nprec.recommend.rank:calls"] == 1
        assert flat["span.nprec.recommend.rank:total"] == \
            pytest.approx(span.duration)
        assert not [key for key in flat
                    if key.startswith("nprec.recommend.rank.")]
        # The candidate-set size is a span attribute and nothing else.
        assert span.attrs["candidates"] == 6
        assert [m.name for m in obs.get_registry().collect()
                if m.name.startswith("nprec.recommend.")] == \
            ["nprec.recommend.queries"]
        assert obs.get_registry().get("nprec.recommend.queries").value == 1

    def test_disabled_rank_records_nothing(self, obs_disabled, acm_small,
                                           train_papers):
        # Acceptance criterion: the instrumented rank() path must be a
        # pure no-op when observability is off.
        rec = self._recommender(acm_small, train_papers)
        ranked = rec.rank(train_papers[:2], train_papers[2:8])
        assert len(ranked) == 6
        assert obs.get_tracer().spans == []
        assert len(obs.get_registry()) == 0


class TestSamplerTelemetry:
    def test_defuzz_funnel_adds_up(self, obs_enabled, train_papers, fitted_rules):
        negatives = defuzzed_negatives(train_papers, fitted_rules, 15,
                                       threshold_quantile=0.5, seed=0)
        reg = obs.get_registry()
        attempts = reg.get("nprec.sampling.candidates", strategy="defuzz").value
        accepted = reg.get("nprec.sampling.negatives", strategy="defuzz").value
        dropped = reg.get("nprec.sampling.dropped_ambiguous",
                          strategy="defuzz").value
        skipped = reg.get("nprec.sampling.skipped_cited", strategy="defuzz").value
        assert accepted == len(negatives)
        assert attempts == accepted + dropped + skipped
        assert dropped > 0  # a 0.5 quantile threshold must reject something


class TestGraphTelemetry:
    def test_node_and_edge_gauges(self, obs_enabled, acm_small, train_papers):
        build_academic_network(acm_small, papers=train_papers)
        reg = obs.get_registry()
        assert reg.get("graph.nodes", type="paper").value == len(train_papers)
        assert reg.get("graph.edges", relation="written_by").value > 0
        assert reg.get("graph.edges", relation="cites").value > 0
        (span,) = [s for s in obs.get_tracer().spans if s.name == "graph.build"]
        assert span.attrs["entities"] > len(train_papers)


class TestExperimentTelemetry:
    def test_run_experiment_records_timed_trace(self, obs_enabled):
        @register("_obs_dummy")
        def _dummy(scale=1.0, seed=0):
            table = ResultTable(title="dummy", columns=["Model", "Metric"])
            table.add_row("m", 1.0)
            return table

        try:
            result = run_experiment("_obs_dummy", scale=0.5, seed=3)
        finally:
            from repro.experiments.common import EXPERIMENTS
            EXPERIMENTS.pop("_obs_dummy", None)
        assert result.cell("m", "Metric") == 1.0
        (span,) = [s for s in obs.get_tracer().spans
                   if s.name == "experiment._obs_dummy"]
        assert span.attrs == {"scale": 0.5, "seed": 3}
        flat = runs.flatten(runs.capture_run())
        assert flat["span.experiment._obs_dummy:calls"] == 1
        assert flat["span.experiment._obs_dummy:total"] == span.duration
