"""Artifact store tests: exact round trip + loud failure modes."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.baselines.content import TfIdfIndex
from repro.core.nprec import NPRecRecommender
from repro.core.nprec.recommend import CONTENT_FEATURES
from repro.core.nprec.model import ContentRows
from repro.errors import ArtifactError, NotFittedError, SchemaVersionError
from repro.resilience import staging
from repro.serve import (
    SCHEMA_VERSION,
    ServingIndex,
    WriteAheadLog,
    load_author_affiliations,
    load_pipeline,
    load_pool,
    save_ann_index,
    save_pipeline,
)


def _copy(artifact_dir, tmp_path):
    target = tmp_path / "copy"
    shutil.copytree(artifact_dir, target)
    return target


class TestRoundTrip:
    def test_rank_is_bit_identical(self, artifact):
        # In the reverse of the original's query order: a ranking reads
        # the stored neighbour tables, so order does not matter.
        directory, baseline = artifact
        reloaded = load_pipeline(directory)
        user = baseline["user"]
        full = reloaded.rank(list(user.train_papers), list(user.candidates))
        head = reloaded.rank(list(user.train_papers), user.candidate_set(20))
        assert head == baseline["head"]
        assert full == baseline["full"]

    def test_two_loads_are_identical(self, artifact, serve_task):
        directory, _ = artifact
        first = load_pipeline(directory)
        second = load_pipeline(directory)
        user = serve_task.users[1]
        papers = list(user.train_papers)
        candidates = user.candidate_set(30)
        assert first.rank(papers, candidates) == second.rank(papers, candidates)

    def test_model_state_is_exact(self, artifact, fitted_recommender):
        directory, _ = artifact
        reloaded = load_pipeline(directory)
        original = fitted_recommender
        state_a = original.model.state_dict()
        state_b = reloaded.model.state_dict()
        assert sorted(state_a) == sorted(state_b)
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name
        assert np.array_equal(original.model._nonpaper_mask[:len(reloaded.model._nonpaper_mask)],
                              reloaded.model._nonpaper_mask)
        assert reloaded.model.graph.to_payload() == \
            original.model.graph.to_payload()
        assert reloaded.model.block_gates == original.model.block_gates
        assert reloaded.model.table_seed == original.model.table_seed
        for view, table in reloaded.model._tables.items():
            assert np.array_equal(
                table, original.model._tables[view][:len(table)]), view
        assert reloaded.config == original.config
        assert sorted(reloaded._train_by_id) == sorted(original._train_by_id)

    def test_sem_components_restored(self, artifact, fitted_recommender):
        directory, _ = artifact
        reloaded = load_pipeline(directory)
        sem_a, sem_b = fitted_recommender.sem, reloaded.sem
        assert np.array_equal(sem_a.encoder._rotation, sem_b.encoder._rotation)
        assert sem_a.encoder._frequency == sem_b.encoder._frequency
        assert np.array_equal(sem_a.rules.weights, sem_b.rules.weights)
        for key, value in sem_a.network.state_dict().items():
            assert np.array_equal(value, sem_b.network.state_dict()[key]), key

    def test_affiliations_persisted(self, artifact, serve_task):
        directory, _ = artifact
        affiliations = load_author_affiliations(directory)
        expected = {a.id: a.affiliation for a in serve_task.corpus.authors
                    if a.affiliation}
        assert affiliations == expected


class TestFailureModes:
    def test_unfitted_recommender_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_pipeline(NPRecRecommender(), tmp_path / "x")

    def test_missing_manifest(self, artifact, tmp_path):
        directory = _copy(artifact[0], tmp_path)
        (directory / "manifest.json").unlink()
        with pytest.raises(ArtifactError, match="manifest"):
            load_pipeline(directory)

    def test_corrupt_manifest_json(self, artifact, tmp_path):
        directory = _copy(artifact[0], tmp_path)
        (directory / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="corrupt manifest"):
            load_pipeline(directory)

    def test_wrong_schema_version(self, artifact, tmp_path):
        directory = _copy(artifact[0], tmp_path)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 999
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaVersionError, match="schema version"):
            load_pipeline(directory)

    @staticmethod
    def _assert_refused(artifact, tmp_path, version):
        directory = _copy(artifact[0], tmp_path)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["schema_version"] = version
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaVersionError,
                           match=f"schema version {version}"):
            load_pipeline(directory)

    def test_v3_artifact_is_refused(self, artifact, tmp_path):
        # v4 dropped the novelty payload and its config field: a v3
        # directory must be re-saved, never half-read.
        assert SCHEMA_VERSION == 8
        self._assert_refused(artifact, tmp_path, 3)

    def test_v4_artifact_is_refused(self, artifact, tmp_path):
        # v5 stores the TF-IDF vocabulary instead of refitting it: a v4
        # directory has none to load.
        assert SCHEMA_VERSION == 8
        self._assert_refused(artifact, tmp_path, 4)

    def test_v5_artifact_is_refused(self, artifact, tmp_path):
        # v6 stores the neighbour tables instead of the lazily sampled
        # fields and their sampler state: a v5 directory has no tables.
        assert SCHEMA_VERSION == 8
        self._assert_refused(artifact, tmp_path, 5)

    def test_v6_artifact_is_refused(self, artifact, tmp_path):
        # v7 rows sketch the raw lexical block: a v6 quantizer's
        # centroids are 3128 columns wide and score nothing in a
        # 160-column pool.
        assert SCHEMA_VERSION == 8
        self._assert_refused(artifact, tmp_path, 6)

    @staticmethod
    def _as_v7(artifact, tmp_path):
        """A copy laid out as a v7 save: the stale config key and flag,
        the ``profile_text/`` payload, every file checksummed."""
        directory = _copy(artifact[0], tmp_path)
        config_path = directory / "config.json"
        config = json.loads(config_path.read_text())
        config["nprec_config"]["profile_text_weight"] = 1.0
        config["has_profile_text"] = True
        config_path.write_text(json.dumps(config))
        (directory / "profile_text").mkdir()
        (directory / "profile_text" / "meta.json").write_text(
            json.dumps({"text_dim": 48, "venue_rate": {}, "author_h": {}}))
        np.savez(directory / "profile_text" / "weights.npz",
                 **{"bilinear.weight": np.zeros((24, 963))})
        manifest = json.loads((directory / "manifest.json").read_text())
        for rel in ("config.json", "profile_text/meta.json",
                    "profile_text/weights.npz"):
            manifest["files"][rel] = staging.sha256(directory / rel)
        manifest["schema_version"] = 7
        (directory / "manifest.json").write_text(json.dumps(manifest))
        return directory, manifest

    def test_v7_artifact_is_refused(self, artifact, tmp_path):
        # v8 dropped the profile-text payload and its config key: a v7
        # save is refused by version, before its stale
        # ``profile_text_weight`` reaches NPRecConfig.
        assert SCHEMA_VERSION == 8
        directory, _ = self._as_v7(artifact, tmp_path)
        with pytest.raises(SchemaVersionError, match="schema version 7"):
            load_pipeline(directory)

    def test_a_relabelled_v7_artifact_is_an_artifact_error(self, artifact,
                                                          tmp_path):
        # The same files under a v8 label pass the checksums; the stale
        # key is then reported as an ArtifactError, not a TypeError.
        directory, manifest = self._as_v7(artifact, tmp_path)
        manifest["schema_version"] = SCHEMA_VERSION
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="profile_text_weight"):
            load_pipeline(directory)

    def test_schema_error_is_artifact_error(self):
        # Callers catching the broad class also see version mismatches.
        assert issubclass(SchemaVersionError, ArtifactError)

    def test_tampered_file_fails_checksum(self, artifact, tmp_path):
        directory = _copy(artifact[0], tmp_path)
        target = directory / "config.json"
        payload = json.loads(target.read_text())
        payload["nprec_config"]["dim"] = 999
        target.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="config.json"):
            load_pipeline(directory)

    def test_missing_payload_file(self, artifact, tmp_path):
        directory = _copy(artifact[0], tmp_path)
        (directory / "papers.json").unlink()
        with pytest.raises(ArtifactError, match="papers.json"):
            load_pipeline(directory)

    def test_wrong_kind_rejected(self, artifact, tmp_path):
        directory = _copy(artifact[0], tmp_path)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["kind"] = "something-else"
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="kind"):
            load_pipeline(directory)


class TestRewritesCarryChecksums:
    """A snapshot that carries files forward keeps their old checksums."""

    @pytest.mark.parametrize("rewrite", ["compact", "save_ann_index"])
    def test_rewrite_does_not_approve_a_tampered_payload(
            self, artifact, serve_task, tmp_path, rewrite):
        directory = _copy(artifact[0], tmp_path)
        pool = list(serve_task.new_papers)
        index = ServingIndex.from_artifact(directory, papers=pool,
                                           index="ivf")
        ivf = index.build_ann_index()
        # Tamper so the file still parses: only its checksum can tell.
        target = directory / "config.json"
        payload = json.loads(target.read_text())
        payload["nprec_config"]["max_pool_mix"] = 0.9
        target.write_text(json.dumps(payload))
        if rewrite == "compact":
            degraded = ServingIndex.from_artifact(
                directory, papers=pool,
                wal=WriteAheadLog(tmp_path / "ingest.wal"))
            assert degraded.degraded
            degraded.compact()
        else:
            save_ann_index(directory, ivf, index.paper_ids)
        with pytest.raises(ArtifactError, match="config.json"):
            load_pipeline(directory)


class TestResave:
    def test_a_resave_carries_the_compacted_pool(self, artifact, serve_task,
                                                 tmp_path):
        directory = _copy(artifact[0], tmp_path)
        pool = list(serve_task.new_papers)
        live = ServingIndex.from_artifact(
            directory, papers=pool,
            wal=WriteAheadLog(tmp_path / "ingest.wal"))
        live.add_paper(dataclasses.replace(pool[0], id="resave-0",
                                           references=(), citation_count=0))
        live.compact()  # truncates the log: the snapshot is the only copy
        save_pipeline(load_pipeline(directory), directory)
        assert [p.id for p in load_pool(directory)] == live.paper_ids
        restarted = ServingIndex.from_artifact(directory, papers=pool)
        assert restarted.health(probe=False)["checks"]["artifact"]["ok"]
        assert restarted.paper_ids == live.paper_ids

    def test_a_directory_that_is_not_an_artifact_is_refused(
            self, fitted_recommender, tmp_path):
        directory = tmp_path / "data"
        directory.mkdir()
        (directory / "notes.txt").write_text("keep me")
        with pytest.raises(ArtifactError, match="not a snapshot"):
            save_pipeline(fitted_recommender, directory)
        assert sorted(p.name for p in directory.iterdir()) == ["notes.txt"]


class TestManifest:
    def test_manifest_contents(self, artifact, fitted_recommender):
        directory, _ = artifact
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["kind"] == "nprec-pipeline"
        counts = manifest["counts"]
        assert counts["train_papers"] == len(fitted_recommender._train_by_id)
        assert counts["entities"] > counts["train_papers"]
        # Every listed file exists and every payload file is listed.
        files = set(manifest["files"])
        on_disk = {str(p.relative_to(directory)).replace("\\", "/")
                   for p in directory.rglob("*")
                   if p.is_file() and p.name != "manifest.json"}
        assert files == on_disk


class TestStoredVocabulary:
    """The one TF-IDF vocabulary is stored and loaded, never refitted."""

    def test_stored_transform_equals_a_refit(self, artifact, serve_task):
        train = list(serve_task.train_papers)
        refit = TfIdfIndex(max_features=CONTENT_FEATURES).fit(train)
        tfidf = load_pipeline(artifact[0]).content_tfidf_
        assert tfidf.dim == refit.dim <= CONTENT_FEATURES
        assert np.array_equal(tfidf.idf_, refit.idf_)
        for paper in train + list(serve_task.new_papers):
            assert (tfidf.transform(paper).tobytes()
                    == refit.transform(paper).tobytes()), paper.id

    def test_compact_then_reload_keeps_the_vocabulary(self, artifact,
                                                      serve_task, tmp_path):
        directory = _copy(artifact[0], tmp_path)
        pool = list(serve_task.new_papers)
        live = ServingIndex.from_artifact(
            directory, papers=pool,
            wal=WriteAheadLog(tmp_path / "ingest.wal"))
        live.add_paper(dataclasses.replace(pool[0], id="vocab-0",
                                           references=(), citation_count=0))
        live.compact()
        manifest = json.loads((directory / "manifest.json").read_text())
        assert "vocabulary.npz" in manifest["files"]
        before = load_pipeline(artifact[0]).content_tfidf_
        after = load_pipeline(directory).content_tfidf_
        assert after.terms == before.terms
        assert after.idf_.tobytes() == before.idf_.tobytes()


class TestSparseContentLayout:
    """The content block is persisted and replayed as CSR arrays."""

    def test_save_load_save_load_is_stable(self, artifact, tmp_path):
        directory, baseline = artifact
        first = load_pipeline(directory)
        resaved = save_pipeline(first, tmp_path / "again")
        second = load_pipeline(resaved)
        assert ((resaved / "model" / "static.npz").read_bytes()
                == (directory / "model" / "static.npz").read_bytes())
        user = baseline["user"]
        for reloaded in (first, second):
            assert reloaded.rank(list(user.train_papers),
                                 user.candidate_set(20)) == baseline["head"]
            assert reloaded.rank(list(user.train_papers),
                                 list(user.candidates)) == baseline["full"]

    def test_static_holds_no_dense_content_block(self, artifact,
                                                 fitted_recommender):
        directory, _ = artifact
        content = fitted_recommender.model.content_matrix
        assert isinstance(content, ContentRows)
        width = content.shape[1]
        with np.load(directory / "model" / "static.npz") as static:
            arrays = {name: static[name] for name in static.files}
        assert all(a.ndim < 2 or width not in a.shape for a in arrays.values())
        assert np.array_equal(arrays["content_indptr"], content.indptr)
        reloaded = load_pipeline(directory).model.content_matrix
        assert isinstance(reloaded, ContentRows)
        assert reloaded.shape == content.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(reloaded, name),
                                  arrays[f"content_{name}"]), name

    def test_wal_replay_equals_never_crashed(self, artifact, serve_task,
                                             tmp_path):
        directory, _ = artifact
        fresh = [dataclasses.replace(paper, id=f"sparse-{i}", references=(),
                                     citation_count=0)
                 for i, paper in enumerate(serve_task.new_papers[:4])]
        user = serve_task.users[3]
        wal_path = tmp_path / "ingest.wal"
        kwargs = dict(papers=list(serve_task.new_papers), index="exact")

        live = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        for paper in fresh:
            live.add_paper(paper)
        live.wal.close()
        live.register_user(user.author_id, list(user.train_papers))
        want = live.batch_top_k([(user.author_id, 10)])[0]

        restarted = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        assert restarted.wal.lag == len(fresh)
        restarted.register_user(user.author_id, list(user.train_papers))
        got = restarted.batch_top_k([(user.author_id, 10)])[0]
        assert got.ids == want.ids
        assert got.scores.tobytes() == want.scores.tobytes()
        live_rows = live._recommender.model.content_matrix
        replayed_rows = restarted._recommender.model.content_matrix
        assert replayed_rows.shape == live_rows.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(replayed_rows, name),
                                  getattr(live_rows, name)), name
