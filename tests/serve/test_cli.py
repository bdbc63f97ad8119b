"""CLI tests: warmup -> query against a real artifact, plus arg handling."""

import argparse
import dataclasses
import json
import shutil

import pytest

from repro.serve import ServingIndex, WriteAheadLog, load_pool
from repro.serve.__main__ import (_default_wal, _load_or_fit_index,
                                  _manifest_task, main)


@pytest.fixture(scope="module")
def warm_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli") / "artifact"
    code = main(["warmup", "--dir", str(directory), "--scale", "0.3",
                 "--seed", "0", "--users", "6"])
    assert code == 0
    return directory


class TestWarmup:
    def test_writes_artifact_with_metadata(self, warm_dir):
        manifest = json.loads((warm_dir / "manifest.json").read_text())
        assert manifest["kind"] == "nprec-pipeline"
        assert manifest["extra"]["corpus"] == "acm"
        assert manifest["extra"]["scale"] == 0.3


class TestQuery:
    def test_query_prints_topk(self, warm_dir, capsys):
        code = main(["query", "--dir", str(warm_dir), "-k", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "top-5" in out
        # Five ranked lines, numbered.
        assert out.count("\n  ") >= 5

    def test_unknown_user_is_an_error(self, warm_dir, capsys):
        code = main(["query", "--dir", str(warm_dir), "--user", "nobody"])
        assert code == 2
        assert "unknown user" in capsys.readouterr().err

    def test_degraded_query_warns_but_serves(self, warm_dir, tmp_path,
                                             capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(warm_dir, broken)
        (broken / "papers.json").write_text("tampered")
        code = main(["query", "--dir", str(broken), "-k", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded" in captured.err
        assert "top-3" in captured.out


@pytest.fixture(scope="module")
def ivf_dir(tmp_path_factory):
    """A warmup artifact that also persisted its IVF quantizer."""
    directory = tmp_path_factory.mktemp("cli-ivf") / "artifact"
    code = main(["warmup", "--dir", str(directory), "--scale", "0.3",
                 "--seed", "0", "--users", "6", "--index", "ivf",
                 "--nprobe", "4"])
    assert code == 0
    return directory


class TestIvfFlags:
    def test_warmup_persists_quantizer(self, ivf_dir, capsys):
        assert (ivf_dir / "ann" / "ivf.json").is_file()
        assert (ivf_dir / "ann" / "ivf.npz").is_file()
        meta = json.loads((ivf_dir / "ann" / "ivf.json").read_text())
        assert meta["kind"] == "ivf"
        assert "pool_sha256" in meta

    def test_query_reports_ivf_strategy(self, ivf_dir, capsys):
        code = main(["query", "--dir", str(ivf_dir), "-k", "4",
                     "--index", "ivf", "--nprobe", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ivf, nprobe=2" in out
        assert "top-4" in out

    def test_exact_remains_the_default(self, ivf_dir, capsys):
        code = main(["query", "--dir", str(ivf_dir), "-k", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact)" in out
        assert "ivf," not in out


class TestSchedulerFlags:
    def test_health_reports_scheduler_check(self, warm_dir, capsys):
        code = main(["health", "--dir", str(warm_dir), "--scheduler",
                     "--max-batch", "4", "--queue-depth", "16"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        check = report["checks"]["scheduler"]
        assert check["ok"] is True
        assert check["queue_depth"] == 0
        assert check["queue_capacity"] == 16
        assert check["max_batch"] == 4
        assert check["shed_rate"] == 0.0
        # The report is taken while the scheduler is live: one BLAS
        # thread, or null where numpy bundles no OpenBLAS.
        assert check["blas_threads"] in (1, None)

    def test_health_without_flag_has_no_scheduler_check(self, warm_dir,
                                                        capsys):
        code = main(["health", "--dir", str(warm_dir)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "scheduler" not in report["checks"]


class TestHealthPool:
    def test_health_probes_the_evaluation_pool(self, warm_dir, capsys):
        pool = _manifest_task(str(warm_dir)).new_papers
        code = main(["health", "--dir", str(warm_dir)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        # The pool `query` and `serve` load, so the fallback probe runs.
        assert report["pool_size"] == len(pool) > 0
        assert report["checks"]["embeddings"]["rows"] == len(pool)
        assert report["checks"]["fallback"] == {"ok": True, "healed": False,
                                                "probed": True}


class TestCompact:
    def test_compact_keeps_the_pool_and_its_order(self, warm_dir, tmp_path,
                                                  capsys):
        directory = tmp_path / "artifact"
        shutil.copytree(warm_dir, directory)  # compact rewrites it
        task = _manifest_task(str(directory))
        live = ServingIndex.from_artifact(
            directory, papers=task.new_papers,
            wal=WriteAheadLog(_default_wal(str(directory))))
        for i, template in enumerate(task.new_papers[:2]):
            live.add_paper(dataclasses.replace(
                template, id=f"cli-compact-{i}", references=(),
                citation_count=0))
        live.wal.close()
        capsys.readouterr()

        assert main(["compact", "--dir", str(directory)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records_compacted"] == 2
        assert summary["pool_size"] == live.num_papers
        assert [p.id for p in load_pool(directory)] == live.paper_ids
        # The re-saved manifest still names the task, and a restart
        # comes back with the never-crashed pool order.
        assert _manifest_task(str(directory)) is not None
        restarted = ServingIndex.from_artifact(directory,
                                               papers=task.new_papers)
        assert restarted.paper_ids == live.paper_ids

    def test_serve_restarts_from_a_compact_cut_mid_swap(
            self, warm_dir, tmp_path, crash_at, capsys):
        """A crash between the swap's two renames leaves only the backup;
        ``serve`` must load it, not fit over it and lose its pool."""
        directory = tmp_path / "artifact"
        shutil.copytree(warm_dir, directory)
        task = _manifest_task(str(directory))
        live = ServingIndex.from_artifact(
            directory, papers=task.new_papers,
            wal=WriteAheadLog(_default_wal(str(directory))))
        fresh = [dataclasses.replace(template, id=f"cli-swap-{i}",
                                     references=(), citation_count=0)
                 for i, template in enumerate(task.new_papers[:2])]
        live.add_paper(fresh[0])
        live.compact()  # the log no longer holds fresh[0]
        live.add_paper(fresh[1])
        # Crash as the staging directory is renamed in: the old snapshot
        # is already the backup.
        with crash_at(f"rename .{directory.name}.staging") as run:
            live.compact()
        assert run.crashed and not directory.exists()
        capsys.readouterr()

        args = argparse.Namespace(dir=str(directory), scale=0.3, seed=0,
                                  cache_size=64, index="exact", nprobe=8,
                                  n_lists=None)
        _, index = _load_or_fit_index(args)
        assert "loading artifact" in capsys.readouterr().err
        assert not index.degraded
        assert fresh[0].id in index.paper_ids

    @pytest.mark.parametrize("argv", [
        ["query"], ["compact"], ["swap", "--candidate", "elsewhere"]])
    def test_artifact_without_task_exits_2(self, artifact, argv, capsys):
        code = main(argv + ["--dir", str(artifact[0])])
        assert code == 2
        assert "records no evaluation task" in capsys.readouterr().err


class TestParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
