"""Durable ingestion: WAL mechanics + crash-recovery equivalence.

The acceptance bar for the write-ahead log is *bit-identical* recovery:
a process that crashes mid-ingest and replays its log on restart must
produce the same ``top_k`` ids — and the same score bits — as a process
that never crashed. The equivalence wall here proves it for both
retrieval strategies (exact and IVF), for torn tails (a record cut
mid-byte), and across compaction, rather than assuming the replay path
and the live path stay in sync.

The oracle and the recovered run need not share a call sequence:
receptive fields are gathers over the model's fixed neighbour tables, so
registering a user or answering an ad-hoc query draws nothing, and the
oracle may do either anywhere among its ingests.
"""

import dataclasses
import json
import shutil

import pytest

from repro import obs
from repro.errors import InjectedFault, WALError
from repro.resilience import faults
from repro.serve import ServingIndex, WriteAheadLog
from repro.serve.wal import WALRecord


def _fresh_papers(task, n, tag):
    """Never-seen papers cloned from pool templates (fresh ids)."""
    out = []
    for i in range(n):
        template = task.new_papers[i % len(task.new_papers)]
        out.append(dataclasses.replace(
            template, id=f"wal-{tag}-{i}", references=(), citation_count=0))
    return out


# ----------------------------------------------------------------------
# Log-file mechanics (no model involved)
# ----------------------------------------------------------------------
class TestWALFile:
    def test_append_recover_round_trip(self, tmp_path, serve_task):
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        papers = serve_task.new_papers[:3]
        for i, paper in enumerate(papers):
            record = wal.append(paper, pool_version=i)
            assert record.seq == i
        assert wal.lag == 3
        wal.close()

        recovered = WriteAheadLog(path).recover()
        assert [r.seq for r in recovered] == [0, 1, 2]
        assert [r.paper["id"] for r in recovered] == [p.id for p in papers]
        assert [r.pool_version for r in recovered] == [0, 1, 2]

    def test_torn_tail_mid_byte_is_dropped_and_repaired(self, tmp_path,
                                                        serve_task):
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        for i, paper in enumerate(serve_task.new_papers[:3]):
            wal.append(paper, pool_version=i)
        wal.close()

        # Crash mid-write: the last record loses its final 10 bytes.
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])

        wal2 = WriteAheadLog(path)
        recovered = wal2.recover()
        assert len(recovered) == 2
        assert wal2.torn_records == 1
        assert wal2.lag == 2
        # Repaired in place: the file now ends at the last durable byte,
        # and the next append continues the sequence from there.
        durable = raw.split(b"\n")
        assert path.read_bytes() == b"\n".join(durable[:2]) + b"\n"
        record = wal2.append(serve_task.new_papers[3], pool_version=9)
        assert record.seq == 2
        wal2.close()
        assert len(WriteAheadLog(path).recover()) == 3

    def test_corrupt_middle_record_drops_everything_after(self, tmp_path,
                                                          serve_task):
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        for i, paper in enumerate(serve_task.new_papers[:3]):
            wal.append(paper, pool_version=i)
        wal.close()

        lines = path.read_bytes().splitlines()
        # Tamper with record #1's payload without fixing its checksum.
        lines[1] = lines[1].replace(b'"seq":1', b'"seq":2', 1)
        path.write_bytes(b"\n".join(lines) + b"\n")

        wal2 = WriteAheadLog(path)
        recovered = wal2.recover()
        # Only the prefix before the corruption survives; the valid-
        # looking record *after* it postdates the corruption point and
        # is dropped too (its seq no longer lines up anyway).
        assert len(recovered) == 1
        assert wal2.torn_records == 2

    def test_checksum_covers_the_payload(self, serve_task):
        from repro.data.io import paper_to_dict
        from repro.serve.wal import _record_digest

        entry = {"seq": 0, "pool_version": 0,
                 "paper": paper_to_dict(serve_task.new_papers[0])}
        entry["sha256"] = _record_digest(entry)
        good = json.dumps(entry, sort_keys=True).encode("utf-8")
        assert WALRecord.validate(good, expected_seq=0) is not None
        assert WALRecord.validate(good, expected_seq=1) is None
        tampered = good.replace(b'"pool_version": 0', b'"pool_version": 7')
        assert WALRecord.validate(tampered, expected_seq=0) is None
        assert WALRecord.validate(b"not json", expected_seq=0) is None

    def test_truncate_empties_the_log(self, tmp_path, serve_task):
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        for paper in serve_task.new_papers[:2]:
            wal.append(paper, pool_version=0)
        assert wal.truncate() == 2
        assert wal.lag == 0
        assert path.read_bytes() == b""
        # Appends restart the sequence from zero.
        assert wal.append(serve_task.new_papers[2], pool_version=5).seq == 0
        wal.close()


# ----------------------------------------------------------------------
# Crash-recovery equivalence (the acceptance bar)
# ----------------------------------------------------------------------
#: Where the never-crashed oracle registers the user among its five
#: ingests (``after`` all of them, ``before`` any, ``between`` the second
#: and third), or ``query``: an ad-hoc profile query after the second
#: ingest, then registration after the last.
_CALL_ORDERS = [pytest.param(crash_after, order, id=f"{crash_after}{tag}")
                for order, tag in [("after", ""), ("before", "-before"),
                                   ("between", "-between"),
                                   ("query", "-query")]
                for crash_after in (1, 3)]


class TestCrashRecovery:
    @pytest.mark.parametrize("strategy", ["exact", "ivf"])
    @pytest.mark.parametrize("crash_after,order", _CALL_ORDERS)
    def test_replay_is_bit_identical_to_never_crashing(
            self, artifact, serve_task, tmp_path, strategy, crash_after,
            order):
        directory, _ = artifact
        fresh = _fresh_papers(serve_task, 5, f"{strategy}-{crash_after}")
        user = serve_task.users[0]
        held = {p.id for p in user.train_papers}
        ad_hoc = [p for p in serve_task.train_papers if p.id not in held][:5]
        kwargs = dict(papers=list(serve_task.new_papers), index=strategy)

        # Oracle: the process that never crashed.
        oracle = ServingIndex.from_artifact(directory, **kwargs)
        register = {"after": 5, "before": 0, "between": 2, "query": 5}[order]
        for i, paper in enumerate(fresh + [None]):
            if i == register:
                oracle.register_user(user.author_id, list(user.train_papers))
            if order == "query" and i == 2:
                oracle.top_k(ad_hoc, k=5)
            if paper is not None:
                oracle.add_paper(paper)
        # One cold batch query over the whole pool: cache hits would
        # return ids without the score vector, and the bar here is every
        # row's id *and* score bits.
        k = oracle.num_papers
        want = oracle.batch_top_k([(user.author_id, k)])[0]
        want_ids, want_bits = want.ids, want.scores.tobytes()

        # Durable run: crash after `crash_after` acknowledged ingests...
        wal_path = tmp_path / "ingest.wal"
        crashed = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        for paper in fresh[:crash_after]:
            crashed.add_paper(paper)
        crashed.wal.close()
        del crashed  # the crash: in-memory state is gone

        # ...restart, replay, finish the ingestion sequence.
        recovered = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        assert recovered.wal.lag == crash_after
        for paper in fresh[crash_after:]:
            recovered.add_paper(paper)
        recovered.register_user(user.author_id, list(user.train_papers))
        got = recovered.batch_top_k([(user.author_id, k)])[0]
        assert got.ids == want_ids
        assert got.scores.tobytes() == want_bits

    def test_torn_tail_recovers_the_acknowledged_prefix(
            self, artifact, serve_task, tmp_path):
        directory, _ = artifact
        fresh = _fresh_papers(serve_task, 3, "torn")
        user = serve_task.users[1]
        kwargs = dict(papers=list(serve_task.new_papers))

        # Oracle over the first two ingests only: the torn third record
        # was never durable, so recovery must match the 2-ingest world.
        oracle = ServingIndex.from_artifact(directory, **kwargs)
        for paper in fresh[:2]:
            oracle.add_paper(paper)
        oracle.register_user(user.author_id, list(user.train_papers))
        want_ids = oracle.top_k(user.author_id, 10)

        wal_path = tmp_path / "ingest.wal"
        live = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        for paper in fresh:
            live.add_paper(paper)
        live.wal.close()
        raw = wal_path.read_bytes()
        wal_path.write_bytes(raw[:-7])  # tear record #2 mid-byte
        del live

        recovered = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        assert recovered.wal.lag == 2
        assert recovered.wal.torn_records == 1
        assert fresh[2].id not in recovered._positions
        recovered.register_user(user.author_id, list(user.train_papers))
        assert recovered.top_k(user.author_id, 10) == want_ids

    def test_compact_bakes_the_log_into_the_artifact(
            self, artifact, serve_task, tmp_path):
        source, _ = artifact
        directory = tmp_path / "pipeline"
        shutil.copytree(source, directory)  # compact rewrites the artifact
        fresh = _fresh_papers(serve_task, 3, "compact")
        user = serve_task.users[2]

        wal_path = tmp_path / "ingest.wal"
        live = ServingIndex.from_artifact(
            directory, papers=list(serve_task.new_papers),
            wal=WriteAheadLog(wal_path))
        for paper in fresh:
            live.add_paper(paper)
        summary = live.compact()
        assert summary["records_compacted"] == 3
        assert summary["pool_size"] == live.num_papers
        assert live.wal.lag == 0
        assert (directory / "pool" / "pool.json").exists()

        live.register_user(user.author_id, list(user.train_papers))
        want_ids = live.top_k(user.author_id, 10)

        # Restart against the compacted artifact: nothing to replay —
        # the pool snapshot plus the re-saved model carry everything.
        restarted = ServingIndex.from_artifact(
            directory, papers=list(serve_task.new_papers),
            wal=WriteAheadLog(wal_path))
        assert restarted.wal.lag == 0
        assert all(p.id in restarted._positions for p in fresh)
        restarted.register_user(user.author_id, list(user.train_papers))
        assert restarted.top_k(user.author_id, 10) == want_ids

        # The artifact it re-saved still verifies clean.
        assert restarted.health(probe=False)["checks"]["artifact"]["ok"]

    def test_a_crash_anywhere_in_compact_restarts_to_the_same_answers(
            self, artifact, serve_task, tmp_path, crash_at, monkeypatch):
        """A crash at any staged write or rename of ``compact``, or just
        before the log truncate, restarts from the same directory and
        log to an index that is not degraded, whose artifact verifies
        and whose ``top_k`` equals the never-crashed index's."""
        source, _ = artifact
        pool = list(serve_task.new_papers)
        user = serve_task.users[2]
        live_dir = tmp_path / "live"
        shutil.copytree(source, live_dir)
        wal_path = tmp_path / "live.wal"
        live = ServingIndex.from_artifact(live_dir, papers=pool,
                                          wal=WriteAheadLog(wal_path))
        for paper in _fresh_papers(serve_task, 3, "crash"):
            live.add_paper(paper)

        def crashed_copy(name):
            """A copy of the pre-compaction artifact and of the live log."""
            directory = tmp_path / name
            shutil.copytree(live_dir, directory)
            shutil.copy(wal_path, tmp_path / f"{name}.wal")
            return directory

        # Crash at each staged event in turn; the first run that does not
        # crash is the never-crashed compaction.
        crashed, point = [], 0
        while True:
            directory = crashed_copy(f"crash-{point}")
            with crash_at(point) as run:
                live.compact(directory)
            if not run.crashed:
                break
            crashed.append(directory)
            point += 1
        assert len(crashed) == len(run.events) >= 10
        # The last two events are the swap: target to backup, staging in.
        assert run.events[-2:] == [f"rename crash-{point}",
                                   f"rename .crash-{point}.staging"]

        # A kill after the swap, before the log is truncated.
        def killed():
            raise KeyboardInterrupt

        directory = crashed_copy("before-truncate")
        monkeypatch.setattr(live.wal, "truncate", killed)
        with pytest.raises(KeyboardInterrupt):
            live.compact(directory)
        monkeypatch.undo()
        crashed.append(directory)

        live.register_user(user.author_id, list(user.train_papers))
        want = live.top_k(user.author_id, 10)
        for directory in crashed:
            log = directory.with_name(f"{directory.name}.wal")
            restarted = ServingIndex.from_artifact(
                directory, papers=pool, wal=WriteAheadLog(log))
            assert not restarted.degraded, directory.name
            assert restarted.health(probe=False)["checks"]["artifact"]["ok"], \
                directory.name
            restarted.register_user(user.author_id, list(user.train_papers))
            assert restarted.top_k(user.author_id, 10) == want, directory.name

    def test_compact_persists_the_live_quantizer(self, artifact, serve_task,
                                                 tmp_path):
        source, _ = artifact
        directory = tmp_path / "pipeline"
        shutil.copytree(source, directory)
        pool = list(serve_task.new_papers)
        user = serve_task.users[2]
        wal_path = tmp_path / "ingest.wal"
        live = ServingIndex.from_artifact(directory, papers=pool, index="ivf",
                                          wal=WriteAheadLog(wal_path))
        live.build_ann_index()
        for paper in _fresh_papers(serve_task, 2, "ivf"):
            live.add_paper(paper)
        live.compact()

        # The restart adopts the compacted quantizer instead of refitting.
        restarted = ServingIndex.from_artifact(
            directory, papers=pool, index="ivf", wal=WriteAheadLog(wal_path))
        assert restarted.ann is not None
        for index in (live, restarted):
            index.register_user(user.author_id, list(user.train_papers))
        assert restarted.top_k(user.author_id, 10) == \
            live.top_k(user.author_id, 10)

    def test_compact_before_the_first_ivf_query_keeps_replay_exact(
            self, artifact, serve_task, tmp_path):
        """An IVF index with no persisted quantizer ingests, compacts
        before any query, ingests more and answers. A restart from the
        compacted artifact, and one from the artifact as it stood before
        the compaction with the whole log (what a crash before the swap
        leaves), rank the whole pool with the live index's ids; the
        uncompacted restart also with its score bits."""
        source, _ = artifact
        directory = tmp_path / "pipeline"
        shutil.copytree(source, directory)
        fresh = _fresh_papers(serve_task, 5, "unfitted")
        user = serve_task.users[0]
        kwargs = dict(papers=list(serve_task.new_papers), index="ivf")
        wal_path = tmp_path / "ingest.wal"
        live = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        for paper in fresh[:2]:
            live.add_paper(paper)
        before = tmp_path / "before"
        shutil.copytree(directory, before)
        shutil.copy(wal_path, tmp_path / "before.wal")
        live.compact()
        for paper in fresh[2:]:
            live.add_paper(paper)

        compacted = ServingIndex.from_artifact(
            directory, wal=WriteAheadLog(wal_path), **kwargs)
        assert compacted.ann is not None  # adopted, not refitted
        uncompacted = ServingIndex.from_artifact(
            before, wal=WriteAheadLog(tmp_path / "before.wal"), **kwargs)
        for paper in fresh[2:]:
            uncompacted.add_paper(paper)
        k = live.num_papers
        ranked = {}
        for name, index in [("live", live), ("compacted", compacted),
                            ("uncompacted", uncompacted)]:
            assert index.num_papers == k
            index.register_user(user.author_id, list(user.train_papers))
            got = index.batch_top_k([(user.author_id, k)])[0]
            ranked[name] = (got.ids, got.scores.tobytes())
        assert ranked["uncompacted"] == ranked["live"]
        # Loading the compacted pool computes the ingested papers' rows in
        # one block, which can round their last bit differently from the
        # one-row ingests: there the ids are the bar, as in the other
        # compaction tests.
        assert ranked["compacted"][0] == ranked["live"][0]

    @pytest.mark.parametrize("elsewhere", [False, True])
    def test_compact_keeps_the_manifest_extra(self, artifact, serve_task,
                                              tmp_path, elsewhere):
        source, _ = artifact
        directory = tmp_path / "pipeline"
        shutil.copytree(source, directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["extra"] = {"corpus": "acm", "scale": 0.3, "seed": 0}
        manifest_path.write_text(json.dumps(manifest))
        live = ServingIndex.from_artifact(
            directory, papers=list(serve_task.new_papers),
            wal=WriteAheadLog(tmp_path / "ingest.wal"))
        live.add_paper(_fresh_papers(serve_task, 1, "extra")[0])
        target = tmp_path / "compacted" if elsewhere else directory
        live.compact(target if elsewhere else None)
        resaved = json.loads((target / "manifest.json").read_text())
        assert resaved["extra"] == manifest["extra"]

    def test_replay_is_idempotent_for_known_papers(self, serve_task,
                                                   tmp_path, obs_enabled):
        # Degraded (TF-IDF only) index: replay idempotence is a pool-
        # membership property, identical on the modelled path.
        pool = list(serve_task.new_papers)
        fresh = _fresh_papers(serve_task, 2, "idem")
        wal_path = tmp_path / "ingest.wal"
        first = ServingIndex(None, papers=pool)
        first.attach_wal(WriteAheadLog(wal_path))
        for paper in fresh:
            first.add_paper(paper)

        # Restart where the pool *already* contains the logged papers
        # (e.g. after a compact whose truncate was lost): records skip.
        again = ServingIndex(None, papers=pool + fresh)
        applied = again.attach_wal(WriteAheadLog(wal_path))
        assert applied == 0
        skipped = obs.get_registry().get("serve.wal.replayed",
                                         outcome="skipped")
        assert skipped is not None and skipped.value == 2
        assert again.num_papers == len(pool) + len(fresh)


# ----------------------------------------------------------------------
# Failure semantics and the lag SLO
# ----------------------------------------------------------------------
class TestDurabilityContract:
    def test_unreplayable_record_raises_walerror(self, serve_task, tmp_path):
        pool = list(serve_task.new_papers)
        wal_path = tmp_path / "ingest.wal"
        first = ServingIndex(None, papers=pool)
        first.attach_wal(WriteAheadLog(wal_path))
        first.add_paper(_fresh_papers(serve_task, 1, "fail")[0])

        # Every replay attempt fails: an acknowledged ingest that cannot
        # be reapplied is data loss, so startup refuses loudly instead
        # of serving a silently shrunken pool.
        with faults.inject("serve.wal.replay:1.0:1"):
            fresh_index = ServingIndex(None, papers=pool)
            with pytest.raises(WALError, match="refusing to serve"):
                fresh_index.attach_wal(WriteAheadLog(wal_path))

    def test_crashed_append_leaves_no_record_and_no_mutation(
            self, serve_task, tmp_path):
        pool = list(serve_task.new_papers)
        paper = _fresh_papers(serve_task, 1, "crash")[0]
        wal_path = tmp_path / "ingest.wal"
        index = ServingIndex(None, papers=pool)
        index.attach_wal(WriteAheadLog(wal_path))
        with faults.inject("serve.wal.append:1.0:1"):
            with pytest.raises(InjectedFault):
                index.add_paper(paper)
        # Write-ahead means write *first*: the failed append left the
        # pool untouched and the log empty — nothing was acknowledged.
        assert paper.id not in index._positions
        assert index.wal.lag == 0
        assert len(WriteAheadLog(wal_path).recover()) == 0

    def test_wal_lag_slo_pages_health(self, serve_task, tmp_path,
                                      obs_enabled):
        pool = list(serve_task.new_papers)
        index = ServingIndex(None, papers=pool)
        index.attach_wal(WriteAheadLog(tmp_path / "ingest.wal"),
                         lag_bound=2)
        for paper in _fresh_papers(serve_task, 3, "lag"):
            index.add_paper(paper)
        report = index.health(probe=False)
        assert report["checks"]["wal"]["lag"] == 3
        assert "serve.wal.lag" in report["slo_breaches"]
        assert not report["healthy"]

        # Compaction is the documented remedy; health recovers with it.
        index.compact(tmp_path / "compacted")
        report = index.health(probe=False)
        assert report["checks"]["wal"]["lag"] == 0
        assert "serve.wal.lag" not in report["slo_breaches"]
