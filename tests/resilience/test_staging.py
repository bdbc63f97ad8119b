"""The staged snapshot writer: whole-directory swaps, carried checksums."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ArtifactError, SchemaVersionError
from repro.resilience import staging


def _write(target, files, **kwargs):
    payloads = {rel: staging.json_payload(value)
                for rel, value in files.items()}
    manifest = kwargs.pop("manifest", {"schema_version": 1, "kind": "test"})
    return staging.write_snapshot(target, payloads, manifest, **kwargs)


def test_a_rewrite_replaces_the_directory_as_a_whole(tmp_path):
    target = tmp_path / "snap"
    _write(target, {"a.json": 1, "sub/b.json": 2})
    _write(target, {"c.json": 3})
    manifest = staging.verify(target, "test", 1)
    assert sorted(manifest["files"]) == ["c.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]
    assert sorted(p.name for p in target.iterdir()) == ["c.json",
                                                        "manifest.json"]


def test_verify_names_every_failure(tmp_path):
    target = _write(tmp_path / "snap", {"a.json": 1, "b.json": 2})
    (target / "a.json").write_text("9")
    (target / "b.json").unlink()
    with pytest.raises(ArtifactError, match=r"a.json \(checksum mismatch\), "
                                            r"b.json \(missing\)"):
        staging.verify(target, "test", 1)
    with pytest.raises(SchemaVersionError, match="schema version 1"):
        staging.verify(target, "test", 2)
    with pytest.raises(ArtifactError, match="kind"):
        staging.verify(target, "other", 1)


def test_carried_files_keep_their_old_checksums(tmp_path):
    source = _write(tmp_path / "snap", {"a.json": 1, "b.json": 2,
                                        "c.json": 3})
    (source / "a.json").write_text("9")  # tampered after the save
    (source / "b.json").unlink()
    manifest = staging.read_manifest(source)
    _write(source, {"c.json": 4}, manifest=manifest, carry_from=source)
    with pytest.raises(ArtifactError) as caught:
        staging.verify(source, "test", 1)
    assert "a.json (checksum mismatch)" in str(caught.value)
    assert "b.json (missing)" in str(caught.value)
    assert "c.json" not in str(caught.value)


@pytest.mark.parametrize("point", range(4))
def test_a_crash_leaves_the_old_snapshot_or_the_new(tmp_path, crash_at,
                                                    point):
    """Events: two writes, then the swap's two renames."""
    target = _write(tmp_path / "snap", {"a.json": "old"})
    with crash_at(point) as run:
        _write(target, {"a.json": "new"})
    assert run.crashed and len(run.events) == point + 1
    # Every reader first rolls back a swap cut between its renames.
    manifest = staging.verify(target, "test", 1)
    assert (target / "a.json").read_text() == '"old"'
    assert sorted(manifest["files"]) == ["a.json"]
    # The next write clears whatever the crash left behind.
    _write(target, {"a.json": "next"})
    assert (target / "a.json").read_text() == '"next"'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]


@pytest.mark.parametrize("kind", ["directory", "file"])
def test_a_target_that_is_not_a_snapshot_is_refused(tmp_path, kind):
    target = tmp_path / "data"
    if kind == "directory":
        target.mkdir()
        (target / "notes.txt").write_text("keep me")
    else:
        target.write_text("keep me")
    with pytest.raises(ArtifactError, match="not a snapshot"):
        _write(target, {"a.json": 1})
    kept = target / "notes.txt" if kind == "directory" else target
    assert kept.read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]
    # An empty directory is a fine place for a first snapshot.
    (tmp_path / "empty").mkdir()
    _write(tmp_path / "empty", {"a.json": 1})
    staging.verify(tmp_path / "empty", "test", 1)


def test_recover_yields_to_a_swap_that_another_process_finished(
        tmp_path, monkeypatch):
    """Between a reader's check and its rollback rename, another
    process's writer swaps its snapshot in: the reader keeps that one."""
    target = _write(tmp_path / "snap", {"a.json": "old"})
    target.rename(tmp_path / ".snap.backup")  # a swap between its renames
    other = _write(tmp_path / "other", {"a.json": "new"})
    replace = staging.os.replace

    def racing_replace(src, dst):
        replace(other, target)  # the other writer's second rename
        replace(src, dst)  # the rollback: the target is no longer empty

    monkeypatch.setattr(staging.os, "replace", racing_replace)
    staging.recover(target)
    monkeypatch.undo()
    staging.verify(target, "test", 1)
    assert (target / "a.json").read_text() == '"new"'


_PAUSED_WRITER = """
import sys, time
from pathlib import Path
from repro.resilience import faults, staging

target, paused, go = map(Path, sys.argv[1:4])

def pause(site):
    # Hold the writer between its two renames until the test says go.
    if site == "snapshot.swap":
        paused.touch()
        while not go.exists():
            time.sleep(0.01)

faults.maybe_fail = pause
staging.write_snapshot(target, {"a.json": staging.json_payload("new")},
                       {"schema_version": 1, "kind": "test"})
"""


def test_a_reader_waits_for_another_process_s_swap(tmp_path):
    """Another process's writer stops between its renames (at the
    ``snapshot.swap`` fault site) while this process reads: the read's
    rollback check waits for the swap, so it neither restores the old
    snapshot nor makes the writer's second rename fail."""
    target = _write(tmp_path / "snap", {"a.json": "old"})
    paused, go = tmp_path / "paused", tmp_path / "go"
    src = Path(staging.__file__).resolve().parents[2]
    writer = subprocess.Popen(
        [sys.executable, "-c", _PAUSED_WRITER, str(target), str(paused),
         str(go)], env={**os.environ, "PYTHONPATH": str(src)})
    try:
        deadline = time.monotonic() + 60
        while not paused.exists():
            assert writer.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert not target.exists()  # the swap is between its renames
        reader = threading.Thread(target=staging.recover, args=(target,))
        reader.start()
        reader.join(0.3)
        assert reader.is_alive()  # waiting on the writer's lock
        go.touch()
        reader.join(60)
        assert writer.wait(60) == 0
    finally:
        go.touch()
        writer.wait(60)
    manifest = staging.verify(target, "test", 1)
    assert (target / "a.json").read_text() == '"new"'
    assert sorted(manifest["files"]) == ["a.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["go", "paused",
                                                          "snap"]
