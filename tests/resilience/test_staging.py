"""The staged snapshot writer: whole-directory swaps, carried checksums."""

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
