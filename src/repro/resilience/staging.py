"""Staged snapshot directories: one writer, one manifest, one verifier.

A snapshot is a directory whose ``manifest.json`` holds its
``schema_version``, its ``kind`` and the sha256 of every payload file
(``files``), plus whatever keys its owner adds. :func:`write_snapshot`
writes every payload and the manifest into the hidden sibling
``.<name>.staging`` and fsyncs them, renames an existing target to
``.<name>.backup``, renames the staging directory over the target and
deletes the backup. No file is ever rewritten in place, so a crash
leaves the old snapshot or the new one; :func:`recover`, which every
read and write runs first, moves a stranded backup back. The two
renames and every rollback hold one lock per target, across threads
and processes (:func:`_swap_lock`), so a reader never takes a swap in
flight for a crashed one. Serving
artifacts and training checkpoints are snapshots; :func:`atomic_write`
is the single-file form of the recipe.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping

import numpy as np

from repro.errors import ArtifactError, SchemaVersionError
from repro.resilience import faults

MANIFEST_NAME = "manifest.json"

#: Writes one payload file's bytes to an open binary handle.
Payload = Callable[[BinaryIO], Any]

# Serialises _swap_lock's holders within this process; the flock
# serialises processes.
_SWAP_LOCK = threading.Lock()


def json_payload(payload: Any) -> Payload:
    return lambda handle: handle.write(json.dumps(payload).encode("utf-8"))


def npz_payload(arrays: Mapping[str, np.ndarray]) -> Payload:
    return lambda handle: np.savez(handle, **arrays)


def sha256(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write(path: Path, payload: Payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        payload(handle)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str | os.PathLike, payload: Payload) -> None:
    """Write one file through a fsynced same-directory temp file renamed
    over *path*: a crash leaves the old bytes or the new ones."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        _write(tmp, payload)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def _siblings(target: Path) -> tuple[Path, Path]:
    return (target.with_name(f".{target.name}.staging"),
            target.with_name(f".{target.name}.backup"))


@contextmanager
def _swap_lock(target: Path) -> Iterator[None]:
    """Hold *target*'s swap lock: ``flock`` on the sibling
    ``.<name>.lock``, which the holder deletes on release. A waiter that
    then wins the lock on the deleted file retries on a fresh one, so
    two holders never overlap and no lock file outlives its swap."""
    path = target.with_name(f".{target.name}.lock")
    with _SWAP_LOCK:
        while True:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                if os.path.samestat(os.fstat(fd), os.stat(path)):
                    break
            except FileNotFoundError:
                pass
            os.close(fd)
        try:
            yield
        finally:
            path.unlink(missing_ok=True)
            os.close(fd)


def recover(target: str | os.PathLike) -> None:
    """Roll back a swap that a crash cut between its two renames."""
    target = Path(target)
    backup = _siblings(target)[1]
    if not backup.is_dir() or target.exists():
        return  # nothing stranded: reads take no lock
    with _swap_lock(target):
        if backup.is_dir() and not target.exists():
            try:
                os.replace(backup, target)
            except OSError:  # another process swapped a snapshot in
                if not target.exists():
                    raise


def recover_children(parent: str | os.PathLike) -> None:
    """:func:`recover` every snapshot directly under *parent*."""
    for backup in Path(parent).glob(".*.backup"):
        recover(backup.with_name(backup.name[1:-len(".backup")]))


def write_snapshot(target: str | os.PathLike, payloads: Mapping[str, Payload],
                   manifest: Mapping[str, Any],
                   carry_from: str | os.PathLike | None = None) -> Path:
    """Write a whole snapshot and swap it in over *target*.

    *payloads* maps each file's ``/``-separated relative path to its
    writer; *manifest* holds the manifest's other keys. The entries of
    ``manifest["files"]`` that *payloads* does not rewrite are carried:
    linked (or copied) from *carry_from* and listed under their old
    checksums, never re-hashed, so a file that failed verification keeps
    failing it (a missing one stays listed and missing).

    Raises :class:`~repro.errors.ArtifactError`, writing nothing, when
    *target* is a file or a non-empty directory without a manifest: the
    swap deletes the old snapshot, and that is not one.
    """
    target = Path(target)
    stage, backup = _siblings(target)
    recover(target)
    if target.exists() and not (target / MANIFEST_NAME).is_file() and (
            not target.is_dir() or any(target.iterdir())):
        raise ArtifactError(
            f"{target} is not empty and holds no {MANIFEST_NAME}: refusing "
            "to replace what is not a snapshot")
    # After recover, a backup is the old half of a finished swap.
    shutil.rmtree(stage, ignore_errors=True)
    shutil.rmtree(backup, ignore_errors=True)
    files: dict[str, str] = {}
    for rel, payload in payloads.items():
        _write(stage / rel, payload)
        files[rel] = sha256(stage / rel)
    for rel in sorted(manifest.get("files", {}).keys() - files.keys()):
        source, copy = Path(carry_from) / rel, stage / rel
        if source.is_file():
            copy.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.link(source, copy)
            except OSError:
                _write(copy, lambda handle: handle.write(source.read_bytes()))
    files = {**manifest.get("files", {}), **files}
    _write(stage / MANIFEST_NAME,
           json_payload({**manifest, "files": dict(sorted(files.items()))}))
    for directory in [stage, *(p for p in stage.rglob("*") if p.is_dir())]:
        _fsync_dir(directory)
    with _swap_lock(target):
        if target.exists():
            os.replace(target, backup)
            faults.maybe_fail("snapshot.swap")
        os.replace(stage, target)
    _fsync_dir(target.parent)
    shutil.rmtree(backup, ignore_errors=True)
    return target


def read_manifest(root: str | os.PathLike) -> dict:
    """The snapshot's manifest as written, not verified; raises
    :class:`~repro.errors.ArtifactError` when it is missing or not JSON."""
    root = Path(root)
    recover(root)
    path = root / MANIFEST_NAME
    if not path.is_file():
        raise ArtifactError(f"no {MANIFEST_NAME} in {root}: not a snapshot "
                            "directory, or the manifest was deleted")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt manifest {path}: {exc}") from exc


def verify(root: str | os.PathLike, kind: str, schema_version: int) -> dict:
    """Check the snapshot at *root* against its manifest; returns it.

    Raises :class:`~repro.errors.SchemaVersionError` for another schema
    version and :class:`~repro.errors.ArtifactError` for anything else:
    a missing or corrupt manifest, another *kind*, a missing file or a
    checksum mismatch.
    """
    root = Path(root)
    manifest = read_manifest(root)
    version = manifest.get("schema_version")
    if version != schema_version:
        raise SchemaVersionError(
            f"{root} has schema version {version!r}; this build reads "
            f"version {schema_version}. Re-save it with the current code "
            "(layouts are not forward or backward compatible).")
    if manifest.get("kind") != kind:
        raise ArtifactError(
            f"{root} holds kind {manifest.get('kind')!r}, not {kind!r}")
    bad = [f"{rel} (missing)" if not (root / rel).is_file()
           else f"{rel} (checksum mismatch)"
           for rel, digest in manifest.get("files", {}).items()
           if not (root / rel).is_file() or sha256(root / rel) != digest]
    if bad:
        raise ArtifactError(
            f"{root} failed integrity checks: {', '.join(bad)}")
    return manifest
