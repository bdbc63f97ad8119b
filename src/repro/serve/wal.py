"""Write-ahead log for serving ingestion: durable ``add_paper``.

The cold-start path (:meth:`repro.serve.index.ServingIndex.add_paper`)
mutates only RAM — before this module, a restart silently lost every
paper ingested since the artifact was written. :class:`WriteAheadLog`
closes that hole with the classic recipe:

* **append-only JSONL** — one record per ingested paper, written and
  ``fsync``'d *before* the in-memory mutation runs (log-then-apply), so
  an acknowledged ingest is always recoverable;
* **per-record checksum** — each line carries the SHA-256 of its own
  canonical payload, so a torn tail (the half-written record a crash
  leaves behind) is detected instead of deserialised; torn records are
  dropped, counted under ``serve.wal.torn_records``, and the file is
  repaired in place to the last durable byte;
* **ordered replay** — :meth:`ServingIndex.attach_wal` replays the
  recovered records through the normal ingestion path in append order,
  so a restarted process reproduces the never-crashed process' pool
  (and, because a receptive field is a gather over fixed neighbour
  tables, its ``top_k`` bit for bit, whatever registrations and queries
  ran in between);
* **compaction** — :meth:`ServingIndex.compact` re-saves the artifact
  (baking the WAL-covered mutations into the durable model + a
  ``pool/pool.json`` snapshot of the serving pool) and truncates the
  log. ``serve.wal.lag`` — records accumulated since the last
  compaction — is exported as a gauge and bounded by a declarative SLO
  (:func:`repro.obs.slo.wal_lag_slo`) so ``health()`` pages before the
  log grows unbounded.

Record schema (one JSON object per line, sorted keys)::

    {"paper": {<paper_to_dict payload>},
     "pool_version": <index pool version at append time>,
     "seq": <0-based record ordinal since the last compaction>,
     "sha256": <hex SHA-256 of the record minus this field>}

Fault sites: ``serve.wal.append`` fires *before* any byte is written —
an injected fault there is the canonical simulated crash (nothing
logged, nothing applied, nothing acknowledged); ``serve.wal.replay``
fires per replayed record and is retried like other transient sites.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.data.io import paper_to_dict
from repro.data.schema import Paper
from repro.errors import WALError
from repro.resilience import faults

#: Keys every durable record must carry (``sha256`` covers the rest).
_RECORD_KEYS = frozenset({"seq", "pool_version", "paper", "sha256"})


def _canonical(payload: dict) -> bytes:
    """Deterministic byte serialisation the record checksum is over."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _record_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


@dataclass(frozen=True)
class WALRecord:
    """One recovered (checksum-verified) write-ahead-log record."""

    seq: int
    pool_version: int
    paper: dict

    @classmethod
    def validate(cls, raw: bytes, expected_seq: int) -> "WALRecord | None":
        """Parse+verify one log line; ``None`` when the line is torn.

        A line is torn when it is not JSON, misses a required key, its
        checksum does not match its canonical payload, or its sequence
        number is not the expected next ordinal (an out-of-order record
        means everything from here on postdates the corruption point and
        cannot be trusted to replay in order).
        """
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or not _RECORD_KEYS <= set(entry):
            return None
        stored = entry.pop("sha256")
        if stored != _record_digest(entry):
            return None
        if entry["seq"] != expected_seq:
            return None
        return cls(seq=int(entry["seq"]),
                   pool_version=int(entry["pool_version"]),
                   paper=dict(entry["paper"]))


class WriteAheadLog:
    """Append-only, fsync'd, checksummed ingestion log.

    Parameters
    ----------
    path:
        The log file. Created (with parents) on first append; an
        existing file is recovered — torn-tail records dropped and the
        file truncated to its last durable byte — before any append.
    fsync:
        When True (default) every append is flushed and ``fsync``'d
        before returning, so an acknowledged record survives a crash.
        ``fsync=False`` trades that guarantee for speed in tests and
        benchmarks that simulate crashes above the filesystem.

    Thread safety is the caller's job: :class:`ServingIndex` appends
    under ``_serve_lock``, which already serialises ingestion.
    """

    def __init__(self, path: "str | os.PathLike", fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._handle = None
        #: Records currently in the log (== records since last compaction).
        self._count = 0
        #: Torn records dropped by the last :meth:`recover`.
        self.torn_records = 0
        self._recovered = False

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> list[WALRecord]:
        """Read, verify, and repair the log; return the durable records.

        Scans the file line by line, validating each record's checksum
        and sequence number. The first invalid line marks the torn
        tail: it and everything after it are dropped (counted under
        ``serve.wal.torn_records``) and the file is truncated back to
        the last durable byte so subsequent appends never interleave
        with garbage. Idempotent; called automatically before the first
        append when the caller has not replayed explicitly.
        """
        self._close_handle()
        self._recovered = True
        self.torn_records = 0
        if not self.path.exists():
            self._count = 0
            return []
        raw = self.path.read_bytes()
        records: list[WALRecord] = []
        durable_bytes = 0
        torn = 0
        segments = raw.split(b"\n")
        # A clean file ends with "\n", leaving one empty trailing
        # segment; anything non-empty after the last newline is a
        # half-written record.
        for i, segment in enumerate(segments):
            if segment == b"" and i == len(segments) - 1:
                break
            record = WALRecord.validate(segment, expected_seq=len(records))
            if record is None:
                torn = sum(1 for s in segments[i:] if s != b"")
                break
            records.append(record)
            durable_bytes += len(segment) + 1
        if torn:
            self.torn_records = torn
            obs.count("serve.wal.torn_records", torn)
            obs.event("serve.wal.torn_records", path=str(self.path),
                      dropped=torn, kept=len(records))
            with open(self.path, "r+b") as handle:
                handle.truncate(durable_bytes)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        self._count = len(records)
        return records

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, paper: Paper, pool_version: int) -> WALRecord:
        """Durably log one ingest *before* the pool mutation runs.

        Raises :class:`~repro.errors.InjectedFault` when the
        ``serve.wal.append`` site fires (the simulated crash: nothing
        written, nothing to replay) and :class:`~repro.errors.WALError`
        when the write itself cannot be made durable.
        """
        faults.maybe_fail("serve.wal.append")
        if not self._recovered:
            self.recover()
        payload = {"seq": self._count, "pool_version": int(pool_version),
                   "paper": paper_to_dict(paper)}
        line = json.dumps({**payload, "sha256": _record_digest(payload)},
                          sort_keys=True, separators=(",", ":"))
        try:
            handle = self._ensure_handle()
            handle.write(line + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError as exc:
            raise WALError(
                f"could not durably append record #{self._count} to WAL at "
                f"{self.path}: {exc}") from exc
        record = WALRecord(seq=self._count, pool_version=int(pool_version),
                           paper=payload["paper"])
        self._count += 1
        obs.count("serve.wal.appends")
        obs.gauge("serve.wal.lag", float(self._count))
        return record

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def truncate(self) -> int:
        """Drop every record (the compaction tail step); returns how many.

        Only call after the state the records describe has been made
        durable elsewhere (:meth:`ServingIndex.compact` re-saves the
        artifact first) — truncating an unsaved log *loses* ingests.
        """
        dropped = self._count
        self._close_handle()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "wb") as handle:
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        self._count = 0
        self._recovered = True
        obs.count("serve.wal.compactions")
        obs.gauge("serve.wal.lag", 0.0)
        return dropped

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def lag(self) -> int:
        """Records appended since the last compaction (or file birth)."""
        return self._count

    def _ensure_handle(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        """Release the file handle (the log itself is always durable)."""
        self._close_handle()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WriteAheadLog({str(self.path)!r}, records={self._count}, "
                f"torn={self.torn_records})")
