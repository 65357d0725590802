"""Persistent sweep results: a sharded, append-only JSON-lines store.

Layout: one JSON-lines file per fingerprint, sharded by the first two hex
characters of the fingerprint under the store's root directory::

    <root>/
    ├── ab/
    │   ├── abcd0…e1.jsonl     # every record ever written for this fingerprint
    │   └── ab9f3…77.jsonl
    └── c0/
        └── c04d1…38.jsonl

Each line is a self-contained record::

    {"schema": 1, "kind": "cell", "fingerprint": "<sha256>", "config": {...}, "result": {...}}

``fingerprint`` is the content hash of the cell (or capture) configuration
(:meth:`repro.runner.cells.SweepCell.fingerprint`); ``config`` is the full
configuration dict kept alongside for auditability (a record can be traced
back to its scenario without the code that produced it); ``result`` is the
:meth:`repro.runner.cells.CellResult.to_json_dict` (or
:meth:`repro.runner.capture.CaptureResult.to_json_dict`) payload; ``kind``
distinguishes ordinary sweep cells from shared gateway captures (a record
without one is a cell).

Sharding keeps lookups O(1) file reads — a warm sweep never loads the whole
store — and keeps any one directory small enough for ordinary tooling once
stores grow to many thousands of records.  :meth:`compact` drops superseded
duplicate records, which accumulate when two sweeps share a store.

The format is deliberately boring: appends are a single ``write`` call, a
half-written last line (from a killed run) is skipped on load, duplicate
fingerprints resolve to the *last* record, and the files diff/merge cleanly
enough to commit a small fixture store for CI warm-cache runs.  A shard only
ever serves the fingerprint it is named after
(:meth:`ResultsStore.winning_record`); a line carrying any other fingerprint
is never returned, counted or kept by compaction.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.runner.cells import SCHEMA_VERSION

#: Fingerprints become file names; restrict them to boring hash-like tokens.
_FINGERPRINT_RE = re.compile(r"[0-9a-zA-Z]{3,128}")


@dataclass(frozen=True)
class StoreStats:
    """Health snapshot of a results store (``repro cache stats``).

    ``records`` counts winning records (one per shard, the same count as
    ``len(store)``); ``cells`` / ``captures`` split them by record kind.
    ``superseded`` counts the other readable lines of a shard — older
    records for its fingerprint and lines naming another fingerprint, none
    of which a lookup returns.  They are the waste a compaction targets,
    though :meth:`ResultsStore.compact` deliberately leaves files it cannot
    fully interpret (foreign-schema or truncated lines) untouched, so the
    counter can stay non-zero after compacting.  ``schema_versions`` lists
    every ``schema`` value
    present, including versions this code cannot read — a store carrying
    foreign versions after an upgrade/rollback is worth noticing in
    nightly-sweep logs.
    """

    records: int
    cells: int
    captures: int
    shard_files: int
    superseded: int
    total_bytes: int
    #: Every distinct ``schema`` value found, foreign types included (a
    #: record written by another tool may carry a string or float version).
    schema_versions: Tuple[Any, ...]

    def __str__(self) -> str:
        versions = ", ".join(str(v) for v in self.schema_versions) or "(empty store)"
        return (
            f"{self.records} records ({self.cells} cells, {self.captures} captures), "
            f"{self.shard_files} shard files, "
            f"{self.superseded} superseded duplicates, {self.total_bytes} bytes, "
            f"schema versions: {versions}"
        )


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of :meth:`ResultsStore.compact`."""

    records_kept: int
    superseded_dropped: int

    def __str__(self) -> str:
        return (
            f"{self.records_kept} records kept, "
            f"{self.superseded_dropped} superseded duplicates dropped"
        )


class ResultsStore:
    """A directory-backed cache of cell results, keyed by config fingerprint."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise ConfigurationError(
                f"results store root {str(self._root)!r} exists and is not a directory"
            )
        self._index: Dict[str, Dict[str, Any]] = {}

    # ----------------------------------------------------------------- layout
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def shard_path(self, fingerprint: str) -> Path:
        """The shard file holding every record for ``fingerprint``."""
        self._check_fingerprint(fingerprint)
        return self._root / fingerprint[:2] / f"{fingerprint}.jsonl"

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> None:
        if not isinstance(fingerprint, str) or not _FINGERPRINT_RE.fullmatch(fingerprint):
            raise ConfigurationError(
                f"fingerprint {fingerprint!r} is not a hash-like token"
            )

    # ------------------------------------------------------------------ index
    @staticmethod
    def read_records(path: Path) -> List[Dict[str, Any]]:
        """Every valid record in ``path``, in file order.

        Blank lines, truncated final lines (killed writers), records with a
        foreign schema version and records missing a string ``fingerprint``
        or dict ``result`` are skipped; complete records before them are
        still usable.  This is the one parsing contract shared by lookups,
        compaction and the sqlite index (:mod:`repro.store.index`).
        """
        records: List[Dict[str, Any]] = []
        if not path.exists():
            return records
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(record, dict)
                and record.get("schema") == SCHEMA_VERSION
                and isinstance(record.get("fingerprint"), str)
                and isinstance(record.get("result"), dict)
            ):
                records.append(record)
        return records

    @classmethod
    def winning_record(
        cls, path: Path, records: Optional[List[Dict[str, Any]]] = None
    ) -> Optional[Dict[str, Any]]:
        """The record a lookup of shard ``path``'s fingerprint returns.

        That is the last valid line (:meth:`read_records`) whose
        ``fingerprint`` is the shard's file name; ``None`` when there is
        none.  Lines naming another fingerprint are never served.  Lookups,
        listings, :meth:`stats`, :meth:`compact` and the sqlite index all
        resolve a shard through this one rule.  ``records`` passes in the
        shard's already-parsed :meth:`read_records`, saving a second read.
        """
        if records is None:
            records = cls.read_records(path)
        winner = None
        for record in records:
            if record["fingerprint"] == path.stem:
                winner = record
        return winner

    def get(self, fingerprint: str, kind: str = "cell") -> Optional[Dict[str, Any]]:
        """The record for ``fingerprint``, or ``None`` on a cache miss.

        The shard's last record wins (:meth:`winning_record`).  ``kind``
        filters out records of the other record family.

        The kind filter applies *after* the winner is resolved: when a shard's
        winning record is of the wrong ``kind``, the lookup returns ``None``
        without falling back to an older same-kind record.  This is
        deliberate last-record-wins semantics: the newest record for a
        fingerprint is the truth about it, and a kind mismatch means the
        caller is asking for a record family that fingerprint no longer is
        (pinned by tests in ``tests/runner/test_store.py``).
        """
        record = self._index.get(fingerprint)
        if record is None:
            try:
                shard = self.shard_path(fingerprint)
            except ConfigurationError:
                return None
            record = self.winning_record(shard)
            if record is None:
                return None
            self._index[fingerprint] = record
        if record.get("kind", "cell") != kind:
            return None
        return record

    def put(
        self,
        fingerprint: str,
        config: Dict[str, Any],
        result: Dict[str, Any],
        kind: str = "cell",
    ) -> None:
        """Append one record to its shard file and index it."""
        record = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "config": config,
            "result": result,
        }
        path = self.shard_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._index[fingerprint] = record

    # ------------------------------------------------------------- compaction
    def shard_files(self) -> List[Path]:
        """Every shard file in the store, in sorted (deterministic) order.

        Listings, compaction, ``repro cache stats`` and the sqlite index
        (:mod:`repro.store.index`) all walk this one listing.
        """
        if not self._root.is_dir():
            return []
        return sorted(path for path in self._root.glob("??/*.jsonl") if path.is_file())

    @staticmethod
    def _count_data_lines(path: Path) -> int:
        return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())

    def compact(self) -> CompactionStats:
        """Rewrite every shard file to its winning record.

        Superseded duplicates and lines naming another fingerprint are
        dropped (:meth:`winning_record`), so the store's observable contents
        are unchanged — and so are records this code version cannot
        interpret: a file containing foreign-schema or partial lines (e.g. a
        store restored from a cache written by a different
        ``SCHEMA_VERSION``) is left exactly as it is, so a rollback still
        finds its data.
        """
        superseded = 0
        kept = 0
        for path in self.shard_files():
            records = self.read_records(path)
            winner = self.winning_record(path, records)
            if len(records) != self._count_data_lines(path):
                # Foreign-schema or truncated lines present: not ours to drop.
                kept += winner is not None
                continue
            if winner is None:
                superseded += len(records)
                path.unlink()
                continue
            kept += 1
            if len(records) > 1:
                superseded += len(records) - 1
                # Rewrite atomically: a crash mid-compaction must never turn a
                # cached fingerprint into a miss (the store's crash-tolerance
                # contract covers compaction too).
                scratch = path.with_suffix(".jsonl.tmp")
                scratch.write_text(json.dumps(winner, sort_keys=True) + "\n", encoding="utf-8")
                os.replace(scratch, path)
        return CompactionStats(records_kept=kept, superseded_dropped=superseded)

    # ------------------------------------------------------------------ stats
    @staticmethod
    def _raw_records(path: Path) -> List[Dict[str, Any]]:
        """Every parseable JSON record in ``path``, regardless of schema.

        Unlike :meth:`read_records` this keeps foreign-schema records, so
        :meth:`stats` can report versions this code cannot serve.
        """
        records: List[Dict[str, Any]] = []
        if not path.exists():
            return records
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and isinstance(record.get("fingerprint"), str):
                records.append(record)
        return records

    def stats(self) -> StoreStats:
        """Aggregate store-health counters (see :class:`StoreStats`).

        Reads every shard file; intended for maintenance commands and
        nightly-sweep logs, not the warm-sweep hot path.
        """
        shard_files = self.shard_files()
        records = cells = captures = superseded = total_bytes = 0
        schema_versions: set = set()
        for path in shard_files:
            total_bytes += path.stat().st_size
            schema_versions.update(record.get("schema") for record in self._raw_records(path))
            valid = self.read_records(path)
            winner = self.winning_record(path, valid)
            superseded += len(valid) - (winner is not None)
            if winner is None:
                continue
            records += 1
            if winner.get("kind", "cell") == "cell":
                cells += 1
            elif winner.get("kind") == "capture":
                captures += 1
        return StoreStats(
            records=records,
            cells=cells,
            captures=captures,
            shard_files=len(shard_files),
            superseded=superseded,
            total_bytes=total_bytes,
            schema_versions=tuple(
                sorted((v for v in schema_versions if v is not None), key=str)
            ),
        )

    # -------------------------------------------------------------- protocols
    def fingerprints(self) -> Iterator[str]:
        """Every cached fingerprint, in shard path order.

        Each shard is parsed at most once per store instance (the winning
        record is cached in the in-memory index), so repeated listings of a
        large store cost one directory scan plus dictionary lookups.
        """
        for path in self.shard_files():
            fingerprint = path.stem
            if fingerprint not in self._index:
                record = self.winning_record(path)
                if record is None:
                    continue
                self._index[fingerprint] = record
            yield fingerprint

    def __contains__(self, fingerprint: str) -> bool:
        return (
            self.get(fingerprint, kind="cell") is not None
            or self.get(fingerprint, kind="capture") is not None
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultsStore(root={str(self._root)!r}, records={len(self)})"


__all__ = ["CompactionStats", "ResultsStore", "StoreStats"]
