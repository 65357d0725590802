"""A sqlite index over a sharded JSON-lines results store.

The :class:`~repro.runner.store.ResultsStore` is write-optimised: appends are
one ``write`` call and a warm sweep reads one shard per fingerprint.  Nothing
about it can *answer questions* — which grid points exist, which experiments
they belong to, what the per-seed detection rates are — without replaying a
sweep's grid expansion.  :class:`StoreIndex` adds the read side: one sqlite
file (``index.sqlite`` at the store root) mapping every winning record to its
kind, seed, scenario scalars and result payload, plus a label table mapping
fingerprints back to the registered experiment / preset / grid-point key that
produces them.

The index is a *cache of the JSONL truth*, never a second source of it:
``refresh()`` re-derives rows exclusively from the store files through the
same parsing contract the store itself uses
(:meth:`~repro.runner.store.ResultsStore.read_records`), so dropping the
sqlite file loses nothing.  Refreshes are incremental — every indexed file's
``(mtime_ns, size)`` signature is remembered, and an unchanged file is
skipped entirely, so reindexing a large store after one sweep touches only
the dirty shards.  The acceptance contract (pinned by
``tests/store/test_index.py``) is that a second refresh over an unchanged
store writes zero rows.

Labels are computed by expanding every registered experiment × preset at
every distinct seed present in the store and fingerprinting the resulting
cells — fingerprints are content hashes of the seed-inclusive configuration,
so this is exact, not heuristic.  Records written by scenario files or
foreign tools simply stay unlabelled (still queryable by fingerprint).
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError, ReproError
from repro.runner.store import ResultsStore

#: Bumped whenever the sqlite layout changes; a mismatching index is
#: dropped and rebuilt from the JSONL truth on the next refresh.
INDEX_SCHEMA_VERSION = 2

#: The index database, living at the store root next to the shards.
INDEX_FILENAME = "index.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS files (
    path TEXT PRIMARY KEY,
    mtime_ns INTEGER NOT NULL,
    size INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    fingerprint TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    seed INTEGER,
    mode TEXT,
    trials INTEGER,
    sample_sizes TEXT,
    policy_kind TEXT,
    policy_family TEXT,
    low_rate_pps REAL,
    high_rate_pps REAL,
    n_hops INTEGER,
    cross_utilization REAL,
    variance_ratio REAL,
    detection_rates TEXT,
    result_json TEXT,
    source TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS records_source ON records (source);
CREATE TABLE IF NOT EXISTS labels (
    fingerprint TEXT NOT NULL,
    experiment TEXT NOT NULL,
    preset TEXT NOT NULL,
    point_key TEXT NOT NULL,
    seed INTEGER NOT NULL,
    PRIMARY KEY (fingerprint, experiment, preset)
);
CREATE INDEX IF NOT EXISTS labels_experiment ON labels (experiment, preset);
"""


@dataclass(frozen=True)
class IndexStats:
    """Outcome of one :meth:`StoreIndex.refresh`.

    ``files_scanned`` counts store files actually re-parsed (dirty or new);
    an incremental no-op refresh reports zero.  ``records_written`` /
    ``records_removed`` count row mutations, ``labels_written`` the rebuilt
    experiment labels, and ``total_records`` / ``total_labels`` the index
    contents after the refresh.
    """

    files_scanned: int
    files_removed: int
    records_written: int
    records_removed: int
    labels_written: int
    total_records: int
    total_labels: int

    def __str__(self) -> str:
        return (
            f"{self.files_scanned} files scanned ({self.files_removed} removed), "
            f"{self.records_written} records written, "
            f"{self.records_removed} records removed, "
            f"{self.labels_written} labels written; "
            f"index holds {self.total_records} records, {self.total_labels} labels"
        )


def _scalar(value: Any, kind: type) -> Any:
    """``value`` coerced to ``kind`` for a sqlite column, or ``None``."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        return None


class StoreIndex:
    """Build and refresh the sqlite index of one results store."""

    def __init__(
        self,
        store_root: Union[str, Path],
        path: Optional[Union[str, Path]] = None,
    ) -> None:
        self._store = ResultsStore(store_root)
        self._path = Path(path) if path is not None else self._store.root / INDEX_FILENAME

    @property
    def path(self) -> Path:
        """The sqlite database file."""
        return self._path

    @property
    def store(self) -> ResultsStore:
        """The indexed store."""
        return self._store

    # ------------------------------------------------------------- connections
    def connect(self) -> sqlite3.Connection:
        """A read-write connection with the schema ensured.

        Drops and recreates every table when the on-disk index was written
        by a different :data:`INDEX_SCHEMA_VERSION` — the JSONL store is the
        source of truth, so a stale index is rebuilt, never migrated.
        """
        self._path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(str(self._path))
        connection.row_factory = sqlite3.Row
        connection.executescript(_SCHEMA)
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'index_schema'"
        ).fetchone()
        if row is not None and row["value"] != str(INDEX_SCHEMA_VERSION):
            connection.executescript(
                "DROP TABLE meta; DROP TABLE files; DROP TABLE records; DROP TABLE labels;"
            )
            connection.executescript(_SCHEMA)
            row = None
        if row is None:
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('index_schema', ?)",
                (str(INDEX_SCHEMA_VERSION),),
            )
            connection.commit()
        return connection

    def connect_readonly(self) -> sqlite3.Connection:
        """A read-only connection (safe to open from many server threads)."""
        if not self._path.exists():
            raise ConfigurationError(
                f"no index at {str(self._path)!r}; build one with "
                f"'repro cache index --cache-dir {self._store.root}'"
            )
        connection = sqlite3.connect(f"file:{self._path}?mode=ro", uri=True)
        connection.row_factory = sqlite3.Row
        return connection

    # ---------------------------------------------------------------- refresh
    def _current_files(self) -> List[Tuple[str, Path, int, int]]:
        """Every shard file as ``(relpath, path, mtime_ns, size)``."""
        files: List[Tuple[str, Path, int, int]] = []
        for path in self._store.shard_files():
            stat = path.stat()
            relpath = path.relative_to(self._store.root).as_posix()
            files.append((relpath, path, stat.st_mtime_ns, stat.st_size))
        return files

    @staticmethod
    def _record_row(record: Dict[str, Any], source: str) -> Tuple[Any, ...]:
        """One ``records`` row extracted from a store record.

        Scenario scalars are pulled with ``.get`` so records written by a
        foreign tool (or a future schema that adds fields) index with NULL
        columns instead of failing the refresh.  Capture results are large
        interval arrays, so ``result_json`` is kept for cells only.
        """
        config = record.get("config") or {}
        scenario = config.get("scenario") or {}
        policy = scenario.get("policy") or {}
        result = record.get("result") or {}
        kind = record.get("kind", "cell")
        is_cell = kind == "cell"
        sample_sizes = config.get("sample_sizes")
        return (
            record["fingerprint"],
            kind,
            _scalar(config.get("seed"), int),
            config.get("mode") if isinstance(config.get("mode"), str) else None,
            _scalar(config.get("trials"), int),
            json.dumps(sample_sizes) if isinstance(sample_sizes, list) else None,
            policy.get("kind") if isinstance(policy.get("kind"), str) else None,
            policy.get("family") if isinstance(policy.get("family"), str) else None,
            _scalar(scenario.get("low_rate_pps"), float),
            _scalar(scenario.get("high_rate_pps"), float),
            _scalar(scenario.get("n_hops"), int),
            _scalar(scenario.get("cross_utilization"), float),
            _scalar(result.get("measured_variance_ratio"), float),
            json.dumps(result.get("empirical_detection_rate", {}), sort_keys=True)
            if is_cell
            else None,
            json.dumps(result, sort_keys=True) if is_cell else None,
            source,
        )

    def refresh(self) -> IndexStats:
        """Bring the index up to date with the store; returns the delta.

        Unchanged files (same ``(mtime_ns, size)`` signature as last time)
        are not reopened; a dirty shard contributes its winning record
        (:meth:`~repro.runner.store.ResultsStore.winning_record`), exactly what
        a store lookup returns.  Removing a shard deletes its row.  Labels are
        rebuilt only when any record changed.
        """
        connection = self.connect()
        try:
            known = {
                row["path"]: (row["mtime_ns"], row["size"])
                for row in connection.execute("SELECT path, mtime_ns, size FROM files")
            }
            current = self._current_files()
            current_paths = {relpath for relpath, *_ in current}
            removed = sorted(set(known) - current_paths)

            records_removed = 0
            for relpath in removed:
                cursor = connection.execute("DELETE FROM records WHERE source = ?", (relpath,))
                records_removed += cursor.rowcount
                connection.execute("DELETE FROM files WHERE path = ?", (relpath,))

            files_scanned = 0
            records_written = 0
            for relpath, path, mtime_ns, size in current:
                if known.get(relpath) == (mtime_ns, size):
                    continue
                files_scanned += 1
                cursor = connection.execute("DELETE FROM records WHERE source = ?", (relpath,))
                records_removed += cursor.rowcount
                record = ResultsStore.winning_record(path)
                if record is not None:
                    connection.execute(
                        "INSERT OR REPLACE INTO records VALUES "
                        "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        self._record_row(record, relpath),
                    )
                    records_written += 1
                connection.execute(
                    "INSERT OR REPLACE INTO files (path, mtime_ns, size) VALUES (?, ?, ?)",
                    (relpath, mtime_ns, size),
                )

            labels_written = 0
            if files_scanned or removed:
                labels_written = self._rebuild_labels(connection)

            connection.commit()
            total_records = connection.execute("SELECT COUNT(*) FROM records").fetchone()[0]
            total_labels = connection.execute("SELECT COUNT(*) FROM labels").fetchone()[0]
        finally:
            connection.close()
        return IndexStats(
            files_scanned=files_scanned,
            files_removed=len(removed),
            records_written=records_written,
            records_removed=records_removed,
            labels_written=labels_written,
            total_records=total_records,
            total_labels=total_labels,
        )

    # ----------------------------------------------------------------- labels
    @staticmethod
    def _rebuild_labels(connection: sqlite3.Connection) -> int:
        """Recompute the fingerprint → experiment/point-key mapping.

        Every registered experiment × preset is expanded at every distinct
        cell seed found in the store, and the resulting fingerprints are
        matched against the indexed records.  Cell fingerprints hash the
        full seed-inclusive configuration (display keys excluded), so a
        match is an exact identity.  An experiment whose expansion rejects a
        seed or preset is skipped, not fatal.
        """
        # Imported here: repro.api pulls in every experiment module, which
        # plain store maintenance (and the read-only query path) can skip.
        from repro.api import PRESETS, get_experiment, list_experiments
        from repro.runner.grid import split_seed_key

        indexed = {
            row["fingerprint"]
            for row in connection.execute("SELECT fingerprint FROM records")
        }
        seeds = [
            row["seed"]
            for row in connection.execute(
                "SELECT DISTINCT seed FROM records "
                "WHERE kind = 'cell' AND seed IS NOT NULL ORDER BY seed"
            )
        ]
        connection.execute("DELETE FROM labels")
        written = 0
        for name in list_experiments():
            for preset in PRESETS:
                for seed in seeds:
                    try:
                        cells = get_experiment(name, preset, int(seed)).cells()
                    except ReproError:
                        continue
                    for cell in cells:
                        fingerprint = cell.fingerprint()
                        if fingerprint not in indexed:
                            continue
                        point_key, _ = split_seed_key(cell.key)
                        connection.execute(
                            "INSERT OR REPLACE INTO labels "
                            "(fingerprint, experiment, preset, point_key, seed) "
                            "VALUES (?, ?, ?, ?, ?)",
                            (fingerprint, name, preset, point_key, cell.seed),
                        )
                        written += 1
        return written


__all__ = [
    "INDEX_FILENAME",
    "INDEX_SCHEMA_VERSION",
    "IndexStats",
    "StoreIndex",
]
