"""Tests of the sqlite store index: build, incrementality, precedence."""

from __future__ import annotations

import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.runner.store import ResultsStore
from repro.store import INDEX_FILENAME, StoreIndex

FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"

RESULT = {
    "empirical_detection_rate": {"mean": {"5": 0.75}},
    "measured_variance_ratio": 2.5,
    "measured_means": {},
    "piat_stats": {},
    "elapsed_seconds": 0.0,
}


@pytest.fixture
def fixture_store(tmp_path) -> Path:
    """A throwaway copy of the committed fixture store."""
    root = tmp_path / "store"
    shutil.copytree(FIXTURE_CACHE, root)
    return root


def query_one(index: StoreIndex, sql: str, *parameters):
    connection = sqlite3.connect(str(index.path))
    try:
        return connection.execute(sql, parameters).fetchall()
    finally:
        connection.close()


class TestBuild:
    def test_indexes_every_fixture_record(self, fixture_store):
        stats = StoreIndex(fixture_store).refresh()
        assert stats.total_records == 9
        assert stats.records_written == 9
        assert stats.files_scanned == 9  # one shard per record
        assert stats.files_removed == 0
        # Every fixture record is a smoke-preset cell of a registered figure.
        assert stats.total_labels == 9

    def test_index_lives_at_store_root(self, fixture_store):
        index = StoreIndex(fixture_store)
        index.refresh()
        assert index.path == fixture_store / INDEX_FILENAME
        assert index.path.exists()

    def test_labels_point_at_registered_experiments(self, fixture_store):
        index = StoreIndex(fixture_store)
        index.refresh()
        rows = query_one(
            index,
            "SELECT experiment, COUNT(*) FROM labels WHERE preset = 'smoke' "
            "GROUP BY experiment ORDER BY experiment",
        )
        assert dict(rows) == {"fig4": 1, "fig5": 2, "fig6": 2, "fig8": 4}

    def test_fig6_labels_carry_point_keys_and_seed(self, fixture_store):
        index = StoreIndex(fixture_store)
        index.refresh()
        rows = query_one(
            index,
            "SELECT point_key, seed FROM labels "
            "WHERE experiment = 'fig6' AND preset = 'smoke' ORDER BY point_key",
        )
        assert [row[0] for row in rows] == [
            "fig6/utilization=0.05",
            "fig6/utilization=0.3",
        ]
        assert all(row[1] == 2003 for row in rows)

    def test_scalar_columns_match_the_jsonl_truth(self, fixture_store):
        index = StoreIndex(fixture_store)
        index.refresh()
        store = ResultsStore(fixture_store)
        for fingerprint in store.fingerprints():
            record = store.get(fingerprint)
            rows = query_one(
                index,
                "SELECT seed, variance_ratio, result_json FROM records "
                "WHERE fingerprint = ?",
                fingerprint,
            )
            assert len(rows) == 1
            seed, ratio, result_json = rows[0]
            assert seed == record["config"]["seed"]
            assert ratio == record["result"]["measured_variance_ratio"]
            assert json.loads(result_json) == record["result"]

    def test_str_reports_the_row_counts(self, fixture_store):
        stats = StoreIndex(fixture_store).refresh()
        assert "9 records written" in str(stats)


class TestIncrementality:
    def test_second_refresh_on_unchanged_store_writes_zero_rows(self, fixture_store):
        index = StoreIndex(fixture_store)
        index.refresh()
        stats = index.refresh()
        assert stats.files_scanned == 0
        assert stats.records_written == 0
        assert stats.records_removed == 0
        assert stats.labels_written == 0
        assert stats.total_records == 9  # nothing was lost either
        assert "0 records written" in str(stats)

    def test_new_record_scans_only_its_shard(self, fixture_store):
        index = StoreIndex(fixture_store)
        index.refresh()
        store = ResultsStore(fixture_store)
        store.put("aa" + "0" * 62, {"seed": 7}, RESULT)
        stats = index.refresh()
        assert stats.files_scanned == 1  # the new shard, not the fixture's
        assert stats.records_written == 1
        assert stats.total_records == 10

    def test_removed_shard_drops_its_row(self, fixture_store, tmp_path):
        store = ResultsStore(fixture_store)
        fingerprint = "aa" + "0" * 62
        store.put(fingerprint, {"seed": 7}, RESULT)
        index = StoreIndex(fixture_store)
        index.refresh()
        store.shard_path(fingerprint).unlink()
        stats = index.refresh()
        assert stats.files_removed == 1
        assert stats.total_records == 9
        assert query_one(index, "SELECT 1 FROM records WHERE fingerprint = ?", fingerprint) == []


class TestPrecedence:
    def test_newest_shard_record_wins(self, fixture_store):
        store = ResultsStore(fixture_store)
        fingerprint = next(iter(store.fingerprints()))
        newer = dict(RESULT, measured_variance_ratio=99.0)
        store.put(fingerprint, {"seed": 2003}, newer)
        index = StoreIndex(fixture_store)
        index.refresh()
        rows = query_one(
            index, "SELECT variance_ratio FROM records WHERE fingerprint = ?", fingerprint
        )
        assert rows == [(99.0,)]

    def test_shard_lines_for_other_fingerprints_are_ignored(self, tmp_path):
        store = ResultsStore(tmp_path)
        fingerprint = "ab" + "1" * 62
        store.put(fingerprint, {"seed": 1}, RESULT)
        alien = {
            "schema": 1,
            "kind": "cell",
            "fingerprint": "ab" + "2" * 62,
            "config": {"seed": 2},
            "result": RESULT,
        }
        with store.shard_path(fingerprint).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(alien) + "\n")
        index = StoreIndex(tmp_path)
        stats = index.refresh()
        assert stats.total_records == 1
        rows = query_one(index, "SELECT fingerprint FROM records")
        assert rows == [(fingerprint,)]


class TestRobustness:
    def test_foreign_schema_records_are_skipped(self, tmp_path):
        store = ResultsStore(tmp_path)
        path = store.shard_path("cc" + "3" * 62)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema": 99, "fingerprint": path.stem, "result": RESULT}) + "\n",
            encoding="utf-8",
        )
        stats = StoreIndex(tmp_path).refresh()
        assert stats.total_records == 0

    def test_capture_records_index_without_result_payload(self, tmp_path):
        store = ResultsStore(tmp_path)
        fingerprint = "dd" + "4" * 62
        store.put(
            fingerprint,
            {"kind": "gateway-capture", "seed": 5, "scenario": {}},
            {"intervals": {"train": {"low": [0.1] * 1000}}},
            kind="capture",
        )
        index = StoreIndex(tmp_path)
        index.refresh()
        rows = query_one(
            index,
            "SELECT kind, result_json FROM records WHERE fingerprint = ?",
            fingerprint,
        )
        assert rows == [("capture", None)]

    def test_schema_mismatch_drops_and_rebuilds(self, fixture_store):
        index = StoreIndex(fixture_store)
        index.refresh()
        connection = sqlite3.connect(str(index.path))
        connection.execute("UPDATE meta SET value = '999' WHERE key = 'index_schema'")
        connection.commit()
        connection.close()
        stats = index.refresh()
        assert stats.records_written == 9
        assert stats.total_records == 9

    def test_custom_index_path(self, fixture_store, tmp_path):
        path = tmp_path / "elsewhere" / "ix.sqlite"
        index = StoreIndex(fixture_store, path=path)
        index.refresh()
        assert path.exists()
        assert not (fixture_store / INDEX_FILENAME).exists()
