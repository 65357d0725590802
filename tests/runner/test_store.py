"""Tests for the sharded JSON-lines results store."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import SCHEMA_VERSION, ResultsStore


@pytest.fixture
def store(tmp_path):
    return ResultsStore(tmp_path / "cache")


RESULT = {"empirical_detection_rate": {"variance": {"50": 0.9}}, "measured_variance_ratio": 1.5}


def raw_record(fingerprint, result, schema=SCHEMA_VERSION, **extra):
    return json.dumps(
        {"schema": schema, "fingerprint": fingerprint, "config": {}, "result": result, **extra}
    )


def write_capture_line(store, fingerprint):
    """Append a ``"kind": "capture"`` line, as stores of older versions hold."""
    path = store.shard_path(fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(raw_record(fingerprint, {"intervals": {}}, kind="capture") + "\n")


class TestResultsStore:
    def test_miss_returns_none(self, store):
        assert store.get("deadbeef") is None
        assert "deadbeef" not in store
        assert len(store) == 0

    def test_put_then_get(self, store):
        store.put("abc", {"seed": 1}, RESULT)
        record = store.get("abc")
        assert record["result"] == RESULT
        assert record["config"] == {"seed": 1}
        assert record["schema"] == SCHEMA_VERSION
        assert "abc" in store and len(store) == 1

    def test_persists_across_instances(self, store):
        store.put("abc", {}, RESULT)
        reopened = ResultsStore(store.root)
        assert reopened.get("abc")["result"] == RESULT

    def test_layout_is_sharded_by_fingerprint_prefix(self, store):
        store.put("abcd01", {}, RESULT)
        store.put("abff02", {}, RESULT)
        store.put("c0ffee", {}, RESULT)
        assert store.shard_path("abcd01") == store.root / "ab" / "abcd01.jsonl"
        assert store.shard_path("abcd01").is_file()
        assert store.shard_path("abff02").is_file()
        assert (store.root / "c0" / "c0ffee.jsonl").is_file()
        record = json.loads(store.shard_path("abcd01").read_text())
        assert record["schema"] == SCHEMA_VERSION
        assert record["kind"] == "cell"

    def test_lookup_reads_only_one_shard(self, store):
        """Point lookups never load the whole store (the sharding payoff)."""
        store.put("abcd01", {}, RESULT)
        store.put("c0ffee", {}, RESULT)
        fresh = ResultsStore(store.root)
        # Corrupt an unrelated shard: the lookup must not even parse it.
        store.shard_path("c0ffee").write_text("not json at all")
        assert fresh.get("abcd01")["result"] == RESULT

    def test_last_record_wins_on_duplicate_fingerprints(self, store):
        store.put("abc", {}, {"measured_variance_ratio": 1.0})
        store.put("abc", {}, {"measured_variance_ratio": 2.0})
        reopened = ResultsStore(store.root)
        assert reopened.get("abc")["result"]["measured_variance_ratio"] == 2.0
        assert len(store.shard_path("abc").read_text().splitlines()) == 2

    def test_truncated_final_line_is_skipped(self, store):
        store.put("abc", {}, RESULT)
        with store.shard_path("abc").open("a") as handle:
            handle.write('{"schema": 1, "fingerprint": "abc", "resu')  # killed mid-write
        reopened = ResultsStore(store.root)
        assert reopened.get("abc")["result"] == RESULT

    def test_foreign_schema_records_are_ignored(self, store):
        path = store.shard_path("xyz9")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(raw_record("xyz9", RESULT, schema=SCHEMA_VERSION + 1) + "\n")
        assert store.get("xyz9") is None

    def test_rejects_pathological_fingerprints_on_put(self, store):
        for bad in ("", "ab", "a/../b", "a b"):
            with pytest.raises(ConfigurationError):
                store.put(bad, {}, RESULT)

    def test_root_that_is_a_file_is_rejected(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.touch()
        with pytest.raises(ConfigurationError) as excinfo:
            ResultsStore(target)
        assert "not a directory" in str(excinfo.value)

    def test_directory_created_lazily_on_first_put(self, tmp_path):
        store = ResultsStore(tmp_path / "nested" / "cache")
        assert not store.root.exists()  # reads never create the directory
        store.put("abc", {}, RESULT)
        assert store.shard_path("abc").exists()


class TestCompaction:
    def test_compact_drops_superseded_shard_records(self, store):
        store.put("abc", {}, {"measured_variance_ratio": 1.0})
        store.put("abc", {}, {"measured_variance_ratio": 2.0})
        stats = store.compact()
        assert stats.superseded_dropped == 1
        assert len(store.shard_path("abc").read_text().splitlines()) == 1
        assert ResultsStore(store.root).get("abc")["result"]["measured_variance_ratio"] == 2.0

    def test_compact_on_empty_store_is_a_noop(self, store):
        stats = store.compact()
        assert (stats.records_kept, stats.superseded_dropped) == (0, 0)

    def test_compact_leaves_foreign_schema_shards_untouched(self, store):
        """A store written by a different SCHEMA_VERSION is not ours to drop."""
        foreign = store.shard_path("abc123")
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign_line = raw_record("abc123", RESULT, schema=SCHEMA_VERSION + 1) + "\n"
        foreign.write_text(foreign_line)
        store.put("old1", {}, RESULT)
        store.put("old1", {}, RESULT)
        stats = store.compact()
        assert foreign.read_text() == foreign_line  # byte-identical
        assert (stats.records_kept, stats.superseded_dropped) == (1, 1)
        assert ResultsStore(store.root).get("old1")["result"] == RESULT

    def test_compact_drops_legacy_capture_records(self, store):
        write_capture_line(store, "abc")
        write_capture_line(store, "abc")
        store.put("def1", {}, RESULT)
        stats = store.compact()
        assert (stats.records_kept, stats.superseded_dropped, stats.captures_dropped) == (
            1,
            0,
            2,
        )
        assert "2 legacy capture records dropped" in str(stats)
        assert not store.shard_path("abc").exists()
        assert ResultsStore(store.root).get("def1")["result"] == RESULT


class TestStoreStats:
    """``ResultsStore.stats()`` — the counters behind ``repro cache stats``."""

    def test_empty_store(self, store):
        stats = store.stats()
        assert (stats.records, stats.shard_files) == (0, 0)
        assert stats.total_bytes == 0
        assert stats.schema_versions == ()
        assert "(empty store)" in str(stats)

    def test_counts_winners_and_superseded(self, store):
        store.put("aaa1", {}, RESULT)
        store.put("aaa1", {}, RESULT)  # superseded duplicate in the same shard
        write_capture_line(store, "bbb2")  # never served, so never a record
        stats = store.stats()
        assert stats.records == 1
        assert stats.shard_files == 2
        assert (stats.superseded, stats.legacy_captures) == (1, 1)
        assert "1 superseded duplicates, 1 legacy capture records" in str(stats)
        assert stats.total_bytes > 0
        assert stats.schema_versions == (SCHEMA_VERSION,)

    def test_stats_counts_what_compact_drops(self, store):
        store.put("aaa1", {}, RESULT)
        store.put("aaa1", {}, RESULT)
        write_capture_line(store, "aaa1")  # legacy line in a cell's shard
        write_capture_line(store, "bbb2")
        stats = store.stats()
        compacted = store.compact()
        assert (stats.superseded, stats.legacy_captures) == (1, 2)
        assert (compacted.superseded_dropped, compacted.captures_dropped) == (1, 2)

    def test_reports_foreign_schema_versions(self, store):
        """Stats must surface versions this code cannot serve (get() skips them)."""
        store.put("aaa1", {}, RESULT)
        foreign = store.shard_path("ccc3")
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign.write_text(raw_record("ccc3", RESULT, schema=SCHEMA_VERSION + 1) + "\n")
        stats = store.stats()
        assert stats.schema_versions == (SCHEMA_VERSION, SCHEMA_VERSION + 1)
        assert str(SCHEMA_VERSION + 1) in str(stats)

    def test_reports_non_integer_schema_versions(self, store):
        """Foreign tools may write string/float versions; they must not vanish."""
        store.put("aaa1", {}, RESULT)
        foreign = store.shard_path("ddd4")
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign.write_text(raw_record("ddd4", RESULT, schema="2.experimental") + "\n")
        stats = store.stats()
        assert set(stats.schema_versions) == {SCHEMA_VERSION, "2.experimental"}
        assert "2.experimental" in str(stats)


class TestDoctoredShards:
    """Hardening: hand-edited or foreign-tool shard lines must degrade to skips."""

    def test_record_without_fingerprint_does_not_break_the_lookup(self, store):
        store.put("abcd01", {"seed": 1}, RESULT)
        doctored = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": "cell", "config": {}, "result": {"x": 1}}
        )
        with store.shard_path("abcd01").open("a", encoding="utf-8") as handle:
            handle.write(doctored + "\n")
        reopened = ResultsStore(store.root)
        # The keyless line is skipped; the good record still wins — no KeyError.
        assert reopened.get("abcd01")["result"] == RESULT
        assert list(reopened.fingerprints()) == ["abcd01"]

    def test_non_string_fingerprint_is_skipped(self, store):
        store.put("abcd01", {}, RESULT)
        doctored = json.dumps(
            {"schema": SCHEMA_VERSION, "fingerprint": 12345, "config": {}, "result": {"x": 1}}
        )
        with store.shard_path("abcd01").open("a", encoding="utf-8") as handle:
            handle.write(doctored + "\n")
        assert ResultsStore(store.root).get("abcd01")["result"] == RESULT


class TestLegacyCaptureLines:
    """Stores written when gateway captures were stored still hold
    ``"kind": "capture"`` lines; a lookup serves cell records only."""

    def test_capture_lines_are_never_served(self, store):
        write_capture_line(store, "abc")
        reopened = ResultsStore(store.root)
        assert reopened.get("abc") is None
        assert "abc" not in reopened
        assert len(reopened) == 0

    def test_a_trailing_capture_line_does_not_hide_the_cell_record(self, store):
        store.put("abc", {}, RESULT)
        write_capture_line(store, "abc")
        assert ResultsStore(store.root).get("abc")["result"] == RESULT


class TestShardWinner:
    """A shard serves only the fingerprint it is named after, to every reader."""

    def append_line(self, store, fingerprint, line):
        with store.shard_path(fingerprint).open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def test_stats_and_compact_agree_with_lookups(self, store):
        store.put("abc1", {}, RESULT)
        self.append_line(store, "abc1", raw_record("zzz9", {"x": 1}))
        assert len(store) == 1
        assert list(store.fingerprints()) == ["abc1"]
        stats = store.stats()
        assert (stats.records, stats.superseded) == (1, 1)
        compacted = store.compact()
        assert (compacted.records_kept, compacted.superseded_dropped) == (1, 1)
        lines = store.shard_path("abc1").read_text().splitlines()
        assert [json.loads(line)["fingerprint"] for line in lines] == ["abc1"]
        assert ResultsStore(store.root).get("abc1")["result"] == RESULT

    def test_shard_without_its_own_fingerprint_serves_nothing(self, store):
        path = store.shard_path("abc1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(raw_record("zzz9", RESULT) + "\n")
        assert ResultsStore.winning_record(path) is None
        assert store.get("abc1") is None and len(store) == 0
        assert store.stats().records == 0
        assert store.compact().superseded_dropped == 1
        assert not path.exists()
