"""Content-addressed store: roundtrip, corruption fallback, stats, gc."""

import json
import multiprocessing
import os
import time

import pytest

from repro import obs
from repro.cache import (
    CACHE_VERSION,
    SubstrateStore,
    cache_dir_from_env,
    corrupt_store_for_testing,
)


@pytest.fixture()
def store(tmp_path):
    s = SubstrateStore(str(tmp_path / "cache"))
    yield s
    s.close()


class TestRoundtrip:
    def test_put_get(self, store):
        assert store.put("verdict", "a" * 48, (True, None, False))
        assert store.get("verdict", "a" * 48) == (True, None, False)

    def test_missing_is_miss(self, store):
        assert store.get("verdict", "f" * 48) is None

    def test_kinds_are_disjoint(self, store):
        store.put("verdict", "a" * 48, 1)
        assert store.get("substrate", "a" * 48) is None

    def test_overwrite(self, store):
        store.put("verdict", "a" * 48, 1)
        store.put("verdict", "a" * 48, 2)
        assert store.get("verdict", "a" * 48) == 2


class TestCorruption:
    """A damaged entry must warn loudly, count, and fall back to a miss —
    never crash, never silently serve bad bytes."""

    def _assert_corrupt_miss(self, store, key="a" * 48):
        with obs.Recorder() as rec:
            assert store.get("verdict", key) is None
        assert any("corrupt" in w for w in rec.warnings())
        # the entry is dropped so the next lookup is a plain miss
        assert not os.path.exists(store._path("verdict", key))

    def test_truncated_payload(self, store):
        store.put("verdict", "a" * 48, (True, None, False))
        path = store._path("verdict", "a" * 48)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        self._assert_corrupt_miss(store)

    def test_bad_magic(self, store):
        store.put("verdict", "a" * 48, 1)
        path = store._path("verdict", "a" * 48)
        with open(path, "wb") as fh:
            fh.write(b'{"magic": "nope"}\n')
        self._assert_corrupt_miss(store)

    def test_version_mismatch(self, store):
        store.put("verdict", "a" * 48, 1)
        path = store._path("verdict", "a" * 48)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        header["version"] = CACHE_VERSION + 1
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + payload)
        self._assert_corrupt_miss(store)

    def test_checksum_mismatch(self, store):
        store.put("verdict", "a" * 48, 1)
        path = store._path("verdict", "a" * 48)
        with open(path, "rb") as fh:
            header = fh.readline()
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(header + payload[:-1] + bytes([payload[-1] ^ 0xFF]))
        self._assert_corrupt_miss(store)

    def test_not_json_header(self, store):
        store.put("verdict", "a" * 48, 1)
        with open(store._path("verdict", "a" * 48), "wb") as fh:
            fh.write(b"\x00\x01garbage")
        self._assert_corrupt_miss(store)

    def test_corrupt_helper_truncates_every_entry(self, store):
        store.put("verdict", "a" * 48, 1)
        store.put("substrate", "b" * 48, {"x": list(range(100))})
        assert corrupt_store_for_testing(store.root) == 2
        assert store.get("verdict", "a" * 48) is None
        assert store.get("substrate", "b" * 48) is None

    def test_corruption_counts_in_stats(self, store):
        store.put("verdict", "a" * 48, 1)
        corrupt_store_for_testing(store.root)
        store.get("verdict", "a" * 48)
        stats = store.stats()
        assert stats["corrupt"] == 1


class TestStatsAndGc:
    def test_stats_shape(self, store):
        store.put("verdict", "a" * 48, 1)
        store.get("verdict", "a" * 48)
        store.get("verdict", "b" * 48)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["by_kind"]["verdict"]["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert 0 < stats["hit_rate"] < 1

    def test_gc_by_age_evicts_everything_at_zero(self, store):
        store.put("verdict", "a" * 48, 1)
        store.put("verdict", "b" * 48, 2)
        time.sleep(0.01)
        result = store.gc(max_age_days=0)
        assert result["removed"] == 2
        assert store.get("verdict", "a" * 48) is None

    def test_gc_by_bytes_keeps_most_recent(self, store):
        store.put("verdict", "a" * 48, 1)
        store.put("verdict", "b" * 48, 2)
        store.get("verdict", "b" * 48)  # touch: b is most recently used
        one_entry = store.stats()["bytes"] // 2 + 1
        result = store.gc(max_bytes=one_entry)
        assert result["removed"] == 1
        assert store.get("verdict", "b" * 48) == 2

    def test_gc_noop_without_limits(self, store):
        store.put("verdict", "a" * 48, 1)
        assert store.gc()["removed"] == 0

    def test_gc_lru_ties_break_by_key(self, tmp_path, monkeypatch):
        """Equal last-use stamps: the smallest (kind, key) goes first.

        Entries written in one burst can share a stamp; breaking the tie
        by key keeps eviction independent of filesystem listing order.
        """
        import repro.cache.store as store_mod

        monkeypatch.setattr(store_mod.time, "time_ns", lambda: 10**18)
        # each header embeds created_ts: a fixed clock gives the three
        # entries one size, so "room for two" is exact
        monkeypatch.setattr(store_mod.time, "time", lambda: 1e9)
        store = SubstrateStore(str(tmp_path / "cache"))
        try:
            for key_char in ("c", "b", "a"):
                store.put("verdict", key_char * 48, key_char)
            budget = (store.stats()["bytes"] // 3) * 2 + 1  # room for two
            result = store.gc(max_bytes=budget)
            assert result["removed"] == 1
            assert store.get("verdict", "a" * 48) is None  # smallest key
            assert store.get("verdict", "b" * 48) == "b"
            assert store.get("verdict", "c" * 48) == "c"
        finally:
            store.close()

    def test_gc_order_survives_reopen(self, tmp_path, monkeypatch):
        """Recency lives on the entry files: entries from a previous
        process order before a reopened store's new ones."""
        import repro.cache.store as store_mod

        # a fixed created_ts gives the three entries one size, so "room
        # for two" is exact; last-use stamps still come from time_ns
        monkeypatch.setattr(store_mod.time, "time", lambda: 1e9)
        root = str(tmp_path / "cache")
        store = SubstrateStore(root)
        store.put("verdict", "a" * 48, "a")
        store.close()
        store = SubstrateStore(root)
        try:
            store.put("verdict", "b" * 48, "b")
            store.put("verdict", "c" * 48, "c")
            budget = (store.stats()["bytes"] // 3) * 2 + 1
            assert store.gc(max_bytes=budget)["removed"] == 1
            assert store.get("verdict", "a" * 48) is None
            assert store.get("verdict", "b" * 48) == "b"
        finally:
            store.close()

    def test_unreadable_stats_lines_are_skipped(self, tmp_path):
        """A damaged stats.jsonl line loses its counts, never a lookup."""
        root = tmp_path / "cache"
        store = SubstrateStore(str(root))
        store.put("verdict", "a" * 48, 1)
        store.get("verdict", "a" * 48)
        store.close()  # one line: hits 1
        log = root / "stats.jsonl"
        with open(log, "ab") as fh:
            fh.write(b"not a json line\n")
            fh.write(b'["hits", 9]\n')
            fh.write(b'{"misses": 2, "ts": 5}\n')
            fh.write(b'{"hits": 40, "ts"')  # a writer killed mid-line
        store2 = SubstrateStore(str(root))
        try:
            with obs.Recorder() as rec:
                assert store2.get("verdict", "a" * 48) == 1
                stats = store2.stats()
            assert (stats["hits"], stats["misses"]) == (2, 2)
            assert isinstance(stats["created_ts"], int)
            assert [w for w in rec.warnings() if "unreadable" in w] == [
                f"cache: skipped 3 unreadable line(s) in {log}; "
                "lifetime counts exclude them"
            ]
        finally:
            store2.close()

    def test_counts_from_concurrent_processes_add_up(self, tmp_path):
        root = str(tmp_path / "cache")
        context = multiprocessing.get_context("fork")
        children = [
            context.Process(target=_miss_five_times, args=(root,)) for _ in range(3)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(60)
            assert child.exitcode == 0
        store = SubstrateStore(root)
        try:
            assert store.stats()["misses"] == 15
        finally:
            store.close()


def _miss_five_times(root):
    store = SubstrateStore(root)
    for digit in "01234":
        store.get("verdict", digit * 48)
    store.close()


class TestEnvHelper:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "/env/dir")
        assert cache_dir_from_env("/flag/dir") == "/flag/dir"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "/env/dir")
        assert cache_dir_from_env(None) == "/env/dir"

    def test_disabled_without_either(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_dir_from_env(None) is None
