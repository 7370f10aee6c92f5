"""CLI + driver surfaces of the cache: subcommands, targeted queries,
corruption injection."""

import json
import shutil

from repro.cache import SubstrateStore
from repro.cli import main
from repro.corpus.driver import run_corpus
from repro.core import SierraOptions


class TestCacheSubcommands:
    def test_stats_and_gc_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["analyze", "quickstart", "--cache", cache]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "substrate" in out and "verdict" in out

        assert main(["cache", "stats", "--cache", cache, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] >= 3  # substrate + app index + verdict(s)

        assert main(["cache", "gc", "--cache", cache, "--max-age-days", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out

    def test_stats_before_any_counted_lookup(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        assert main(["cache", "stats", "--cache", str(cache)]) == 0
        assert "hit_rate=n/a" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache", str(cache), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["hit_rate"] is None

    def test_missing_cache_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["cache", "stats"]) == 2
        assert main(["cache", "stats", "--cache", str(tmp_path / "nope")]) == 2
        assert main(["cache", "gc"]) == 2

    def test_cache_env_var_enables_caching(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "envcache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_CACHE", str(cache))
        assert main(["analyze", "quickstart"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "substrate" in capsys.readouterr().out


class TestOnlyFieldCli:
    def test_match_prints_selected(self, capsys):
        assert main(["analyze", "quickstart", "--only-field", "counter"]) == 0
        out = capsys.readouterr().out
        assert "selected for 'counter'=1" in out

    def test_no_match_exits_2_listing_candidates(self, capsys):
        assert main(["analyze", "quickstart", "--only-field", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "matches none" in err
        assert "counter" in err  # the candidate list

    def test_json_carries_query(self, capsys):
        assert main(
            ["analyze", "quickstart", "--only-field", "counter", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["only_field"] == "counter"
        assert data["racy_pairs_selected"] == 1


class TestInjectCacheCorrupt:
    def test_corrupted_cache_analyzes_cold_with_warning(self, tmp_path):
        cache = str(tmp_path / "cache")
        options = SierraOptions(cache_dir=cache)
        # populate, then re-run with every entry truncated
        run_corpus(apps=["quickstart"], options=options)
        run = run_corpus(
            apps=["quickstart"],
            options=options,
            inject_cache_corrupt={"quickstart"},
        )
        (record,) = run.records
        assert record.status in ("ok", "degraded")
        assert record.report["races_after_refutation"] == 1
        warnings = " ".join(record.warnings)
        assert "injected cache corruption" in warnings
        assert "corrupt" in warnings  # the store's own loud fallback

    def test_sharded_corrupt_pass_is_reproducible(self, tmp_path):
        """The batch truncates the cache once, before any shard starts, so
        with two shards every app meets its own entries corrupt whatever
        the timing, and two runs of the same pass agree."""
        apps = ["quickstart", "newsreader", "dbapp", "opensudoku", "paper:APV"]
        fill = tmp_path / "fill"
        run_corpus(apps=apps, options=SierraOptions(cache_dir=str(fill)), shards=2)
        store = SubstrateStore(str(fill))
        entries = store.stats()["entries"]
        store.close()
        outcomes = []
        for copy in ("first", "second"):
            cache = tmp_path / copy
            shutil.copytree(fill, cache)
            run = run_corpus(
                apps=apps,
                options=SierraOptions(cache_dir=str(cache)),
                shards=2,
                inject_cache_corrupt={"newsreader"},
            )
            records = {
                r.app: (r.status, r.warnings, r.counters, r.report)
                for r in run.records
            }
            store = SubstrateStore(str(cache))
            stats = store.stats()
            store.close()
            counts = {k: stats[k] for k in ("hits", "misses", "corrupt", "entries")}
            outcomes.append((records, counts))
        assert outcomes[0] == outcomes[1]
        records, counts = outcomes[0]
        assert counts["corrupt"] == entries  # each entry read back once, corrupt
        assert counts["hits"] == 0
        injected = {
            app: [w for w in warnings if "injected" in w]
            for app, (_status, warnings, _counters, _report) in records.items()
        }
        assert injected.pop("newsreader") == [
            f"injected cache corruption for 'newsreader': truncated {entries} "
            "entries (--inject-cache-corrupt)"
        ]
        assert all(found == [] for found in injected.values())  # APP's record only

    def test_injection_is_noop_without_cache(self):
        run = run_corpus(
            apps=["quickstart"],
            options=SierraOptions(),
            inject_cache_corrupt={"quickstart"},
        )
        (record,) = run.records
        assert record.status == "ok"
        assert not any("cache" in w for w in record.warnings)

