"""Warm re-analysis: a full hit does (near-)zero substrate work.

That a warm run reports the same fingerprints and refutation verdicts as
the cold run that populated the cache is machine-checked by the
differential matrix in ``tests/test_modes.py``.
"""

import pytest

from repro.cli import load_app
from repro.core import Sierra, SierraOptions
from repro.obs import metrics


def run(app: str, **opts):
    result = Sierra(SierraOptions(**opts)).analyze(load_app(app))
    scrape = dict(metrics.registry().totals())
    return result, scrape


class TestWarmEqualsCold:
    @pytest.mark.parametrize("app", ["quickstart", "paper:APV"])
    def test_full_hit_replays_identically(self, app, tmp_path):
        # that the warm run's races equal the cold run's is checked by
        # tests/test_modes.py::test_warm_cache_matches_serial
        cache = str(tmp_path / "cache")
        _, cold_scrape = run(app, cache_dir=cache)
        warm, warm_scrape = run(app, cache_dir=cache)

        assert cold_scrape["cache.substrate_misses"] == 1
        assert warm_scrape["cache.substrate_hits"] == 1
        # the whole fixpoint is replayed from the bundle: zero worklist units
        assert warm_scrape["pointsto.worklist_iterations"] == 0
        # every verdict came from the persistent memo
        assert warm_scrape["refutation.cache_hits"] > 0
        assert (
            warm_scrape["refutation.cache_hits"]
            == warm.report.refutation_stats["candidates"]
        )
        assert warm_scrape["refutation.nodes_expanded"] == 0

    def test_sharded_batch_over_one_cache(self, tmp_path):
        """Two shard children put, stamp and count into one cache at once;
        the warm pass replays every app from it and misses nothing."""
        from repro.cache import SubstrateStore
        from repro.corpus.driver import run_corpus

        apps = ["quickstart", "newsreader", "dbapp", "opensudoku", "paper:APV"]
        cache = str(tmp_path / "cache")

        def batch():
            run = run_corpus(apps, options=SierraOptions(cache_dir=cache), shards=2)
            store = SubstrateStore(cache)
            try:
                return run.records, store.stats()
            finally:
                store.close()

        def rows(record):
            return sorted((r["fingerprint"], r["verdict"]) for r in record.races)

        cold, cold_stats = batch()
        warm, warm_stats = batch()
        assert [r.app for r in warm] == [r.app for r in cold] == apps
        assert [rows(r) for r in warm] == [rows(r) for r in cold]
        assert all(rows(r) for r in cold)
        hits = [r.metrics["cache.substrate_hits"]["value"] for r in warm]
        assert hits == [1] * len(apps)
        assert warm_stats["misses"] == cold_stats["misses"]
        assert warm_stats["hits"] - cold_stats["hits"] >= len(apps)

    def test_uncached_run_records_nothing(self):
        _, scrape = run("quickstart")
        assert scrape.get("cache.substrate_hits", 0) == 0
        assert scrape.get("cache.substrate_misses", 0) == 0

    def test_caches_are_per_options(self, tmp_path):
        """A different abstraction must not reuse the bundle."""
        cache = str(tmp_path / "cache")
        run("quickstart", cache_dir=cache)
        _, scrape = run("quickstart", cache_dir=cache, selector="hybrid")
        assert scrape["cache.substrate_misses"] == 1
        assert scrape.get("cache.substrate_hits", 0) == 0


class TestParallelMemoEquivalence:
    """Satellite 1: memo hits ship back from fork-pool workers, so serial
    and parallel warm runs scrape identical refutation totals."""

    def test_serial_equals_parallel_totals(self, tmp_path):
        serial_cache = str(tmp_path / "serial")
        run("paper:APV", cache_dir=serial_cache)
        warm_serial, scrape_serial = run("paper:APV", cache_dir=serial_cache)

        parallel_cache = str(tmp_path / "parallel")
        run("paper:APV", cache_dir=parallel_cache, parallelism=3)
        warm_parallel, scrape_parallel = run(
            "paper:APV", cache_dir=parallel_cache, parallelism=3
        )

        assert (
            warm_serial.report.refutation_stats
            == warm_parallel.report.refutation_stats
        )
        for name in (
            "refutation.cache_hits",
            "refutation.candidates",
            "refutation.refuted",
            "refutation.nodes_expanded",
            "cache.refutation_memo_hits",
        ):
            assert scrape_serial[name] == scrape_parallel[name], name
        assert scrape_parallel["refutation.cache_hits"] > 0

    def test_cold_parallel_persists_for_serial_warm(self, tmp_path):
        """Verdicts computed by pool workers are flushed by the parent and
        serve a later serial run."""
        cache = str(tmp_path / "cache")
        _, cold_scrape = run("paper:APV", cache_dir=cache, parallelism=3)
        assert cold_scrape["cache.refutation_memo_stored"] > 0
        warm, warm_scrape = run("paper:APV", cache_dir=cache)
        assert (
            warm_scrape["refutation.cache_hits"]
            == warm.report.refutation_stats["candidates"]
        )


class TestOnlyField:
    def test_only_field_filters_refutation(self, tmp_path):
        full, _ = run("paper:APV")
        target = full.report.reports[0].field_name
        sliced, _ = run("paper:APV", only_field=target)
        assert sliced.report.only_field == target
        # enumeration is still complete; only refutation/reporting narrowed
        assert sliced.report.racy_pairs == full.report.racy_pairs
        assert (
            sliced.report.racy_pairs_selected
            == sliced.report.refutation_stats["candidates"]
        )
        assert sliced.report.racy_pairs_selected < full.report.racy_pairs
        assert all(r.field_name == target for r in sliced.report.reports)

    def test_only_field_verdicts_match_full_run(self):
        full, _ = run("paper:APV")
        target = full.report.reports[0].field_name
        sliced, _ = run("paper:APV", only_field=target)
        full_fps = {
            r.fingerprint for r in full.report.reports if r.field_name == target
        }
        assert {r.fingerprint for r in sliced.report.reports} == full_fps

    def test_only_field_warm_uses_memo(self, tmp_path):
        cache = str(tmp_path / "cache")
        full, _ = run("paper:APV", cache_dir=cache)
        target = full.report.reports[0].field_name
        sliced, scrape = run("paper:APV", cache_dir=cache, only_field=target)
        assert scrape["cache.substrate_hits"] == 1
        # the targeted slice's verdicts were all memoised by the full run
        assert (
            scrape["refutation.cache_hits"]
            == sliced.report.refutation_stats["candidates"]
        )

    def test_no_match_selects_zero(self):
        result, _ = run("quickstart", only_field="no.such.field")
        assert result.report.racy_pairs_selected == 0
        assert result.report.races_after_refutation == 0
        assert result.report.racy_pairs == 1  # enumeration unaffected
