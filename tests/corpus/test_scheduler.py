"""Sharded largest-first scheduler: dispatch order, core budget, equivalence."""

from __future__ import annotations

import dataclasses
import io
import json
import multiprocessing
import os

import pytest

from repro.core import SierraOptions
from repro.corpus import scheduler as sched
from repro.corpus.driver import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    run_corpus,
)
from repro.corpus.families import (
    aggregate_scores,
    family_ground_truth,
    score_detection,
    seeded_corpus,
)
from repro.obs import log as obs_log


class TestCoreBudget:
    def test_divides_cores_across_shards(self):
        assert sched.core_budget(4, requested=8, cores=8) == 2
        assert sched.core_budget(2, requested=8, cores=8) == 4

    def test_never_raises_the_request(self):
        assert sched.core_budget(2, requested=1, cores=8) == 1
        assert sched.core_budget(1, requested=3, cores=16) == 3

    def test_more_shards_than_cores_degrades_to_one(self):
        assert sched.core_budget(8, requested=4, cores=4) == 1
        assert sched.core_budget(3, requested=2, cores=2) == 1

    def test_single_shard_keeps_full_budget(self):
        assert sched.core_budget(1, requested=4, cores=4) == 4


class TestProgressLine:
    def test_renders_done_rate_and_running_apps(self):
        stream = io.StringIO()
        line = sched.ProgressLine(total=2, total_cost=2.0, stream=stream)
        line.start(0, "alpha")
        assert "running: alpha" in stream.getvalue()
        line.finish(0, "alpha", 1.0)
        assert "[1/2]" in stream.getvalue()
        assert "apps/s" in stream.getvalue()
        line.close()
        assert stream.getvalue().endswith("\n")


class TestRunShardedDirect:
    def _options(self):
        return dataclasses.asdict(SierraOptions())

    def test_worker_crash_respawns_and_isolates(self, monkeypatch):
        """A worker that dies mid-task costs exactly that task — the
        replacement worker drains the rest of the queue."""
        from repro.corpus import driver

        execute_app = driver._execute_app

        def crash_on_newsreader(name, *args):
            if name == "newsreader":
                os._exit(23)  # a hard crash: no result, no traceback
            return execute_app(name, *args)

        # the forked workers inherit the patch
        monkeypatch.setattr(driver, "_execute_app", crash_on_newsreader)
        mp_context = multiprocessing.get_context("fork")
        items = [
            sched.WorkItem(index=0, name="quickstart", cost=2.0),
            sched.WorkItem(index=1, name="newsreader", cost=2.0),
            sched.WorkItem(index=2, name="quickstart", cost=2.0),
        ]
        records = sched.run_sharded(
            mp_context, items, self._options(), shards=2, timeout_s=60.0
        )
        assert [r.status for r in records] == [
            STATUS_OK,
            STATUS_ERROR,
            STATUS_OK,
        ]
        assert records[1].error["type"] == "WorkerDied"

    def test_records_return_in_input_order(self):
        mp_context = multiprocessing.get_context("fork")
        names = seeded_corpus(count=4, seed=1, max_size=0)
        items = [
            sched.WorkItem(index=i, name=n, cost=float(4 - i))
            for i, n in enumerate(names)
        ]
        records = sched.run_sharded(
            mp_context, items, self._options(), shards=2, timeout_s=60.0
        )
        assert [r.app for r in records] == names


@pytest.mark.corpus_smoke
class TestDispatchOrder:
    def test_one_shard_starts_apps_largest_cost_first(self):
        """One queue, sorted by cost: the largest app starts first and
        equal costs keep input order; records still come back in input
        order."""
        mp_context = multiprocessing.get_context("fork")
        items = [
            sched.WorkItem(index=0, name="quickstart", cost=1.0),
            sched.WorkItem(index=1, name="dbapp", cost=5.0),
            sched.WorkItem(index=2, name="newsreader", cost=1.0),
        ]
        stream = io.StringIO()
        obs_log.configure(level="info", json_mode=True, stream=stream)
        try:
            records = sched.run_sharded(
                mp_context,
                items,
                dataclasses.asdict(SierraOptions()),
                shards=1,
                timeout_s=60.0,
            )
        finally:
            obs_log.unconfigure()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        started = [line["app"] for line in lines if line["event"] == "app.start"]
        assert started == ["dbapp", "quickstart", "newsreader"]
        assert [r.app for r in records] == ["quickstart", "dbapp", "newsreader"]
        assert all(r.status == STATUS_OK for r in records)


#: objects in the reference cycle each task below leaves behind
_CYCLE = 5_000


def _leave_a_cycle(name, *args):
    """A stand-in for ``_execute_app``: leaves garbage only a cyclic
    collection frees, and reports this process's collector state."""
    import gc

    junk = [[] for _ in range(_CYCLE - 1)]
    junk.append(junk)
    return {
        "status": STATUS_OK,
        "counters": {
            "objects": len(gc.get_objects()),
            "enabled": int(gc.isenabled()),
            "frozen": gc.get_freeze_count(),
        },
    }


class TestGarbageCollection:
    """A shard worker runs apps with automatic collection off and collects
    once between them; its heap arrives frozen."""

    def test_worker_collects_between_tasks(self, monkeypatch):
        import gc

        from repro.corpus import driver

        # the forked worker inherits the patch
        monkeypatch.setattr(driver, "_execute_app", _leave_a_cycle)
        frozen = gc.get_freeze_count()
        items = [sched.WorkItem(index=i, name=f"task{i}") for i in range(20)]
        records = sched.run_sharded(
            multiprocessing.get_context("fork"), items, {}, shards=1, timeout_s=60.0
        )
        counters = [r.counters for r in records]
        assert all(c["enabled"] == 0 for c in counters)
        assert all(c["frozen"] > 10_000 for c in counters)  # the parent's heap
        # uncollected, each task's cycle would still be there in the next
        objects = [c["objects"] for c in counters]
        assert max(objects) - min(objects) < _CYCLE, objects
        assert gc.get_freeze_count() == frozen  # unfrozen after the fork


class TestDriverIntegration:
    def test_core_budget_lands_in_the_report(self):
        apps = seeded_corpus(count=2, seed=0, max_size=0)
        run = run_corpus(
            apps=apps, shards=2, options=SierraOptions(parallelism=4)
        )
        assert run.shards == 2
        assert run.effective_parallelism == sched.core_budget(2, requested=4)
        data = run.to_dict()
        assert data["shards"] == 2
        assert data["effective_parallelism"] == run.effective_parallelism
        assert all(r.status == STATUS_OK for r in run.records)


@pytest.mark.corpus_smoke
class TestShardedEquivalence:
    def test_family_mix_sharded_equals_serial_with_full_recall(self):
        """The CI smoke: a seeded 24-app family mix through the sharded
        scheduler keeps recall 1.0 on every injected race. That sharded
        rows equal the serial run's is checked by
        tests/test_modes.py::test_sharded_batch_matches_serial."""
        apps = seeded_corpus(count=24, seed=9, max_size=1)
        sharded = run_corpus(apps=apps, shards=3, timeout_s=120.0)
        assert [r.app for r in sharded.records] == apps
        assert [r.status for r in sharded.records] == [STATUS_OK] * len(apps)
        assert sharded.shards == 3
        scores = [
            score_detection(
                family_ground_truth(r.app), [row["field"] for row in r.races]
            )
            for r in sharded.records
        ]
        agg = aggregate_scores(scores)
        assert agg["recall"] == 1.0
        assert all(s["leaked_eliminated"] == [] for s in scores)

    def test_fault_injection_semantics_survive_sharding(self):
        apps = seeded_corpus(count=4, seed=2, max_size=0) + ["quickstart"]
        run = run_corpus(
            apps=apps,
            shards=3,
            inject_fail=["quickstart"],
            inject_hang=[apps[0]],
            timeout_s=2.0,
        )
        statuses = {r.app: r.status for r in run.records}
        assert statuses["quickstart"] == STATUS_ERROR
        assert statuses[apps[0]] == STATUS_TIMEOUT
        assert all(
            statuses[a] == STATUS_OK for a in apps[1:4]
        ), statuses
        assert run.exit_code == 1
        hung = next(r for r in run.records if r.app == apps[0])
        assert hung.error["stuck_stage"] == "inject-hang"
