"""The fault-isolated corpus driver: statuses, report schema, exit codes."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import is_known_app, main
from repro.core import SierraOptions
from repro.corpus.driver import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    AppRunRecord,
    default_corpus,
    run_corpus,
)
from repro.obs import log as obs_log

#: fast apps: the whole file's batches stay in the low seconds
SMALL = ["quickstart", "dbapp"]


def _statuses(run):
    return {r.app: r.status for r in run.records}


class TestCleanRun:
    def test_all_ok_and_exit_zero(self):
        run = run_corpus(apps=SMALL)
        assert _statuses(run) == {name: STATUS_OK for name in SMALL}
        assert run.exit_code == 0
        summary = run.summary()
        assert summary["ok"] == len(SMALL)
        assert summary["degraded"] == summary["error"] == summary["timeout"] == 0

    def test_records_reuse_perf_vocabulary(self):
        run = run_corpus(apps=["quickstart"])
        record = run.records[0]
        assert set(record.stages) == {"cg_pa", "hbg", "refutation", "total"}
        assert record.counters["actions"] > 0
        assert record.counters["pointsto_worklist_iterations"] > 0
        assert record.report["racy_pairs"] >= record.report["races_after_refutation"]
        # the detector's stage spans (the root spans) made it across the
        # process boundary
        roots = [
            e["stage"]
            for e in record.events
            if e["kind"] == "span_end" and "parent_id" not in e
        ]
        assert roots == ["cg_pa", "hbg", "refutation"]

    def test_report_json_round_trips(self, tmp_path):
        out = tmp_path / "RUN_report.json"
        run = run_corpus(apps=SMALL, out_path=str(out))
        data = json.loads(out.read_text())
        assert data["schema"] == 5
        assert "cost_model" not in data
        assert data["run_id"] is None  # no --history: provenance block empty
        assert data["history"] is None
        assert set(data["apps"]) == set(SMALL)
        assert data["summary"] == run.summary()
        assert data["options"]["path_budget"] == 5000


class TestFaultIsolation:
    def test_injected_failure_isolates_and_records_traceback(self):
        run = run_corpus(apps=SMALL + ["opensudoku"], inject_fail=["dbapp"])
        statuses = _statuses(run)
        assert statuses["dbapp"] == STATUS_ERROR
        # the other apps still completed
        assert statuses["quickstart"] == statuses["opensudoku"] == STATUS_OK
        assert run.exit_code == 1
        error = next(r for r in run.records if r.app == "dbapp").error
        assert error["type"] == "RuntimeError"
        assert "injected failure" in error["message"]
        assert "RuntimeError" in error["traceback"]

    def test_timeout_kills_the_worker_and_continues(self):
        run = run_corpus(apps=SMALL, inject_hang=["quickstart"], timeout_s=1.0)
        statuses = _statuses(run)
        assert statuses["quickstart"] == STATUS_TIMEOUT
        assert statuses["dbapp"] == STATUS_OK
        assert run.exit_code == 1
        record = next(r for r in run.records if r.app == "quickstart")
        assert record.elapsed_s >= 1.0
        assert "wall-clock budget" in record.error["message"]

    def test_timeout_flushes_partial_events_and_names_stuck_stage(self, tmp_path):
        """A killed worker can't send its result payload, but the events it
        streamed before dying must still land in RUN_report.json — that's
        how an operator sees *where* a timed-out app was stuck."""
        out = tmp_path / "RUN_report.json"
        run = run_corpus(
            apps=["quickstart"],
            inject_hang=["quickstart"],
            timeout_s=1.0,
            out_path=str(out),
        )
        record = run.records[0]
        assert record.status == STATUS_TIMEOUT
        assert record.error["stuck_stage"] == "inject-hang"
        assert "stuck in stage 'inject-hang'" in record.error["message"]
        kinds = [(e["kind"], e.get("stage")) for e in record.events]
        assert ("span_start", "inject-hang") in kinds
        assert ("span_end", "inject-hang") not in kinds  # it never finished
        # and the flush survives into the written report
        data = json.loads(out.read_text())
        assert data["apps"]["quickstart"]["events"] == record.events

    def test_unknown_app_fails_the_batch_up_front(self):
        with pytest.raises(ValueError, match="unknown corpus app"):
            run_corpus(apps=["quickstart", "paper:NoSuchApp"])


class TestNestedParallelism:
    def test_parallel_refutation_inside_isolated_worker_stays_ok(self):
        """Workers must not be daemonic: a daemonic worker cannot fork the
        refutation pool, silently costing every app its --parallelism (it
        would show up here as status 'degraded')."""
        run = run_corpus(
            apps=["opensudoku"], options=SierraOptions(parallelism=2)
        )
        record = run.records[0]
        assert record.status == STATUS_OK
        assert record.degradations == []
        assert run.exit_code == 0


class TestRecordViews:
    """A record's warnings, degradations and ``degraded`` status are read
    off its events, whatever ended the app."""

    def test_failed_records_keep_the_warnings_in_their_events(self):
        record = AppRunRecord(
            "x", STATUS_TIMEOUT, events=[{"kind": "warning", "message": "m"}]
        )
        assert record.warnings == ["m"]
        assert record.status == STATUS_TIMEOUT
        assert record.to_dict()["warnings"] == ["m"]

    def test_ok_record_with_a_degraded_event_reads_degraded(self):
        record = AppRunRecord(
            "x", STATUS_OK, events=[{"kind": "degraded", "message": "serial"}]
        )
        assert record.status == STATUS_DEGRADED
        assert record.degradations == ["serial"]
        assert record.warnings == []


class TestLifecycleLog:
    @pytest.mark.parametrize("shards", [1, 2], ids=["shards1", "shards2"])
    def test_each_app_logs_one_start_and_one_finish(self, shards):
        stream = io.StringIO()
        obs_log.configure(level="info", json_mode=True, stream=stream)
        try:
            run_corpus(apps=SMALL, shards=shards)
        finally:
            obs_log.unconfigure()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        names = [line["event"] for line in lines]
        assert names.count("corpus.start") == 1
        assert names.count("corpus.finish") == 1
        for app in SMALL:
            starts = [
                line for line in lines
                if line["event"] == "app.start" and line["app"] == app
            ]
            finishes = [
                line for line in lines
                if line["event"] == "app.finish" and line["app"] == app
            ]
            assert len(starts) == 1 and len(finishes) == 1
            assert "shard" in starts[0]
            assert starts[0]["cost"] > 0


class TestWithoutFork:
    """No other way to run an app enforces its timeout, so a platform
    without ``fork`` refuses the batch before it writes anything."""

    def test_run_corpus_raises_before_the_ledger_opens(self, no_fork, tmp_path):
        with pytest.raises(ValueError, match="no 'fork' start method"):
            run_corpus(
                apps=SMALL,
                history=str(tmp_path / "runs.sqlite"),
                out_path=str(tmp_path / "RUN_report.json"),
            )
        assert list(tmp_path.iterdir()) == []

    def test_cli_exits_two_with_one_line(self, no_fork, tmp_path, capsys):
        code = main(
            ["corpus-analyze", "--apps", *SMALL,
             "--out", str(tmp_path / "RUN_report.json"),
             "--history", str(tmp_path / "runs.sqlite")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("corpus-analyze: ") and "'fork'" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_still_runs_in_process(self, no_fork, capsys):
        assert main(["analyze", "quickstart", "--parallelism", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["races_after_refutation"] == 1


class TestDefaultCorpus:
    def test_contains_figures_and_all_paper_apps(self):
        corpus = default_corpus()
        assert "quickstart" in corpus and "opensudoku" in corpus
        assert sum(1 for name in corpus if name.startswith("paper:")) == 20
        assert all(is_known_app(name) for name in corpus)


class TestIsKnownApp:
    def test_known_names(self):
        assert is_known_app("quickstart")
        assert is_known_app("paper:apv")  # case-insensitive like load_app
        assert is_known_app("fdroid:0") and is_known_app("fdroid:173")

    def test_unknown_names(self):
        assert not is_known_app("nope")
        assert not is_known_app("paper:NoSuchApp")
        assert not is_known_app("fdroid:174")
        assert not is_known_app("fdroid:xyz")


class TestCorpusAnalyzeCli:
    def test_clean_cli_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "RUN_report.json"
        code = main(["corpus-analyze", "--apps", *SMALL, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "2 ok, 0 degraded, 0 error, 0 timeout" in printed
        assert json.loads(out.read_text())["summary"]["exit_code"] == 0

    def test_cli_injected_failure_exits_one(self, tmp_path, capsys):
        out = tmp_path / "RUN_report.json"
        code = main(
            ["corpus-analyze", "--apps", *SMALL, "--out", str(out),
             "--inject-fail", "dbapp"]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "RuntimeError: injected failure" in printed
        data = json.loads(out.read_text())
        assert data["apps"]["dbapp"]["status"] == "error"
        assert data["summary"]["error"] == 1

    def test_cli_unknown_app_is_a_clear_one_liner(self, capsys):
        assert main(["corpus-analyze", "--apps", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown corpus app" in err
        assert "Traceback" not in err
