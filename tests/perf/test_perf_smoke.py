"""Fast end-to-end checks (marked ``perf_smoke``): the batch driver's
``RUN_report.json``, the ``--trace`` Chrome-trace export, and the
``repro diff --gate`` exit-code contract over the run-history ledger.

The effort counters themselves are pinned exactly in
``test_effort_counters.py``; wall time is measured from outside by
``perfbench/``.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf_smoke


class TestCorpusAnalyzeSmoke:
    """Every PR exercises the batch driver + RUN_report schema (satellite of
    the fault-isolation work; see docs/operations.md)."""

    def test_small_subset_batch_run(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "RUN_report.json"
        code = main(
            ["corpus-analyze", "--apps", "quickstart", "dbapp",
             "--out", str(out), "--timeout", "60"]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 3
        assert data["summary"]["ok"] == data["summary"]["total"] == 2
        for record in data["apps"].values():
            assert record["status"] == "ok"
            assert set(record["stages"]) >= {"cg_pa", "hbg", "refutation"}
            assert record["counters"]["actions"] > 0


class TestTraceExport:
    """The --trace workflow end to end, checked with the trace schema
    validator."""

    def test_analyze_trace_flag_emits_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro import obs
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(["analyze", "quickstart", "--trace", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().err
        assert obs.validate_trace_file(str(out)) == []
        data = json.loads(out.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        # sub-stage spans, not just the three coarse stages
        assert {"cg_pa", "hbg", "refutation"} <= names
        assert any(name.startswith("hb.rule.") for name in names)
        assert any(name.startswith("pointsto.") for name in names)
        assert any(name.startswith("refute.") for name in names)

    def test_trace_memory_flag_attaches_rss(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(
            ["analyze", "quickstart", "--trace", str(out), "--trace-memory"]
        ) == 0
        data = json.loads(out.read_text())
        ends = [e for e in data["traceEvents"] if e["ph"] == "E"]
        assert any(e["args"].get("rss_peak_kb", 0) > 0 for e in ends)


class TestLedgerGate:
    """``repro diff --gate`` exit-code contract over the run-history ledger:
    0 clean, 1 on an injected regression, 2 on a malformed ledger."""

    @staticmethod
    def _record_run(db, stages):
        from repro.obs.history import KIND_BENCH, RunLedger

        with RunLedger(db) as ledger:
            run_id = ledger.begin_run(KIND_BENCH, {"apps": ["app"]})
            ledger.record_app(run_id, "app", stages=stages)
        return run_id

    def test_gate_clean_exits_zero(self, tmp_path):
        from repro.cli import main

        db = str(tmp_path / "h.db")
        self._record_run(db, {"cg_pa": 1.0, "hbg": 0.5})
        self._record_run(db, {"cg_pa": 1.0, "hbg": 0.5})
        assert main(["diff", "latest~1", "latest", "--gate", "--history", db]) == 0

    def test_gate_injected_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "h.db")
        self._record_run(db, {"cg_pa": 1.0, "hbg": 0.5})
        self._record_run(db, {"cg_pa": 3.0, "hbg": 0.5})  # 3x slowdown
        assert main(["diff", "latest~1", "latest", "--gate", "--history", db]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "cg_pa" in out
        # without --gate the same diff reports but does not fail the build
        assert main(["diff", "latest~1", "latest", "--history", db]) == 0

    def test_gate_malformed_ledger_exits_two(self, tmp_path):
        from repro.cli import main

        db = tmp_path / "h.db"
        db.write_bytes(b"this is not a sqlite database, not even close")
        assert main(["diff", "latest~1", "latest", "--gate",
                     "--history", str(db)]) == 2

    def test_gate_bad_run_reference_exits_two(self, tmp_path):
        from repro.cli import main

        db = str(tmp_path / "h.db")
        self._record_run(db, {"cg_pa": 1.0})
        assert main(["diff", "latest~5", "latest", "--gate",
                     "--history", db]) == 2
