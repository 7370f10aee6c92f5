"""CLI: app resolution, command output, option plumbing, and the
``python -m repro`` entry point."""

import gc
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import build_parser, load_app, main


class TestLoadApp:
    def test_figure_apps(self):
        for name in ("quickstart", "newsreader", "dbapp", "opensudoku"):
            assert load_app(name).validate().ok

    def test_paper_app_case_insensitive(self):
        apk = load_app("paper:apv")
        assert apk.name == "APV"

    def test_fdroid_index(self):
        apk = load_app("fdroid:3")
        assert apk.metadata.category == "fdroid"

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit):
            load_app("nope")
        with pytest.raises(SystemExit):
            load_app("paper:NoSuchApp")
        with pytest.raises(SystemExit):
            load_app("fdroid:9999")
        # a non-numeric index is an unknown name too, not a traceback
        with pytest.raises(SystemExit):
            load_app("fdroid:abc")
        with pytest.raises(SystemExit):
            load_app("fdroid:")


class TestAnalyzeCommand:
    def test_basic_output(self, capsys):
        assert main(["analyze", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "app: quickstart" in out
        assert "racy pairs=1" in out
        assert "counter" in out

    def test_compare_no_as_column(self, capsys):
        assert main(["analyze", "opensudoku", "--compare-no-as"]) == 0
        out = capsys.readouterr().out
        assert "without action-sensitivity" in out

    def test_no_refute_flag(self, capsys):
        assert main(["analyze", "opensudoku", "--no-refute"]) == 0
        out = capsys.readouterr().out
        # without refutation, the guarded mAccumTime pairs stay
        assert "after refutation=10" in out

    def test_top_limits_rows(self, capsys):
        assert main(["analyze", "opensudoku", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("guard-var") <= 1

    @pytest.mark.parametrize("command", ["analyze", "profile"])
    def test_negative_top_is_a_usage_error(self, command, capsys):
        # a negative count would slice rows off the end of the table
        with pytest.raises(SystemExit) as exit_info:
            main([command, "quickstart", "--top", "-1"])
        assert exit_info.value.code == 2
        assert "argument --top: must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_k_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "quickstart", "--k", "-1"])
        assert exit_info.value.code == 2
        assert "argument --k: must be >= 0, got -1" in capsys.readouterr().err

    def test_ground_truth_scoring(self, capsys):
        assert main(["analyze", "paper:VuDroid", "--ground-truth"]) == 0
        out = capsys.readouterr().out
        assert "ground truth:" in out

    def test_selector_option(self, capsys):
        assert main(["analyze", "quickstart", "--selector", "insensitive"]) == 0

    def test_index_sensitive_flag(self, capsys):
        assert main(["analyze", "quickstart", "--index-sensitive"]) == 0
        out = capsys.readouterr().out
        assert "racy pairs=1" in out  # no arrays in quickstart: unchanged


class TestOutOfRangeFlags:
    """A wall-clock budget of zero or less expires every app, an infinite
    one crashed the scheduler, and a pool width of zero or less silently
    meant one: argparse refuses them (exit 2) while it parses, before any
    app runs."""

    @pytest.mark.parametrize(
        "command, flag, value, error",
        [
            ("corpus-analyze", "--timeout", "-1", "must be > 0 and finite, got -1"),
            ("corpus-analyze", "--timeout", "0", "must be > 0 and finite, got 0"),
            ("corpus-analyze", "--timeout", "nan", "must be > 0 and finite, got nan"),
            # an infinite deadline overflowed the scheduler's pipe wait
            ("corpus-analyze", "--timeout", "inf", "must be > 0 and finite, got inf"),
            ("corpus-analyze", "--shards", "0", "must be >= 1, got 0"),
            ("corpus-analyze", "--shards", "-2", "must be >= 1, got -2"),
            ("serve", "--job-timeout", "0", "must be > 0 and finite, got 0"),
            # these two were refused only after the ledger had been created
            ("serve", "--workers", "0", "must be >= 1, got 0"),
            ("serve", "--sample-interval", "0", "must be > 0 and finite, got 0"),
        ],
    )
    def test_is_a_usage_error(self, command, flag, value, error, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: {error}" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_output(self, capsys):
        assert main(["compare", "quickstart", "--schedules", "2", "--events", "30"]) == 0
        out = capsys.readouterr().out
        assert "SIERRA (static):" in out
        assert "EventRacer" in out

    def test_compare_with_replay(self, capsys):
        assert main(["compare", "quickstart", "--replay", "--schedules", "3"]) == 0
        out = capsys.readouterr().out
        assert "replay verification:" in out


class TestCorpusCommand:
    def test_lists_everything(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out
        assert "paper:K-9 Mail" in out
        assert "fdroid:0 .. fdroid:173" in out


class TestBrokenPipe:
    """``repro ... | head`` must exit 141 with no traceback, even when the
    consumer took stderr down with the same pipe. Run in a subprocess: the
    handler redirects the real file descriptors 1/2, which would wreck
    pytest's capture in-process."""

    def test_exit_code_and_silent_teardown(self, tmp_path):
        from repro.cli import SIGPIPE_EXIT

        result_file = tmp_path / "rc"
        script = textwrap.dedent(
            f"""
            import os
            import repro.cli as cli

            def boom(args):
                raise BrokenPipeError()
            cli.cmd_corpus = boom

            # both stdout and stderr land on a pipe whose read end is gone
            r, w = os.pipe()
            os.close(r)
            os.dup2(w, 1)
            os.dup2(w, 2)
            os.close(w)
            rc = cli.main(["corpus"])
            with open({str(result_file)!r}, "w") as fh:
                fh.write(str(rc))
            # interpreter exit flushes sys.stdout/stderr; after
            # _silence_broken_pipes() that must be harmless
            print("late write into the dead pipe")
            """
        )
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.join(repo_root, "src")},
            cwd=repo_root,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert SIGPIPE_EXIT == 141
        assert result_file.read_text() == "141"

    def test_parser_still_works_without_pipe_damage(self, capsys):
        # the handler only fires on BrokenPipeError; normal paths untouched
        assert main(["corpus"]) == 0
        assert "quickstart" in capsys.readouterr().out


class TestMalformedHistory:
    @pytest.mark.parametrize("command", ["analyze", "profile"])
    def test_exits_two_with_one_line_before_analyzing(
        self, command, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        def no_analysis(*args, **kwargs):
            raise AssertionError("the app was analyzed before the ledger opened")

        monkeypatch.setattr(cli, "Sierra", no_analysis)
        bad = tmp_path / "not-a-db"
        bad.write_bytes(b"\x00" * 512)
        assert main([command, "quickstart", "--history", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: {bad}: not a usable run ledger")
        assert len(err.splitlines()) == 1  # no traceback


class TestJsonOutput:
    def test_json_roundtrip(self, capsys):
        assert main(["analyze", "opensudoku", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["app"] == "opensudoku-timer"
        assert data["races_after_refutation"] == len(data["reports"])
        assert all("field" in r and "rank" in r for r in data["reports"])
        assert data["timings_seconds"]["total"] >= 0


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("REPRO_HISTORY", "REPRO_CACHE"):
        env.pop(var, None)
    return env


#: runs ``python -m repro <argv[1:]>`` through runpy, counting every
#: garbage collection from just before the entry point runs
_COUNT_COLLECTIONS = """
import gc, io, json, runpy, sys
from contextlib import redirect_stdout

gc.collect()  # start the allocation count from zero
collections = []
gc.callbacks.append(
    lambda phase, info: phase == "stop" and collections.append(info["generation"])
)
sys.argv = ["repro", *sys.argv[1:]]
with redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({
    "code": code,
    "collections": collections,
    "enabled": gc.isenabled(),
    "frozen": gc.get_freeze_count(),
}))
"""


class TestEntryPoint:
    """``python -m repro`` in a fresh interpreter: the process users and
    perfbench start, with the garbage-collection policy of
    ``repro/__main__.py``."""

    @pytest.mark.parametrize("app", ["quickstart", "opensudoku", "paper:APV"])
    def test_fresh_process_matches_in_process_main(self, app, tmp_path, capsys):
        from repro.obs import validate_trace_file
        from repro.obs.history import KIND_ANALYZE, RunLedger

        trace, history = tmp_path / "trace.json", tmp_path / "runs.sqlite"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", app, "--json",
             "--trace", str(trace), "--history", str(history)],
            capture_output=True, text=True, env=_fresh_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["analyze", app, "--json"]) == 0
        fresh = json.loads(proc.stdout)
        in_process = json.loads(capsys.readouterr().out)
        fresh.pop("timings_seconds")
        in_process.pop("timings_seconds")
        assert fresh == in_process
        # written before exit, with nothing left to a finalizer
        assert validate_trace_file(str(trace)) == []
        with RunLedger(str(history)) as ledger:
            (run,) = ledger.runs()
            assert run["kind"] == KIND_ANALYZE
            (row,) = ledger.app_runs(run["run_id"]).values()
            assert row["status"] == "ok"
            assert len(ledger.races(run["run_id"])) == len(fresh["reports"])

    def test_one_shot_process_never_collects(self):
        """Collection is off before the engine is imported, and the heap
        is frozen when ``main()`` returns, so the collection at exit skips
        it too."""
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(_COUNT_COLLECTIONS),
             "analyze", "quickstart", "--json"],
            capture_output=True, text=True, env=_fresh_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["code"] == 0
        assert out["collections"] == []
        assert out["enabled"] is False
        assert out["frozen"] > 10_000  # the engine's modules, at least

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_in_process_main_keeps_the_callers_gc_state(self, enabled, capsys):
        """The policy lives in ``repro/__main__.py``, not in ``main()``: a
        caller's collection setting and freeze count survive an analysis
        and a batch that forks a shard worker."""
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            assert main(["analyze", "quickstart", "--json"]) == 0
            assert main(["corpus-analyze", "--apps", "quickstart", "--out", ""]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()
