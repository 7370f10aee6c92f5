"""CLI: app resolution, command output, option plumbing."""

import pytest

from repro.cli import load_app, main


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
        import os
        import subprocess
        import sys
        import textwrap

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


class TestJsonOutput:
    def test_json_roundtrip(self, capsys):
        import json

        assert main(["analyze", "opensudoku", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["app"] == "opensudoku-timer"
        assert data["races_after_refutation"] == len(data["reports"])
        assert all("field" in r and "rank" in r for r in data["reports"])
        assert data["timings_seconds"]["total"] >= 0
