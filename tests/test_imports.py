"""What each entry point imports.

``repro analyze`` loads only the analysis engine: the ledger, telemetry,
corpus batch driver, serve daemon, substrate store and the process-pool
machinery stay unimported until a command needs them; with
``--cache`` it loads the substrate store, and still not ``sqlite3``. Every
public name still resolves, through the packages' module-level
``__getattr__``. Processes that fork analysis children import, before
their first fork, the modules those children would import on demand.

Each check runs in a fresh interpreter: this test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: never imported by a plain ``repro analyze`` (no --history/--cache/--trace)
NOT_FOR_ANALYZE = (
    "repro.obs.diffing",
    "repro.obs.history",
    "repro.obs.telemetry",
    "repro.obs.tracing",
    "repro.corpus.driver",
    "repro.corpus.scheduler",
    "repro.corpus.families",
    "repro.serve",
    "repro.cache.store",
    "repro.cache.substrate",
    "repro.cache.memo",
    "sqlite3",
    "multiprocessing",
    "concurrent.futures",
)

PACKAGES = ("repro", "repro.obs", "repro.core", "repro.corpus", "repro.cache")


def _run(script: str, *args: str, timeout: float = 120) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("REPRO_HISTORY", "REPRO_CACHE"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: runs ``repro analyze quickstart --json`` plus the flags in argv[1:]
_ANALYZE = """
    import io, json, runpy, sys
    from contextlib import redirect_stdout

    sys.argv = ["repro", "analyze", "quickstart", "--json", *sys.argv[1:]]
    report = io.StringIO()
    with redirect_stdout(report):
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps({
        "code": code,
        "races": len(json.loads(report.getvalue())["reports"]),
        "modules": sorted(sys.modules),
    }))
    """


def test_analyze_imports_only_the_engine():
    out = _run(_ANALYZE)
    assert out["code"] == 0
    assert out["races"] >= 1
    loaded = set(out["modules"])
    assert [m for m in NOT_FOR_ANALYZE if m in loaded] == []
    assert "repro.core.detector" in loaded


def test_cached_analyze_makes_no_sqlite_call(tmp_path):
    """The substrate cache keeps its state in plain files: a cached run
    never loads sqlite3, so a forked analysis child cannot hang on an
    sqlite mutex it inherited."""
    cache = tmp_path / "cache"
    out = _run(_ANALYZE, "--cache", str(cache))
    assert out["code"] == 0
    assert "repro.cache.store" in out["modules"]
    assert "sqlite3" not in out["modules"]
    assert sorted(os.listdir(cache)) == ["objects", "stats.jsonl"]


def test_every_public_name_still_resolves():
    out = _run(
        """
        import importlib, json, sys

        failures = []
        for package in sys.argv[1:]:
            module = importlib.import_module(package)
            for name in module.__all__:
                try:
                    via_getattr = getattr(module, name)
                    scope = {}
                    exec(f"from {package} import {name}", scope)
                    if scope[name] is not via_getattr:
                        failures.append(f"{package}.{name}: two different objects")
                except Exception as exc:
                    failures.append(f"{package}.{name}: {exc!r}")
        print(json.dumps({"failures": failures}))
        """,
        *PACKAGES,
    )
    assert out["failures"] == []


def test_unknown_names_still_raise_attribute_error():
    import importlib

    for package in PACKAGES:
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(package), "no_such_name")


#: the modules a forked analysis child imports on demand
FORK_PRELOADED = (
    "repro.cli",
    "repro.obs.history",
    "repro.cache.store",
    "repro.cache.substrate",
    "repro.cache.memo",
)

#: records, at the first os.fork() of the process, which of the modules
#: named in argv[1:] were not imported yet
_FORK_PROBE = """
import json, os, sys

_probe = {}
_real_fork = os.fork


def _fork():
    if not _probe:
        _probe["missing"] = [m for m in sys.argv[1:] if m not in sys.modules]
    return _real_fork()


os.fork = _fork
"""


@pytest.mark.parametrize("path", ["shard_pool", "serve"])
def test_forking_parents_preload_before_the_first_fork(path, tmp_path):
    drive = {
        "shard_pool": """
            from repro.corpus.driver import run_corpus

            run = run_corpus(["quickstart", "dbapp"], shards=2)
            status = ",".join(r.status for r in run.records)
            """,
        "serve": """
            from repro.serve import ServeClient, ServeDaemon

            with ServeDaemon(TMP + "/runs.sqlite", workers=1, port=0) as daemon:
                client = ServeClient(daemon.url)
                job = client.submit("quickstart")
                status = client.wait(str(job["job_id"]), timeout_s=90)["status"]
            """,
    }[path]
    script = (
        _FORK_PROBE
        + f"TMP = {str(tmp_path)!r}\n"
        + textwrap.dedent(drive)
        + 'print(json.dumps({"probe": _probe, "status": status}))\n'
    )
    out = _run(script, *FORK_PRELOADED, timeout=180)
    assert out["probe"], "the path never forked"
    assert out["probe"]["missing"] == []
    assert set(out["status"].split(",")) <= {"ok", "done"}
