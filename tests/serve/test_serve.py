"""End-to-end and unit tests of the ``repro serve`` daemon.

One module-scoped daemon (ephemeral port, forked workers, shared
substrate cache) carries the e2e tests; the job-store unit tests open
their own ledger files.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.core import SierraOptions
from repro.serve import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobStore,
    ServeClient,
    ServeDaemon,
    ServeError,
    merge_job_options,
)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    cache = root / "cache"
    cache.mkdir()
    options = SierraOptions(cache_dir=str(cache))
    with ServeDaemon(
        str(root / "runs.sqlite"), options=options, workers=2, port=0
    ) as running:
        yield running


@pytest.fixture(scope="module")
def client(daemon):
    return ServeClient(daemon.url)


# ----------------------------------------------------------------------
# e2e: submit -> poll -> fetch
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_submit_poll_fetch_roundtrip(client):
    job = client.submit("quickstart")
    assert job["status"] == QUEUED
    assert job["poll"] == f"/v1/jobs/{job['job_id']}"

    final = client.wait(str(job["job_id"]), timeout_s=90)
    assert final["status"] == DONE
    assert final["run_id"]
    assert final["elapsed_s"] > 0

    done = client.jobs(status=DONE)
    assert job["job_id"] in [j["job_id"] for j in done]
    assert {j["status"] for j in done} == {DONE}

    report = client.report(str(final["run_id"]))
    assert report["kind"] == "serve"
    assert report["meta"]["job_id"] == job["job_id"]
    assert set(report["apps"]) == {"quickstart"}
    # quickstart is the paper's Fig. 1 app: its one true race must survive
    assert any(r["field"] for r in report["races"])


@pytest.mark.serve_smoke
def test_health_and_metrics(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert set(health["jobs"]) == {QUEUED, RUNNING, DONE, FAILED}
    scraped = client.metrics()
    assert "serve.requests_total" in scraped
    assert "serve.request_seconds" in scraped


def test_submit_unknown_app_is_400(client):
    with pytest.raises(ServeError) as err:
        client.submit("nonesuch")
    assert err.value.status == 400


def test_submit_unknown_option_is_400(client):
    with pytest.raises(ServeError) as err:
        client.submit("quickstart", {"frobnicate": 1})
    assert err.value.status == 400
    assert "frobnicate" in str(err.value)


def test_unknown_job_is_404(client):
    with pytest.raises(ServeError) as err:
        client.job("jNOPE")
    assert err.value.status == 404


def test_unknown_route_is_404(client):
    for path in ("/v2/everything", "/dashboard"):
        with pytest.raises(ServeError) as err:
            client._request("GET", path)
        assert err.value.status == 404, path


# ----------------------------------------------------------------------
# concurrency: N submissions -> N distinct ledger runs
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_concurrent_submissions_distinct_runs(daemon, client):
    n = 6
    finals = [None] * n
    errors = []

    def one(i):
        try:
            job = client.submit("quickstart")
            finals[i] = client.wait(str(job["job_id"]), timeout_s=120)
        except Exception as exc:  # noqa: BLE001 — collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(180)
    assert not errors
    assert all(f is not None and f["status"] == DONE for f in finals)
    run_ids = {f["run_id"] for f in finals}
    assert len(run_ids) == n  # one ledger run per job, never shared
    report = client.report(sorted(run_ids)[0])
    assert set(report["apps"]) == {"quickstart"}


# ----------------------------------------------------------------------
# fault isolation: a crashing worker fails the job, never hangs the client
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_worker_crash_fails_job_not_client(client):
    job = client.submit("quickstart", {"inject_fail": True})
    final = client.wait(str(job["job_id"]), timeout_s=90)
    assert final["status"] == FAILED
    assert final["error"]["type"] == "RuntimeError"
    assert "injected failure" in final["error"]["message"]
    # and the daemon survives: the next job runs fine
    ok = client.wait(str(client.submit("quickstart")["job_id"]), timeout_s=90)
    assert ok["status"] == DONE


def test_wait_timeout_raises_not_hangs(client):
    job = client.submit("quickstart", {"inject_hang": True})
    with pytest.raises(ServeError, match="still"):
        client.wait(str(job["job_id"]), timeout_s=0.5)


# ----------------------------------------------------------------------
# warm starts through the shared substrate cache
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_second_submission_warm_starts(client):
    first = client.wait(str(client.submit("newsreader")["job_id"]), timeout_s=120)
    second = client.wait(str(client.submit("newsreader")["job_id"]), timeout_s=120)
    assert first["status"] == DONE and second["status"] == DONE

    def worklist(final):
        metrics = client.report(str(final["run_id"]))["apps"]["newsreader"][
            "metrics"
        ]
        entry = metrics.get("pointsto.worklist_iterations")
        return int(entry["value"]) if entry else 0

    assert worklist(first) > 0  # the cold run actually solved points-to
    assert worklist(second) == 0  # the warm run replayed the cached substrate


@pytest.mark.serve_smoke
def test_job_parallelism_is_capped_by_the_core_budget(client):
    """Two workers at --parallelism 64 would fork 128 refutation
    processes: each job runs at its share of the cores, and its ledger
    run records the value it ran with."""
    from repro.corpus.scheduler import core_budget

    def ran_with(options):
        final = client.wait(str(client.submit("quickstart", options)["job_id"]),
                            timeout_s=90)
        assert final["status"] == DONE
        return client.report(str(final["run_id"]))["options"]["parallelism"]

    assert ran_with({"parallelism": 64}) == core_budget(2, 64)
    assert ran_with({}) == 1


def test_without_fork_the_daemon_refuses_before_opening_files(
    tmp_path, no_fork, capsys
):
    """No other way to run a job enforces its timeout: ``serve`` exits 2
    with one line, and the daemon opens neither the job store nor the
    ledger."""
    from repro.cli import main

    history = str(tmp_path / "runs.sqlite")
    with pytest.raises(ValueError, match="no 'fork' start method"):
        ServeDaemon(history, workers=1, port=0)
    assert main(["serve", "--history", history, "--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("serve: ") and "'fork'" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "bad",
    [
        {"slo": {"nope": 1.0}},
        {"sample_interval_s": 0},
        {"sample_capacity": 1},
        {"workers": 0},
    ],
    ids=["slo", "sample_interval", "sample_capacity", "workers"],
)
def test_a_refused_daemon_opens_no_file(tmp_path, bad):
    """Every refusal comes before the job store and the ledger open: no
    ledger file, WAL or shared-memory file is left behind."""
    with pytest.raises(ValueError):
        ServeDaemon(str(tmp_path / "runs.sqlite"), **{"port": 0, **bad})
    assert list(tmp_path.iterdir()) == []


def test_serve_with_an_unknown_slo_exits_2_and_opens_no_file(tmp_path, capsys):
    from repro.cli import main

    history = str(tmp_path / "runs.sqlite")
    args = ["serve", "--history", history, "--slo", "nope=1", "--port", "0"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("serve: unknown SLO objective 'nope'")
    assert list(tmp_path.iterdir()) == []


def test_a_daemon_that_cannot_bind_requeues_no_job(tmp_path):
    """A second daemon on a busy port must leave the first one's running
    job alone: requeued, it would be analyzed twice. The failed start
    closes both of its connections."""
    history = str(tmp_path / "runs.sqlite")
    with JobStore(history) as store:
        job = store.submit("quickstart")
        assert store.claim("w0").job_id == job.job_id
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        daemon = ServeDaemon(history, workers=1, port=held.getsockname()[1])
        with pytest.raises(OSError):
            daemon.start()
    assert daemon.recovered_jobs == 0
    with JobStore(history) as store:
        assert store.get(job.job_id).status == RUNNING
    for conn in (daemon.store._db, daemon.ledger._db):
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")


def test_daemon_recovers_orphaned_jobs(tmp_path):
    history = tmp_path / "runs.sqlite"
    with JobStore(str(history)) as store:
        job = store.submit("quickstart")
        assert store.claim("w0").job_id == job.job_id  # left RUNNING: a "crash"
    with ServeDaemon(str(history), workers=1, port=0) as daemon:
        assert daemon.recovered_jobs == 1
        final = ServeClient(daemon.url).wait(job.job_id, timeout_s=120)
        assert final["status"] == DONE


@pytest.mark.serve_smoke
def test_job_child_hard_crash_fails_the_job_as_worker_died(tmp_path, monkeypatch):
    from repro.corpus import driver

    with ServeDaemon(str(tmp_path / "runs.sqlite"), workers=1, port=0) as running:
        client = ServeClient(running.url)
        # the job's fork inherits the patch: its child exits without a result
        monkeypatch.setattr(driver, "_execute_app", lambda *args: os._exit(23))
        crashed = client.wait(str(client.submit("quickstart")["job_id"]), timeout_s=90)
        monkeypatch.undo()
        ok = client.wait(str(client.submit("quickstart")["job_id"]), timeout_s=90)
    assert crashed["status"] == FAILED
    assert crashed["error"]["type"] == "WorkerDied"
    assert ok["status"] == DONE


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _fresh_env():
    """Environment for a fresh interpreter running this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("REPRO_HISTORY", "REPRO_CACHE"):
        env.pop(var, None)
    return env


#: starts a one-worker daemon, waits until an inject_hang job's child is
#: running, stops the daemon, and reports what stop() left behind
_STOP_WITH_A_HUNG_JOB = """
import json, multiprocessing, sys, time
from repro.serve import RUNNING, ServeClient, ServeDaemon

daemon = ServeDaemon(sys.argv[1], workers=1, port=0)
daemon.start()
client = ServeClient(daemon.url)
job_id = str(client.submit("quickstart", {"inject_hang": True})["job_id"])
give_up = time.monotonic() + 60
while not (
    client.job(job_id)["status"] == RUNNING and multiprocessing.active_children()
):
    assert time.monotonic() < give_up, "the hung job never started"
    time.sleep(0.05)
t0 = time.perf_counter()
daemon.stop()
print(json.dumps({
    "job_id": job_id,
    "stop_s": time.perf_counter() - t0,
    "children": len(multiprocessing.active_children()),
}))
"""


@pytest.mark.serve_smoke
def test_stop_cancels_a_hung_job_and_the_process_exits(tmp_path):
    """stop() cancels the job child instead of waiting out its 120 s
    deadline, and leaves nothing for the interpreter to wait on at exit.
    The job stays running, so the next start requeues it. Runs in a fresh
    interpreter: its exit is part of what is checked."""
    history = str(tmp_path / "runs.sqlite")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_STOP_WITH_A_HUNG_JOB), history],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=30,  # far below the job's 120 s deadline
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["stop_s"] < 5.0
    assert out["children"] == 0
    with JobStore(history) as store:
        assert store.get(out["job_id"]).status == RUNNING
        assert store.recover() == 1


#: runs ``python -m repro serve`` through runpy on an ephemeral port,
#: noting whether automatic collection is on when the daemon starts, then
#: interrupts the serve loop as Ctrl-C would
_SERVE_GC_STATE = """
import gc, json, runpy, sys, types
import repro.cli as cli
from repro.serve import ServeDaemon

seen = {}
real_start = ServeDaemon.start

def start(self):
    seen["enabled"] = gc.isenabled()
    real_start(self)

def sleep(_seconds):
    raise KeyboardInterrupt

ServeDaemon.start = start
cli.time = types.SimpleNamespace(sleep=sleep)
sys.argv = ["repro", "serve", "--history", sys.argv[1], "--port", "0",
            "--workers", "1"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    seen["code"] = exc.code
print(json.dumps(seen))
"""


def test_serve_command_runs_its_daemon_with_collection_on(tmp_path):
    """``python -m repro`` turns automatic collection off for one-shot
    commands; the long-lived daemon turns it back on."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_SERVE_GC_STATE),
         str(tmp_path / "runs.sqlite")],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "enabled": True,
        "code": 0,
    }


def test_jobs_fork_with_daemon_sqlite_quiesced(tmp_path, monkeypatch):
    """sqlite's process-wide mutexes are copied into a forked child as they
    stand: a job forked while another daemon thread is inside a ledger or
    job-store call can hang on the child's first sqlite call. At the
    moment each job forks, no other thread may be able to enter either."""
    import os

    blocked = []
    real_fork = os.fork

    def probe():
        if not blocked:
            for conn in (running.store, running.ledger):
                def enter(conn=conn):
                    with conn.quiesced():
                        pass

                other = threading.Thread(target=enter, daemon=True)
                other.start()
                other.join(0.2)
                blocked.append(other.is_alive())
        return real_fork()

    with ServeDaemon(str(tmp_path / "runs.sqlite"), workers=1, port=0) as running:
        monkeypatch.setattr(os, "fork", probe)
        job = ServeClient(running.url).submit("quickstart")
        final = ServeClient(running.url).wait(str(job["job_id"]), timeout_s=120)
    assert final["status"] == DONE
    assert blocked == [True, True]


# ----------------------------------------------------------------------
# job store unit tests
# ----------------------------------------------------------------------
def test_job_store_lifecycle(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        job = store.submit("quickstart", {"k": 3})
        assert job.status == QUEUED and not job.terminal
        assert store.counts()[QUEUED] == 1

        claimed = store.claim("w0")
        assert claimed.job_id == job.job_id
        assert claimed.status == RUNNING and claimed.worker == "w0"
        assert store.claim("w1") is None  # exactly one claimer wins

        store.finish(job.job_id, DONE, run_id="r1", elapsed_s=1.5)
        final = store.get(job.job_id)
        assert final.terminal and final.run_id == "r1"
        assert final.options == {"k": 3}
        assert store.counts() == {QUEUED: 0, RUNNING: 0, DONE: 1, FAILED: 0}


def test_job_store_claim_is_fifo(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        first = store.submit("quickstart")
        store.submit("newsreader")
        assert store.claim("w").job_id == first.job_id


def test_job_store_finish_rejects_non_terminal(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        job = store.submit("quickstart")
        with pytest.raises(ValueError):
            store.finish(job.job_id, RUNNING)


def test_job_store_concurrent_claims_unique(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        for _ in range(8):
            store.submit("quickstart")
        claimed, errors = [], []

        def worker(name):
            try:
                while True:
                    job = store.claim(name)
                    if job is None:
                        return
                    claimed.append(job.job_id)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(claimed) == 8
        assert len(set(claimed)) == 8  # no job claimed twice


# ----------------------------------------------------------------------
# option merging
# ----------------------------------------------------------------------
def test_merge_job_options_overlays_and_rejects():
    base = SierraOptions(cache_dir="/srv/cache")
    merged = merge_job_options(base, {"selector": "kcfa", "k": 3})
    assert merged["selector"] == "kcfa" and merged["k"] == 3
    assert merged["cache_dir"] == "/srv/cache"  # server-owned, not a job knob
    with pytest.raises(ValueError, match="cache_dir"):
        merge_job_options(base, {"cache_dir": "/etc"})
    with pytest.raises(ValueError, match="nope"):
        merge_job_options(base, {"nope": 1})
    # inject_* flags pass validation but never leak into analysis options
    merged = merge_job_options(base, {"inject_fail": True})
    assert "inject_fail" not in merged
