"""The corpus driver's execution engine, and the one place per-app
analysis children are forked.

A :class:`Worker` is the parent-side handle on one forked analysis child.
It forks when it has none, sends one task at a time, drains the obs
events the child streams back, and turns every way a task can end into
an :class:`~repro.corpus.driver.AppRunRecord`: the child's payload, a
``timeout`` naming the stage the child was stuck in, or an
``error``/``WorkerDied`` when the child exits without a result. Another
thread may cancel it (SIGTERM, then SIGKILL after a grace). The serve
daemon runs each job on a fresh one-task ``Worker``; :func:`run_sharded`
runs a corpus batch on a persistent pool of ``shards`` of them, fed by
the parent from one queue:

* **Largest first:** apps are sorted once by predicted cost
  (:func:`~repro.corpus.families.estimate_cost`, the same static estimate
  the ``--progress`` ETA reads), largest first, ties in input order. Each
  shard that finishes an app takes the queue's head, so the expensive
  tail starts early instead of straggling at the end, and no shard idles
  while work is queued.
* **Streaming:** workers ship obs events live through their pipe
  (:class:`_PipeStreamer`; the record keeps that one copy) and results
  as they complete; the parent flushes finished apps to the ledger in
  completion order, so an operator tailing the ledger sees progress,
  not a final dump.
* **Isolation:** per-app wall-clock deadlines are enforced by the parent
  (a stuck worker is killed, the app recorded as ``timeout`` with the
  partial event trail naming the stuck stage, and the shard re-forked
  for its next app); a crashed worker yields a ``WorkerDied`` error
  record and a fresh process. ``--inject-fail`` / ``--inject-hang`` ride
  through unchanged.

The pool also fixes nested-parallelism oversubscription: with ``P`` shards
each running refutation at ``SierraOptions.parallelism R``, ``P*R``
processes can exceed the machine. :func:`core_budget` divides the cores
across shards (inner parallelism ``max(1, cores // shards)``), and the
driver rewrites the options it hands workers accordingly.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import logging
import os
import signal
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.corpus.driver import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    AppRunRecord,
    _record_kwargs,
)
from repro.obs import log as obs_log

_log = obs_log.get_logger("corpus.scheduler")

#: seconds a terminated worker gets before escalating to SIGKILL
_KILL_GRACE_S = 5.0

#: what an analysis child (``_execute_app``) imports on demand
_FORK_PRELOAD = (
    "repro.cli",
    "repro.obs.history",
    "repro.cache.store",
    "repro.cache.substrate",
    "repro.cache.memo",
)


def available_cores() -> int:
    """Cores this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def core_budget(shards: int, requested: int = 1, cores: Optional[int] = None) -> int:
    """Inner (per-shard) parallelism that keeps ``shards`` workers from
    oversubscribing the machine: ``min(requested, max(1, cores // shards))``.

    ``requested`` is the user's ``SierraOptions.parallelism``; the budget
    never raises it, only caps it.
    """
    cores = available_cores() if cores is None else max(1, int(cores))
    shards = max(1, int(shards))
    requested = max(1, int(requested))
    return max(1, min(requested, cores // shards)) if cores // shards else 1


# ----------------------------------------------------------------------
# work items
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """One app to analyze, with its predicted cost and fault injections."""

    index: int  # position in the caller's app list (result ordering)
    name: str
    cost: float = 1.0
    inject_fail: bool = False
    inject_hang_s: float = 0.0
    inject_cache_corrupt: bool = False
    #: internal testing aid: the worker hard-exits before analyzing —
    #: exercises the WorkerDied/respawn path without a real crash
    inject_crash: bool = False


# ----------------------------------------------------------------------
# progress line
# ----------------------------------------------------------------------
class ProgressLine:
    """A single ``\\r``-rewritten stderr line: done/total, apps/sec, ETA,
    and the apps currently in flight."""

    def __init__(self, total: int, total_cost: float, stream=None) -> None:
        self.total = total
        self.total_cost = max(total_cost, 1e-9)
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.done_cost = 0.0
        self.running: Dict[int, str] = {}  # shard -> app name
        self._t0 = time.perf_counter()
        self._last_len = 0

    def start(self, shard: int, name: str) -> None:
        self.running[shard] = name
        self.render()

    def finish(self, shard: int, name: str, cost: float) -> None:
        self.running.pop(shard, None)
        self.done += 1
        self.done_cost += cost
        self.render()

    def _eta_s(self, elapsed: float) -> Optional[float]:
        if self.done_cost <= 0 or elapsed <= 0:
            return None
        rate = self.done_cost / elapsed
        return (self.total_cost - self.done_cost) / rate if rate > 0 else None

    def render(self) -> None:
        elapsed = time.perf_counter() - self._t0
        apps_per_s = self.done / elapsed if elapsed > 0 else 0.0
        eta = self._eta_s(elapsed)
        eta_part = f" eta {eta:.0f}s" if eta is not None else ""
        names = ", ".join(self.running[s] for s in sorted(self.running))
        if len(names) > 60:
            names = names[:57] + "..."
        line = (
            f"[{self.done}/{self.total}] {apps_per_s:.2f} apps/s{eta_part}"
            + (f" running: {names}" if names else "")
        )
        pad = max(0, self._last_len - len(line))
        self._last_len = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def close(self) -> None:
        if self._last_len:
            self.stream.write("\n")
            self.stream.flush()


# ----------------------------------------------------------------------
# the forked worker: its child loop and the parent-side handle
# ----------------------------------------------------------------------
def preload_for_fork() -> None:
    """Import, before a fork, what analysis children would import on
    demand. :meth:`Worker.start` calls this before every fork, and the
    serve daemon before its threads start: the children inherit the
    modules instead of each importing them again, and none can inherit a
    module import lock that another thread of the parent held at
    ``fork()``."""
    for name in _FORK_PRELOAD:
        importlib.import_module(name)


class _PipeStreamer:
    """An obs hook that streams events through the worker's pipe as they
    happen, so a worker killed on timeout still leaves its partial event
    trail in RUN_report.json (showing *where* it was stuck).

    Pid-guarded: the refutation pool's grandchildren inherit the hook
    across ``fork`` but must never write — ``Connection.send`` is not safe
    for concurrent writers. Their spans come back through the chunk
    results and are re-emitted in this process, where the guard passes.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.pid = os.getpid()

    def __call__(self, event: obs.RunEvent) -> None:
        if os.getpid() != self.pid:
            return
        try:
            self.conn.send(("event", event.to_dict()))
        except (BrokenPipeError, OSError):
            pass  # parent gone; the worker is about to die anyway


def _stuck_stage(events: List[Dict[str, object]]) -> Optional[str]:
    """The innermost stage/span still open at the end of a partial event
    stream — where a timed-out worker was when it was killed."""
    stack: List[str] = []
    for event in events:
        kind = event.get("kind")
        if kind in (obs.STAGE_START, obs.SPAN_START):
            stack.append(str(event.get("stage")))
        elif kind in (obs.STAGE_END, obs.SPAN_END) and stack:
            stack.pop()
    return stack[-1] if stack else None


def _worker_loop(conn) -> None:
    """The forked child: recv task → analyze → send result, until told to
    stop. Events stream live through the same (duplex) pipe; every
    exception becomes an error payload — the process only dies on a
    genuine crash, which the parent sees as EOF."""
    # imported here, after the fork: a test's patch of _execute_app reaches
    # the child
    from repro.corpus.driver import _error_payload, _execute_app

    # a terminal's Ctrl-C reaches the whole process group: the task's fate
    # is the parent's call (a cancel, or the kill when it shuts down)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    streamer = _PipeStreamer(conn)
    obs.add_hook(streamer)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] != "task":
                break  # ("stop",): exit cleanly
            task = message[1]
            if task["inject_crash"]:
                os._exit(23)
            try:
                payload = _execute_app(
                    task["name"],
                    task["options"],
                    task["inject_fail"],
                    task["inject_hang_s"],
                    task["inject_cache_corrupt"],
                )
            except BaseException as exc:  # noqa: BLE001 — isolation boundary
                payload = _error_payload(exc)
            try:
                conn.send(("result", payload))
            except (BrokenPipeError, OSError):
                break  # parent gone
    finally:
        obs.remove_hook(streamer)
        conn.close()


def _escalate(proc, terminate: bool) -> None:
    """Give ``proc`` the grace to exit (after a SIGTERM when ``terminate``),
    then SIGKILL it. Waits on the sentinel rather than reaping, so another
    thread may call it while the handle's owner is waiting on the child."""
    if terminate:
        proc.terminate()
    if not _conn_wait([proc.sentinel], _KILL_GRACE_S):
        proc.kill()


class Worker:
    """Parent-side handle on one forked analysis child.

    The child (:func:`_worker_loop`) is forked on the first :meth:`send`,
    and again after a kill or a death. Every task ends in exactly one
    :class:`~repro.corpus.driver.AppRunRecord`: :meth:`drain` returns the
    child's payload, or a ``WorkerDied`` error when the child exits
    without one; :meth:`expire` kills a child past its deadline and
    returns the ``timeout`` record naming the stuck stage.

    ``fork_guard``, when given, returns a context manager held across the
    fork itself: a caller whose other threads make sqlite calls uses it
    to keep them out of sqlite at that moment (see the serve
    ``WorkerPool``).
    """

    def __init__(self, mp_context, index: int = 0, fork_guard=None) -> None:
        self.mp_context = mp_context
        self.index = index  # the shard number, for logs and --progress
        self.fork_guard = fork_guard
        self.proc = None
        self.conn = None
        self.current: Optional[WorkItem] = None
        self.timeout_s = 0.0
        self.started = 0.0
        self.deadline = 0.0
        self.events: List[Dict[str, object]] = []
        #: set by :meth:`cancel`: the child died because it was told to
        self.cancelled = False

    def start(self) -> None:
        """Fork the child: the one place per-app analysis children fork."""
        preload_for_fork()
        parent_conn, child_conn = self.mp_context.Pipe(duplex=True)
        # NOT daemonic: a daemonic child could not fork the refutation
        # pool, which would silently cost every isolated app its
        # --parallelism. Cleanup is explicit instead: every path that
        # drops the child reaps it (_release).
        proc = self.mp_context.Process(target=_worker_loop, args=(child_conn,))
        with self.fork_guard() if self.fork_guard else contextlib.nullcontext():
            proc.start()
        child_conn.close()  # the parent's copy: the pipe must EOF when the child dies
        self.proc, self.conn = proc, parent_conn

    def send(
        self, item: WorkItem, options_dict: Dict[str, object], timeout_s: float
    ) -> None:
        """Start ``item`` on the child (forking one first if there is none)."""
        if self.proc is None:
            self.start()
        self.current = item
        self.events = []
        self.timeout_s = timeout_s
        self.started = time.perf_counter()
        self.deadline = self.started + timeout_s
        self.conn.send(
            (
                "task",
                {
                    "name": item.name,
                    "options": options_dict,
                    "inject_fail": item.inject_fail,
                    "inject_hang_s": item.inject_hang_s,
                    "inject_cache_corrupt": item.inject_cache_corrupt,
                    "inject_crash": item.inject_crash,
                },
            )
        )

    def drain(self) -> Optional[AppRunRecord]:
        """Read what the child has sent so far, without blocking; the
        task's record once it has ended, else ``None``."""
        while True:
            try:
                if not self.conn.poll(0):
                    return None
                kind, body = self.conn.recv()
            except (EOFError, OSError):
                code = self._release(terminate=False)
                return self._failed(
                    STATUS_ERROR,
                    "WorkerDied",
                    f"analysis worker exited with code {code} before "
                    "reporting a result",
                )
            if kind == "event":
                self.events.append(body)
                continue
            return self._finish(
                AppRunRecord(
                    app=self.current.name, events=self.events, **_record_kwargs(body)
                )
            )

    def expire(self) -> AppRunRecord:
        """Kill the child (past its deadline): the ``timeout`` record."""
        self._release(terminate=True)
        stuck = _stuck_stage(self.events)
        return self._failed(
            STATUS_TIMEOUT,
            "Timeout",
            f"exceeded the {self.timeout_s:g}s per-app wall-clock budget"
            + (f" (stuck in stage {stuck!r})" if stuck else ""),
            **({"stuck_stage": stuck} if stuck else {}),
        )

    def run(
        self, item: WorkItem, options_dict: Dict[str, object], timeout_s: float
    ) -> AppRunRecord:
        """One task, blocking: its record once the child answers, dies or
        passes the deadline. The child is stopped afterwards."""
        self.send(item, options_dict, timeout_s)
        try:
            while True:
                remaining = self.deadline - time.perf_counter()
                if remaining <= 0 or not self.conn.poll(remaining):
                    return self.expire()
                record = self.drain()
                if record is not None:
                    return record
        finally:
            self.close()

    def close(self) -> None:
        """Stop the child, if any: by message when idle, by signal mid-task."""
        if self.proc is None:
            return
        busy = self.current is not None
        if not busy:
            try:
                self.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._release(terminate=busy)

    def cancel(self) -> None:
        """Stop the child from another thread: SIGTERM, then SIGKILL after
        the grace. The thread driving the handle sees the child die, reaps
        it, and reads :attr:`cancelled` to tell why."""
        self.cancelled = True
        proc = self.proc
        if proc is not None:
            _escalate(proc, terminate=True)

    def _release(self, terminate: bool) -> Optional[int]:
        """Reap the child and drop it (the next :meth:`send` forks a fresh
        one); returns its exit code."""
        _escalate(self.proc, terminate)
        self.proc.join()
        self.conn.close()
        code = self.proc.exitcode
        self.proc = self.conn = None
        return code

    def _failed(
        self, status: str, error_type: str, message: str, **extra: str
    ) -> AppRunRecord:
        """The record of a task that ended without the child's payload."""
        error = {"type": error_type, "message": message, "traceback": "", **extra}
        return self._finish(
            AppRunRecord(
                app=self.current.name, status=status, events=self.events, error=error
            )
        )

    def _finish(self, record: AppRunRecord) -> AppRunRecord:
        record.elapsed_s = time.perf_counter() - self.started
        record.isolated = True
        self.current = None
        return record


# ----------------------------------------------------------------------
# the sharded pool
# ----------------------------------------------------------------------
def run_sharded(
    mp_context,
    items: Sequence[WorkItem],
    options_dict: Dict[str, object],
    shards: int,
    timeout_s: float,
    on_batch: Optional[Callable[[List[AppRunRecord]], None]] = None,
    progress: Optional[ProgressLine] = None,
) -> List[AppRunRecord]:
    """Run ``items`` through a pool of ``shards`` workers; return their
    :class:`~repro.corpus.driver.AppRunRecord` list **in input order**.

    ``on_batch`` receives every burst of newly finished records (completion
    order) as it happens — the driver points this at the ledger. Faults
    follow the :class:`Worker` contract: analysis exceptions come back as
    ``error`` payloads, a killed deadline becomes ``timeout`` with the
    streamed partial events, a dead worker becomes a ``WorkerDied`` error;
    the shard re-forks for its next item.
    """
    shards = max(1, min(int(shards), max(1, len(items))))
    queue = collections.deque(sorted(items, key=lambda it: (-it.cost, it.index)))
    total = len(items)
    records: Dict[int, AppRunRecord] = {}  # input index -> record

    pool = [Worker(mp_context, index=i) for i in range(shards)]

    def dispatch(worker: Worker) -> None:
        """Hand the worker the queue's head, or stop it when the queue is
        empty."""
        if not queue:
            worker.close()
            return
        item = queue.popleft()
        worker.send(item, options_dict, timeout_s)
        obs_log.event(
            _log, "app.start", app=item.name, shard=worker.index, cost=item.cost
        )
        if progress is not None:
            progress.start(worker.index, item.name)

    def settle(worker: Worker, item: WorkItem, record: AppRunRecord) -> None:
        """Account one finished item on ``worker`` and refill it."""
        records[item.index] = record
        obs_log.event(
            _log, "app.finish",
            level=logging.INFO if record.ok else logging.WARNING,
            app=item.name, shard=worker.index, status=record.status,
            elapsed_s=round(record.elapsed_s, 4),
            error_type=record.error.get("type") if record.error else None,
        )
        if progress is not None:
            progress.finish(worker.index, item.name, item.cost)
        finished.append(record)
        dispatch(worker)

    for worker in pool:
        dispatch(worker)

    try:
        while len(records) < total:
            busy = [w for w in pool if w.current is not None]
            if not busy:  # defensive: queue drained but records missing
                raise RuntimeError(
                    f"scheduler stalled: {len(records)}/{total} records"
                )
            finished: List[AppRunRecord] = []
            wait_s = max(0.0, min(w.deadline for w in busy) - time.perf_counter())
            ready = _conn_wait([w.conn for w in busy], timeout=wait_s)
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn[conn]
                item = worker.current
                record = worker.drain()
                if record is not None:
                    settle(worker, item, record)
            # deadline sweep: kill anything past its per-app budget
            now = time.perf_counter()
            for worker in pool:
                item = worker.current
                if item is not None and now >= worker.deadline:
                    settle(worker, item, worker.expire())
            if finished and on_batch is not None:
                on_batch(finished)
    finally:
        for worker in pool:
            worker.close()
        if progress is not None:
            progress.close()

    return [records[i] for i in sorted(records)]
