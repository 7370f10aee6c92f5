"""Sharded work-stealing scheduler: the corpus driver's execution engine.

The original driver forked one worker process *per app*, serially — corpus
throughput was bounded by a single analysis no matter how many cores the
machine had. This module replaces that loop with a persistent pool of
``shards`` worker processes fed by the parent from a size-aware plan:

* **Binpacking (LPT):** apps are ranked by predicted cost and assigned
  largest-first to the least-loaded shard, so the expensive tail starts
  early instead of straggling at the end. The driver prices each
  :class:`WorkItem` with :func:`~repro.corpus.families.estimate_cost`,
  blended with observed per-app wall time from the run-history ledger
  when one is attached (:class:`repro.corpus.specs.CalibratedCostModel`)
  — both the bin assignment and the ``--progress`` ETA consume the
  calibrated costs, and a cold ledger falls back to the static estimate.
* **Work stealing:** a shard that drains its own deque steals from the
  *tail* of the most-loaded remaining shard — the cheapest item of the
  busiest bin, the classic steal that keeps the plan's locality while
  fixing its estimation errors.
* **Streaming:** workers ship obs events live through their pipe (the
  driver's :class:`_PipeStreamer`) and results as they complete; the
  parent flushes finished apps to the ledger in completion order, so an
  operator tailing the ledger sees progress, not a final dump.
* **Isolation preserved:** per-app wall-clock deadlines are enforced by
  the parent (a stuck worker is killed, the app recorded as ``timeout``
  with the partial event trail naming the stuck stage, and the shard
  respawned); a crashed worker yields a ``WorkerDied`` error record and a
  fresh process. ``--inject-fail`` / ``--inject-hang`` ride through
  unchanged.

The pool also fixes nested-parallelism oversubscription: with ``P`` shards
each running refutation at ``SierraOptions.parallelism R``, ``P*R``
processes can exceed the machine. :func:`core_budget` divides the cores
across shards (inner parallelism ``max(1, cores // shards)``), and the
driver rewrites the options it hands workers accordingly.

Scheduling state (:class:`WorkPlan`) is pure and process-free, so the
binpacking and steal policy are unit-testable without forking anything.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import log as obs_log
from repro.obs import metrics

_log = obs_log.get_logger("corpus.scheduler")

#: obs-bus event kinds the scheduler emits (unknown to the trace collector,
#: visible to recorders and the log bridge)
EVENT_SHARD_START = "corpus.shard.start"
EVENT_SHARD_STEAL = "corpus.shard.steal"
EVENT_SHARD_FINISH = "corpus.shard.finish"

#: seconds a terminated worker gets before escalating to SIGKILL
_KILL_GRACE_S = 5.0


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
# the plan: pure scheduling state
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


class WorkPlan:
    """LPT binpacking + tail stealing over ``shards`` deques.

    Each shard owns one deque, sorted descending by cost; it consumes from
    the *head* (largest first). An idle shard steals from the *tail* of
    the most-loaded other shard (its cheapest remaining item). All state
    lives here, mutated only by the parent — no locks, no shared memory.
    """

    def __init__(self, items: Sequence[WorkItem], shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.bins: List[List[WorkItem]] = [[] for _ in range(shards)]
        self._loads = [0.0] * shards
        # LPT: largest first into the least-loaded bin. Ties break on the
        # original index so the plan is deterministic for equal costs.
        for item in sorted(items, key=lambda it: (-it.cost, it.index)):
            shard = min(range(shards), key=lambda s: (self._loads[s], s))
            self.bins[shard].append(item)
            self._loads[shard] += item.cost
        self.steals = 0

    def remaining(self) -> int:
        return sum(len(b) for b in self.bins)

    def remaining_cost(self) -> float:
        return sum(self._loads)

    def load_of(self, shard: int) -> float:
        return self._loads[shard]

    def take(self, shard: int) -> Optional[Tuple[WorkItem, Optional[int]]]:
        """Next item for ``shard``: its own head, else a steal.

        Returns ``(item, stolen_from)`` — ``stolen_from`` is ``None`` for
        local work, the victim shard index for a steal — or ``None`` when
        the whole plan is drained.
        """
        if self.bins[shard]:
            item = self.bins[shard].pop(0)
            self._loads[shard] -= item.cost
            return item, None
        victims = [s for s in range(self.shards) if self.bins[s]]
        if not victims:
            return None
        victim = max(victims, key=lambda s: (self._loads[s], -s))
        item = self.bins[victim].pop()  # tail: the victim's cheapest item
        self._loads[victim] -= item.cost
        self.steals += 1
        return item, victim


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
# the worker loop (runs in a forked process)
# ----------------------------------------------------------------------
def _shard_worker(conn, shard: int) -> None:
    """Persistent shard worker: recv task → analyze → send result, until
    told to stop. Events stream live through the same pipe (duplex);
    every exception becomes an error payload — the process only dies on a
    genuine crash (which the parent detects as EOF and respawns)."""
    from repro.corpus.driver import _error_payload, _execute_app, _PipeStreamer

    streamer = _PipeStreamer(conn)
    obs.add_hook(streamer)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if not (
                isinstance(message, tuple) and message and message[0] == "task"
            ):
                break  # ("stop",) or anything unexpected: exit cleanly
            task = message[1]
            if task.get("inject_crash"):
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


# ----------------------------------------------------------------------
# the parent-side pool
# ----------------------------------------------------------------------
@dataclass
class _Shard:
    """Parent-side state of one worker process."""

    index: int
    proc: object = None
    conn: object = None
    current: Optional[WorkItem] = None
    deadline: float = 0.0
    started: float = 0.0
    events: List[Dict[str, object]] = field(default_factory=list)
    stopped: bool = False


def run_sharded(
    mp_context,
    items: Sequence[WorkItem],
    options_dict: Dict[str, object],
    shards: int,
    timeout_s: float,
    on_batch: Optional[Callable[[List["AppRunRecord"]], None]] = None,
    progress: Optional[ProgressLine] = None,
):
    """Run ``items`` through a pool of ``shards`` workers; return their
    :class:`~repro.corpus.driver.AppRunRecord` list **in input order**.

    ``on_batch`` receives every burst of newly finished records (completion
    order) as it happens — the driver points this at the ledger. Faults
    follow the driver's contract: analysis exceptions come back as
    ``error`` payloads from the worker, a killed deadline becomes
    ``timeout`` with the streamed partial events, a dead worker becomes a
    ``WorkerDied`` error and the shard is respawned.
    """
    from repro.corpus.driver import (
        _TERMINATE_GRACE_S,
        STATUS_ERROR,
        STATUS_TIMEOUT,
        AppRunRecord,
        _record_kwargs,
        _stuck_stage,
        preload_for_fork,
    )

    shards = max(1, min(int(shards), max(1, len(items))))
    plan = WorkPlan(items, shards)
    total = len(items)
    records: Dict[int, AppRunRecord] = {}  # input index -> record
    queue_gauge = metrics.gauge("corpus.queue_depth", "undispatched corpus apps")
    busy_gauge = metrics.gauge("corpus.busy_workers", "shards running an app")
    steal_counter = metrics.counter("corpus.steals", "work-steal dispatches")
    app_seconds = metrics.histogram(
        "corpus.app_seconds", "per-app wall clock", buckets=metrics.TIME_BUCKETS
    )
    queue_gauge.set(plan.remaining())
    busy_gauge.set(0)

    pool: List[_Shard] = [_Shard(index=i) for i in range(shards)]
    preload_for_fork()

    def spawn(shard: _Shard) -> None:
        parent_conn, child_conn = mp_context.Pipe(duplex=True)
        # NOT daemonic — a daemonic shard could not fork the refutation
        # pool (same contract as the old per-app workers)
        shard.proc = mp_context.Process(
            target=_shard_worker, args=(child_conn, shard.index)
        )
        shard.proc.start()
        child_conn.close()
        shard.conn = parent_conn
        shard.current = None
        shard.events = []
        shard.stopped = False

    def kill(shard: _Shard) -> None:
        shard.proc.terminate()
        shard.proc.join(_TERMINATE_GRACE_S)
        if shard.proc.is_alive():
            shard.proc.kill()
            shard.proc.join()
        shard.conn.close()

    def dispatch(shard: _Shard) -> None:
        """Hand the shard its next item, or stop it when the plan is dry."""
        taken = plan.take(shard.index)
        if taken is None:
            try:
                shard.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            shard.stopped = True
            shard.current = None
            return
        item, stolen_from = taken
        if stolen_from is not None:
            steal_counter.inc()
            obs.emit(
                obs.RunEvent(
                    kind=EVENT_SHARD_STEAL,
                    stage=item.name,
                    detail={"shard": shard.index, "victim": stolen_from},
                )
            )
            obs_log.event(
                _log, "shard.steal", app=item.name,
                shard=shard.index, victim=stolen_from,
            )
        shard.current = item
        shard.events = []
        shard.started = time.perf_counter()
        shard.deadline = shard.started + timeout_s
        shard.conn.send(
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
        queue_gauge.set(plan.remaining())
        busy_gauge.set(sum(1 for s in pool if s.current is not None))
        obs.emit(
            obs.RunEvent(
                kind=EVENT_SHARD_START,
                stage=item.name,
                detail={"shard": shard.index, "cost": item.cost},
            )
        )
        obs_log.event(_log, "app.start", app=item.name, shard=shard.index)
        if progress is not None:
            progress.start(shard.index, item.name)

    def settle(shard: _Shard, record: "AppRunRecord") -> None:
        """Account one finished item on ``shard`` and refill it."""
        item = shard.current
        record.elapsed_s = time.perf_counter() - shard.started
        record.isolated = True
        records[item.index] = record
        app_seconds.observe(record.elapsed_s)
        obs.emit(
            obs.RunEvent(
                kind=EVENT_SHARD_FINISH,
                stage=item.name,
                seconds=record.elapsed_s,
                detail={"shard": shard.index, "status": record.status},
            )
        )
        obs_log.event(
            _log, "app.finish",
            level=logging.INFO if record.ok else logging.WARNING,
            app=item.name, shard=shard.index, status=record.status,
            elapsed_s=round(record.elapsed_s, 4),
            error_type=record.error.get("type") if record.error else None,
        )
        if progress is not None:
            progress.finish(shard.index, item.name, item.cost)
        shard.current = None
        finished.append(record)

    for shard in pool:
        spawn(shard)
        dispatch(shard)

    try:
        while len(records) < total:
            busy = [s for s in pool if s.current is not None]
            if not busy:  # defensive: plan drained but records missing
                raise RuntimeError(
                    f"scheduler stalled: {len(records)}/{total} records"
                )
            finished: List[AppRunRecord] = []
            now = time.perf_counter()
            wait_s = max(0.0, min(s.deadline for s in busy) - now)
            ready = _conn_wait([s.conn for s in busy], timeout=wait_s)
            by_conn = {s.conn: s for s in busy}
            for conn in ready:
                shard = by_conn[conn]
                died = False
                while shard.current is not None:
                    try:
                        if not conn.poll(0):
                            break
                        message = conn.recv()
                    except (EOFError, OSError):
                        died = True
                        break
                    if (
                        isinstance(message, tuple)
                        and len(message) == 2
                        and message[0] == "event"
                    ):
                        shard.events.append(message[1])
                        continue
                    payload = (
                        message[1]
                        if isinstance(message, tuple)
                        and len(message) == 2
                        and message[0] == "result"
                        else message
                    )
                    record = AppRunRecord(
                        app=shard.current.name, **_record_kwargs(payload)
                    )
                    if not record.events:
                        record.events = shard.events
                    settle(shard, record)
                    dispatch(shard)
                if died and shard.current is not None:
                    item = shard.current
                    shard.proc.join(_TERMINATE_GRACE_S)
                    record = AppRunRecord(
                        app=item.name,
                        status=STATUS_ERROR,
                        events=shard.events,
                        error={
                            "type": "WorkerDied",
                            "message": (
                                f"shard {shard.index} worker exited with code "
                                f"{shard.proc.exitcode} before reporting a result"
                            ),
                            "traceback": "",
                        },
                    )
                    settle(shard, record)
                    shard.conn.close()
                    spawn(shard)
                    dispatch(shard)
            # deadline sweep: kill anything past its per-app budget
            now = time.perf_counter()
            for shard in pool:
                if shard.current is None or now < shard.deadline:
                    continue
                item = shard.current
                kill(shard)
                stuck = _stuck_stage(shard.events)
                error = {
                    "type": "Timeout",
                    "message": (
                        f"exceeded the {timeout_s:g}s per-app wall-clock budget"
                        + (f" (stuck in stage {stuck!r})" if stuck else "")
                    ),
                    "traceback": "",
                }
                if stuck:
                    error["stuck_stage"] = stuck
                record = AppRunRecord(
                    app=item.name,
                    status=STATUS_TIMEOUT,
                    events=shard.events,
                    error=error,
                )
                settle(shard, record)
                spawn(shard)
                dispatch(shard)
            busy_gauge.set(sum(1 for s in pool if s.current is not None))
            if finished and on_batch is not None:
                on_batch(finished)
    finally:
        for shard in pool:
            if shard.proc is None:
                continue
            if shard.current is not None:
                kill(shard)
            else:
                if not shard.stopped:
                    try:
                        shard.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
                shard.proc.join(_KILL_GRACE_S)
                if shard.proc.is_alive():
                    shard.proc.kill()
                    shard.proc.join()
                try:
                    shard.conn.close()
                except OSError:
                    pass
        queue_gauge.set(0)
        busy_gauge.set(0)
        if progress is not None:
            progress.close()

    return [records[i] for i in sorted(records)]
