"""What every workload shares: its result, set-up repetitions, and the
start-up probe."""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from perfbench import runstate
from perfbench.stats import describe

#: set-up runs per benchmark run; ``setup_s`` is their median
SETUP_REPS = 3

#: fresh ``import repro.cli`` processes behind ``cli.startup_s``
STARTUP_PROBES = 15


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def note(self, line: str) -> None:
        print(line, flush=True)


def repeated_setup(
    run_dir: str,
    once: Callable[[int, str], object],
    release: Callable[[object], None] = lambda state: None,
    reps: int = SETUP_REPS,
) -> Tuple[float, object]:
    """Run set-up ``reps`` times, each from its own bytecode prefix; return
    the median time and the state the last repetition built.

    ``once(i, pycache)`` does the workload's own set-up after the compile;
    ``release(state)`` discards an earlier repetition's state, untimed. The
    traced run reports no ``setup_s`` and sets up once.
    """
    times = []
    state = None
    for i in range(reps):
        if state is not None:
            release(state)
        pycache = os.path.join(run_dir, f"pycache-{i}")
        started = time.perf_counter()
        runstate.compile_bytecode(pycache)
        state = once(i, pycache)
        times.append(time.perf_counter() - started)
    print(
        "setup: " + ", ".join(f"{t:.3f}" for t in times) + " s", flush=True
    )
    return statistics.median(times), state


def startup_once(env: dict) -> float:
    """Wall time of a fresh process that only imports ``repro.cli``."""
    ex = runstate.run_process(
        [runstate.PYTHON, "-c", "import repro.cli"], env, timeout_s=60.0
    )
    if ex.returncode != 0:
        raise RuntimeError(f"import repro.cli exited {ex.returncode}")
    return ex.seconds


def startup_probe(pycache: str) -> float:
    """Median of ``STARTUP_PROBES`` :func:`startup_once` runs."""
    env = runstate.base_env(pycache)
    times = [startup_once(env) for _ in range(STARTUP_PROBES)]
    print(describe("cli.startup", times), flush=True)
    return statistics.median(times)


def warn(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
