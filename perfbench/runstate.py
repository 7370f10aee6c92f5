"""Pinned run state: a private directory, bytecode cache and child env.

Every run gets its own directory for cache, ledger, reports and bytecode,
inside the checkout and removed when the run ends. A reused ledger would
change the scheduler's plan (``CalibratedCostModel.from_ledger``), and
shared bytecode would make the first run of a checkout compile while later
runs read cached files, so nothing is carried from one run to the next.

Every process the benchmark spawns runs the program from ``src/`` with
``PYTHONPYCACHEPREFIX`` pointing at bytecode compiled during set-up and
with bytecode writes turned off, so all timed processes start from the
same bytecode state.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: gitignored scratch area of the benchmark inside the checkout
WORK = os.path.join(ROOT, ".perfbench")
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")

PYTHON = sys.executable

# imports every module of the program once, so the stdlib modules it
# pulls in get bytecode under the private prefix too
_IMPORT_ALL = (
    "import importlib, pkgutil, repro\n"
    "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    if not m.name.endswith('__main__'):\n"
    "        importlib.import_module(m.name)\n"
)


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "cli.py"))


def make_run_dir(workload: str, seed: int) -> str:
    path = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def base_env(pycache: str, write_bytecode: bool = False) -> dict:
    """Environment for a program process: no inherited ``REPRO_*``
    settings (cache, ledger, serve URL, log level), the private bytecode
    prefix, and bytecode writes off unless compiling."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def compile_bytecode(pycache: str) -> None:
    """Fill ``pycache`` with bytecode for the program and what it imports."""
    env = base_env(pycache, write_bytecode=True)
    subprocess.run(
        [PYTHON, "-m", "compileall", "-q", os.path.join(SRC, "repro")],
        env=env, check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
    )
    subprocess.run([PYTHON, "-c", _IMPORT_ALL], env=env, check=True, cwd=ROOT)


@dataclass
class Exit:
    """How one program process ended (as ``launch.py`` saw it)."""

    seconds: float
    returncode: int
    maxrss_mb: float
    timed_out: bool


def run_process(
    args: List[str],
    env: dict,
    timeout_s: float,
    stdout: Optional[str] = None,
    stderr: str = "-",
) -> Exit:
    """Run ``args`` to the end through ``launch.py`` (see there for
    ``stdout`` and ``stderr``; it kills the process at ``timeout_s``): wall
    time from spawn to exit, exit code, and the peak RSS of the process and
    every child it waited for."""
    proc = subprocess.Popen(
        [PYTHON, LAUNCH, str(timeout_s), stdout or "-", stderr, "--", *args],
        env=env, stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s + 30.0)
    finally:
        if proc.poll() is None:
            # SIGTERM reaches the program through its launcher
            proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    try:
        report = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RuntimeError(f"launcher exited {proc.returncode} without a report")
    return Exit(
        report["seconds"], report["returncode"], report["maxrss_kb"] / 1024.0,
        report["timed_out"],
    )


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total
