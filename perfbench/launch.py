"""Run one program process and report how it ended, as one JSON line.

    python3 perfbench/launch.py <timeout_s> <stdout> <stderr> -- <argv...>

``<stdout>`` is a file or ``-`` (discarded); ``<stderr>`` is a file, ``-``
(inherited) or ``+`` (into ``<stdout>``).

The benchmark starts every program process through this small process, so
the peak RSS reported is the program's own: at exec, Linux charges a new
process the peak resident size of the process it was forked from, and the
benchmark's own process can be larger than the program. The wall time is
taken here too, from spawn to exit. The process runs in its own session;
at the deadline the whole session is killed. SIGINT and SIGTERM are
passed on to its session. Imports only the standard library, to stay small.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv):
    timeout_s, stdout_path, stderr_path, sep, *args = argv
    if sep != "--" or not args:
        print(__doc__, file=sys.stderr)
        return 2
    out = open(stdout_path, "wb") if stdout_path != "-" else subprocess.DEVNULL
    err = {"-": None, "+": subprocess.STDOUT}.get(stderr_path)
    if stderr_path not in ("-", "+"):
        err = open(stderr_path, "wb")
    started_procs = []
    fired = threading.Event()

    def signal_session(signum):
        for proc in started_procs:
            try:
                os.killpg(proc.pid, signum)
            except ProcessLookupError:
                pass

    def kill():
        fired.set()
        signal_session(signal.SIGKILL)

    # handlers first: a signal must never leave the program orphaned
    signal.signal(signal.SIGINT, lambda signum, _frame: signal_session(signum))
    signal.signal(signal.SIGTERM, lambda signum, _frame: signal_session(signum))
    started = time.perf_counter()
    proc = subprocess.Popen(args, stdout=out, stderr=err, start_new_session=True)
    started_procs.append(proc)
    timer = threading.Timer(float(timeout_s), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "seconds": seconds,
        "returncode": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": fired.is_set(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
