"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of ``BENCHMARK.json`` against the program in ``src/``
from a fresh process, checks its outputs, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Metric names and units come from
``BENCHMARK.json``. See ``perfbench/README.md``.
"""

import sys

# the benchmark never writes bytecode into the checkout: every run starts
# from the same files
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

from perfbench import runstate  # noqa: E402

WORKLOADS = ("analyze-cli", "corpus-rescan")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not runstate.program_present():
        print(f"perfbench: no program at {runstate.SRC}/repro", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(1, runstate.SRC)
    if args.workload == "analyze-cli":
        from perfbench import analyze_cli as workload
    else:
        from perfbench import corpus_rescan as workload

    run_dir = runstate.make_run_dir(args.workload, args.seed)
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.per_layer if args.trace else result.end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    if missing:
        print(
            "perfbench: layers this workload does not exercise, reported as 0: "
            + ", ".join(missing),
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
