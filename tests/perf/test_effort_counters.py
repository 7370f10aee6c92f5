"""Exact effort counters of a cold serial run, pinned per app.

The counters ``RUN_report.json`` carries (points-to worklist units,
closure ops, HB edges, symbolic nodes expanded, ...) are deterministic
for a fixed program, so they are compared with ``==``: an extra
whole-program solve or a lost reuse moves a count, which a wall-clock
gate on a shared runner cannot see. Wall time is measured from outside,
with repeats, by ``perfbench/``.

A change that moves a count on purpose edits :data:`EXPECTED` (the
failure message prints the app's whole actual record, ready to paste)
and says why in CHANGES.md. There is no tolerance and no update switch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import load_app
from repro.core import Sierra, SierraOptions
from repro.obs import metrics

pytestmark = pytest.mark.perf_smoke

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: per app: ``metrics.collect_counters()`` plus the report's pair counts
#: and per-rule direct HB edges
EXPECTED = {
    "quickstart": {
        "harnesses": 1,
        "actions": 3,
        "hb_edges": 2,
        "closure_ops": 2,
        "pointsto_worklist_iterations": 8,
        "refutation_nodes_expanded": 12,
        "refutation_cache_hits": 0,
        "racy_pairs": 1,
        "races_after_refutation": 1,
        "edges_by_rule": {"R3-gui-order": 2},
    },
    "newsreader": {
        "harnesses": 1,
        "actions": 6,
        "hb_edges": 9,
        "closure_ops": 9,
        "pointsto_worklist_iterations": 27,
        "refutation_nodes_expanded": 31,
        "refutation_cache_hits": 0,
        "racy_pairs": 2,
        "races_after_refutation": 2,
        "edges_by_rule": {
            "R1-invocation": 4,
            "R2-lifecycle": 1,
            "R3b-visibility": 2,
        },
    },
    "dbapp": {
        "harnesses": 1,
        "actions": 6,
        "hb_edges": 11,
        "closure_ops": 11,
        "pointsto_worklist_iterations": 20,
        "refutation_nodes_expanded": 63,
        "refutation_cache_hits": 0,
        "racy_pairs": 4,
        "races_after_refutation": 4,
        "edges_by_rule": {
            "R1-invocation": 1,
            "R2-lifecycle": 9,
            "R3-gui-order": 1,
        },
    },
    "opensudoku": {
        "harnesses": 1,
        "actions": 7,
        "hb_edges": 15,
        "closure_ops": 10,
        "pointsto_worklist_iterations": 12,
        "refutation_nodes_expanded": 284,
        "refutation_cache_hits": 0,
        "racy_pairs": 10,
        "races_after_refutation": 8,
        "edges_by_rule": {
            "R1-invocation": 4,
            "R2-lifecycle": 3,
            "R6-transitivity": 1,
        },
    },
    "paper:APV": {
        "harnesses": 4,
        "actions": 76,
        "hb_edges": 396,
        "closure_ops": 236,
        "pointsto_worklist_iterations": 803,
        "refutation_nodes_expanded": 571,
        "refutation_cache_hits": 0,
        "racy_pairs": 27,
        "races_after_refutation": 14,
        "edges_by_rule": {
            "R1-invocation": 23,
            "R2-lifecycle": 52,
            "R2c-launch": 3,
            "R3-gui-order": 70,
            "R3b-visibility": 30,
            "R4-intra-dom": 8,
            "R6-transitivity": 45,
        },
    },
    "paper:OpenSudoku": {
        "harnesses": 10,
        "actions": 268,
        "hb_edges": 2581,
        "closure_ops": 1048,
        "pointsto_worklist_iterations": 3949,
        "refutation_nodes_expanded": 2509,
        "refutation_cache_hits": 0,
        "racy_pairs": 135,
        "races_after_refutation": 87,
        "edges_by_rule": {
            "R1-invocation": 110,
            "R2-lifecycle": 132,
            "R2c-launch": 9,
            "R3-gui-order": 203,
            "R3b-visibility": 105,
            "R4-intra-dom": 33,
            "R6-transitivity": 404,
        },
    },
    "paper:K-9 Mail": {
        "harnesses": 29,
        "actions": 610,
        "hb_edges": 17061,
        "closure_ops": 3960,
        "pointsto_worklist_iterations": 13130,
        "refutation_nodes_expanded": 22505,
        "refutation_cache_hits": 0,
        "racy_pairs": 399,
        "races_after_refutation": 166,
        "edges_by_rule": {
            "R1-invocation": 300,
            "R2-lifecycle": 379,
            "R2c-launch": 28,
            "R3-gui-order": 278,
            "R3b-visibility": 142,
            "R4-intra-dom": 356,
            "R6-transitivity": 2085,
        },
    },
    # a size-3 family app of corpus-rescan's seed-1 fill: HB rules 2/3 at
    # harness scale (4 mains of 118 event sites each)
    "family:mesh:3:100015": {
        "harnesses": 4,
        "actions": 472,
        "hb_edges": 2228,
        "closure_ops": 1334,
        "pointsto_worklist_iterations": 1676,
        "refutation_nodes_expanded": 1536,
        "refutation_cache_hits": 0,
        "racy_pairs": 128,
        "races_after_refutation": 128,
        "edges_by_rule": {
            "R1-invocation": 256,
            "R2-lifecycle": 52,
            "R3-gui-order": 828,
            "R2c-launch": 3,
            "R3b-visibility": 192,
        },
    },
}


def effort_record(app: str) -> dict:
    """One cold serial run of ``app``, in the shape of :data:`EXPECTED`."""
    report = Sierra(SierraOptions()).analyze(load_app(app)).report
    record = metrics.collect_counters()
    record["racy_pairs"] = report.racy_pairs
    record["races_after_refutation"] = report.races_after_refutation
    record["edges_by_rule"] = dict(report.edges_by_rule)
    return record


@pytest.mark.parametrize(
    "app", list(EXPECTED), ids=lambda app: app.replace(" ", "_")
)
def test_effort_counters_are_exact(app):
    actual = effort_record(app)
    assert actual == EXPECTED[app], (
        f"{app} effort moved; if on purpose, paste this record into "
        f"EXPECTED[{app!r}] and say why in CHANGES.md:\n"
        + json.dumps(actual, indent=4)
    )


def test_counts_do_not_depend_on_the_hash_seed():
    """Tier-1 runs under a random ``PYTHONHASHSEED``: a count that
    followed set order would flake there instead of failing here."""

    def record_under(seed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "paper:APV"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    assert record_under("0") == record_under("1")


if __name__ == "__main__":
    # the hash-seed test runs this module in a fresh interpreter
    print(json.dumps(effort_record(sys.argv[1])))
