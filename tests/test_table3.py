"""Table 3's count claims, on the 20-app dataset's medians.

The 20 Table 2 stand-ins are analyzed once with the no-action-sensitivity
comparison on, plus a short EventRacer run each. :func:`assert_table3_claims`
states the paper's four count-based shapes (DESIGN.md); tier-1 calls it
here, and ``benchmarks/test_table3_effectiveness.py`` calls it after
printing the whole table, so the two cannot drift apart.
"""

from __future__ import annotations

import gc
from typing import Dict, List

import pytest

from repro.core import Sierra, SierraOptions, median
from repro.corpus import TWENTY_APPS, synthesize_app, twenty_app_specs
from repro.corpus.synth import classify_report_field
from repro.dynamic import run_eventracer


class TwentyAppRun:
    """One analysed app of the 20-app dataset plus its references."""

    def __init__(self, spec, paper, apk, truth, result, eventracer):
        self.spec = spec
        self.paper = paper
        self.apk = apk
        self.truth = truth
        self.result = result
        self.eventracer = eventracer

    @property
    def report(self):
        return self.result.report

    def true_and_fp(self):
        true_n = sum(
            1
            for r in self.report.reports
            if classify_report_field(r.field_name) == "true"
        )
        return true_n, len(self.report.reports) - true_n


def twenty_app_runs() -> List[TwentyAppRun]:
    """Every app of the 20-app dataset, analyzed with and without action
    sensitivity, with a 2-schedule EventRacer run beside it."""
    runs = []
    for spec, paper in zip(twenty_app_specs(), TWENTY_APPS):
        apk, truth = synthesize_app(spec)
        result = Sierra(SierraOptions(compare_without_as=True)).analyze(apk)
        eventracer = run_eventracer(
            apk, schedules=2, max_events=30, max_activities=3
        )
        runs.append(TwentyAppRun(spec, paper, apk, truth, result, eventracer))
    return runs


def table3_rows(runs: List[TwentyAppRun]) -> List[Dict[str, object]]:
    """One Table 3 row per app."""
    rows = []
    for r in runs:
        rep = r.report
        true_n, fp_n = r.true_and_fp()
        rows.append(
            {
                "App": r.spec.name,
                "Harnesses": rep.harnesses,
                "Actions": rep.actions,
                "HB Edges": rep.hb_edges,
                "Ordered (%)": round(100 * rep.ordered_fraction, 1),
                "Racy w/o AS": rep.racy_pairs_no_as,
                "Racy with AS": rep.racy_pairs,
                "After refut.": rep.races_after_refutation,
                "True": true_n,
                "FP": fp_n,
                "EventRacer": r.eventracer.distinct_field_count(),
            }
        )
    return rows


def table3_medians(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """The median of every numeric column."""
    return {
        key: median([float(row[key]) for row in rows])
        for key in rows[0]
        if key != "App"
    }


def assert_table3_claims(med: Dict[str, float]) -> None:
    """The paper's four count claims on the 20-app medians."""
    as_reduction = med["Racy w/o AS"] / max(1.0, med["Racy with AS"])
    print(f"action-sensitivity reduction: {as_reduction:.2f}x (paper 5.35x)")
    assert as_reduction >= 2.0, "AS must cut racy pairs by a large factor"

    refuted_share = 1 - med["After refut."] / max(1.0, med["Racy with AS"])
    print(f"refutation share: {refuted_share:.0%} (paper 59%)")
    assert refuted_share >= 0.25

    static_vs_dynamic = med["True"] / max(1.0, med["EventRacer"])
    print(f"static/dynamic true-race ratio: {static_vs_dynamic:.1f}x (paper 7.4x)")
    assert static_vs_dynamic >= 2.0

    assert med["FP"] <= med["True"], "reports must be mostly true races"


@pytest.fixture(scope="module")
def twenty_runs():
    """Analyzed with automatic collection off, as ``python -m repro``
    analyzes: reference counting alone frees each app."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return twenty_app_runs()
    finally:
        if enabled:
            gc.enable()


def test_table3_count_claims(twenty_runs):
    med = table3_medians(table3_rows(twenty_runs))
    assert_table3_claims(med)
