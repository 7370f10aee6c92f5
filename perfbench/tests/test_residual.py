"""The traced analyze-cli run fails when start-up plus the layer spans no
longer account for the samples' latency."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.analyze_cli import (  # noqa: E402
    RESIDUAL_MEDIAN_SHARE,
    residual_problem,
    residual_share,
)

LATENCIES = [0.40, 0.50, 0.60, 0.70, 0.80]


def test_small_residuals_pass():
    residuals = [-0.02, 0.01, 0.015, 0.03, 0.25]  # one drifting sample
    assert abs(residual_share(residuals, LATENCIES)) < RESIDUAL_MEDIAN_SHARE
    assert residual_problem(residuals, LATENCIES) is None


def test_uncovered_stage_fails():
    # a stage the replay does not call: every sample has 0.15 s unaccounted
    residuals = [0.15 + r for r in (-0.02, 0.01, 0.015, 0.03, 0.05)]
    problem = residual_problem(residuals, LATENCIES)
    assert problem is not None and "do not account" in problem


def test_spans_longer_than_the_sample_fail_too():
    residuals = [-0.2] * len(LATENCIES)
    assert residual_problem(residuals, LATENCIES) is not None
