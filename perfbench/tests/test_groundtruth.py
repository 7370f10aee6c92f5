"""Scoring a doctored report against the generator's ground truth, and the
cache-hit fingerprint check."""

import copy
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.groundtruth import HitCheck, Score, report_races, truth_for  # noqa: E402

APP = "family:lifecycle:1:7"


@pytest.fixture(scope="module")
def report():
    from repro.cli import load_app
    from repro.core import Sierra

    return Sierra().analyze(load_app(APP)).report.to_dict()


def score_of(report_dict):
    score = Score()
    score.add(truth_for(APP), [r["field"] for r in report_races(report_dict)])
    return score


def test_clean_report_finds_every_planted_race(report):
    score = score_of(report)
    assert score.expected > 0
    assert score.recall == 1.0


def test_dropping_a_true_race_lowers_recall(report):
    truth = truth_for(APP)
    doctored = copy.deepcopy(report)
    victim = next(r for r in doctored["reports"] if r["field"] in truth)
    doctored["reports"] = [r for r in doctored["reports"] if r["field"] != victim["field"]]
    score = score_of(doctored)
    assert score.recall == pytest.approx((score.expected - 1) / score.expected)


def test_adding_a_false_race_lowers_precision(report):
    clean = score_of(report)
    doctored = copy.deepcopy(report)
    fake = dict(doctored["reports"][0], field="Lcom/fake/Activity;.ghost_field")
    doctored["reports"].append(fake)
    score = score_of(doctored)
    assert score.recall == clean.recall
    assert score.detected == clean.detected + 1
    assert score.precision < clean.precision


def test_malformed_report_is_rejected():
    with pytest.raises(ValueError):
        report_races({"app": APP})
    with pytest.raises(ValueError):
        report_races({"reports": [{"fingerprint": "abc"}]})


def test_micro_average_weights_every_race_once():
    score = Score()
    score.add({"a", "b", "c"}, {"a", "b", "c", "x"})
    score.add({"d"}, set())
    assert score.recall == pytest.approx(3 / 4)
    assert score.precision == pytest.approx(3 / 4)


def test_hit_with_other_fingerprints_is_a_mismatch():
    check = HitCheck()
    check.record_cold("app", [{"fingerprint": "f1"}, {"fingerprint": "f2"}])
    check.check_hit("app", [{"fingerprint": "f2"}, {"fingerprint": "f1"}])
    assert check.mismatches == []
    check.check_hit("app", [{"fingerprint": "f1"}])
    assert check.mismatches == ["app"]
    assert check.compared == 2
