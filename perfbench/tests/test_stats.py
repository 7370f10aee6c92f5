"""The percentile rule: report the highest ladder percentile that still has
at least ten samples beyond it."""

import statistics

import pytest

from perfbench.stats import percentile, samples_beyond, summarize, tail_percentile


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert percentile(values, 50) == pytest.approx(statistics.median(values))
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 90) == pytest.approx(9.1)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, 50.0),  # too few for any percentile: the median, marked thin
        (20, 50.0),
        (40, 75.0),  # exactly ten beyond p75
        (60, 75.0),
        (101, 90.0),
        (200, 95.0),
        (1001, 99.0),
        (10001, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    if n >= 20:
        assert samples_beyond(n, q) >= 10


def test_next_percentile_up_would_have_fewer_than_ten_beyond():
    assert samples_beyond(40, 75.0) == 10
    assert samples_beyond(40, 90.0) < 10


def test_summarize_reports_tail_percentile_and_count():
    values = [i / 100 for i in range(60)]
    s = summarize(values)
    assert s["n"] == 60
    assert s["tail_q"] == 75.0
    assert s["tail"] == pytest.approx(percentile(values, 75.0))
    assert not s["thin"]
    assert summarize(values[:12])["thin"]
