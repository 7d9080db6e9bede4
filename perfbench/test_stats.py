"""Tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/test_stats.py -q
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder, layer_table, self_times  # noqa: E402
from stats import (busy_seconds, drift, lateness, median,  # noqa: E402
                   open_loop_latency, percentile, percentile_if_supported,
                   samples_beyond, self_time, tail_percentile,
                   with_failures)


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)
    assert median([5.0]) == 5.0


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    q, value = tail
    assert q == expected
    assert samples_beyond(n, q) >= 10
    assert value == percentile(values, q)


def test_p90_needs_a_hundred_samples():
    assert percentile_if_supported([1.0] * 99, 90) is None
    assert percentile_if_supported([1.0] * 100, 90) == 1.0


def test_failed_requests_miss_every_latency_limit():
    latencies = with_failures([0.1, 0.2, 0.3], failed=2)
    assert latencies[-2:] == [math.inf, math.inf]
    # The failures lift the median from 0.2 to 0.3 and the top to inf.
    assert median(latencies) == 0.3
    assert percentile(latencies, 100) == math.inf
    # Under any limit, however loose, 2 of the 5 attempts miss it.
    assert sum(1 for value in latencies if value <= 1e9) == 3


def test_refused_majority_makes_the_median_infinite():
    assert median(with_failures([0.1], failed=2)) == math.inf


def test_open_loop_latency_and_lateness_run_from_the_due_time():
    due, sent, done = 10.0, 10.5, 12.0
    # A request the generator sent late still counts its wait.
    assert open_loop_latency(due, done) == 2.0
    assert lateness(due, sent) == 0.5
    assert lateness(due, 9.9) == 0.0


def test_busy_seconds_merges_overlaps():
    assert busy_seconds([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert busy_seconds([]) == 0.0
    assert busy_seconds([(2, 1)]) == 0.0


def test_self_time_subtracts_clipped_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 7.0
    # A child reaching outside its parent only counts inside it.
    assert self_time(0.0, 10.0, [(-5.0, 2.0), (9.0, 12.0)]) == 7.0


def test_drift_compares_last_third_with_first():
    assert drift([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]) == 3.0
    assert drift([1.0, 2.0]) is None


def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "request": None}


def test_layer_table_self_times_and_residual():
    spans = [
        _span(1, "bench.window", 0.0, 10.0),
        _span(2, "service.client.assess", 0.0, 6.0, parent=1),
        _span(3, "service.client.POST", 1.0, 5.0, parent=2),
        # A concurrent client overlapping the first one.
        _span(4, "service.client.assess", 4.0, 8.0, parent=1),
        _span(5, "bench.replay", 10.0, 12.0),
        _span(6, "machine.vector.plan_for", 10.5, 11.0, parent=5),
    ]
    own = self_times(spans)
    assert own[2] == 2.0
    assert own[1] == 2.0
    table = layer_table(spans)
    assert table["layers"]["service.client"] == pytest.approx(2 + 4 + 4)
    assert table["layers"]["machine.vector"] == pytest.approx(0.5)
    assert table["residual_s"] == pytest.approx(2.0 + 1.5)
    assert table["residual_share"] == pytest.approx(3.5 / 12.0)


def test_recorder_nests_per_thread_and_is_inert_when_off():
    recorder = SpanRecorder(enabled=True)
    with recorder.span("bench.replay") as outer:
        with recorder.span("machine.vector.plan_for", request="7"):
            pass
    inner = next(s for s in recorder.spans if s["name"].startswith("machine"))
    assert inner["parent"] == outer
    assert inner["request"] == "7"
    assert inner["start"] <= inner["end"]
    off = SpanRecorder(enabled=False)
    with off.span("bench.window") as nothing:
        assert nothing is None
    assert off.spans == []
