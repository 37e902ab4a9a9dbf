"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import pytest

import stats


def test_self_time_without_children_is_the_duration():
    assert stats.self_time(1.0, 4.0, []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    assert stats.self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # [1, 4] and [3, 6] overlap on [3, 4]: together they cover 5, not 6.
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    # A child nested inside another adds nothing.
    assert stats.self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile, n = stats.tail(values)
    assert n == 100
    assert value == 90
    assert percentile == pytest.approx(90.0)
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order():
    values = [float(v) for v in range(40)]
    assert stats.tail(values[::-1]) == stats.tail(values)
    assert stats.tail(values) == (29.0, 75.0, 40)


def test_tail_falls_back_to_the_median_below_twenty_samples():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.tail(values) == (3.0, 50.0, 5)
    assert stats.tail(list(range(20)))[1] == pytest.approx(50.0)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        stats.tail([])


def test_failed_frac_is_over_attempted_ops():
    assert stats.failed_frac(40, 3) == pytest.approx(0.075)
    assert stats.failed_frac(7, 0) == 0.0


@pytest.mark.parametrize("attempted, failed", [(0, 0), (5, 6), (5, -1)])
def test_failed_frac_rejects_a_bad_base(attempted, failed):
    with pytest.raises(ValueError):
        stats.failed_frac(attempted, failed)


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25, median 5.5
    assert stats.spread(values) == pytest.approx(1.0)


def test_nominal_seconds_at_nominal_speed_leaves_out_the_probes():
    # Probes of 0.1 s at 1.0 and 2.0; the span ends at 3.0.
    samples = [(1.0, 0.1), (2.0, 0.1), (3.0, 0.1)]
    assert stats.nominal_seconds(0.0, samples, 0.1) == pytest.approx(2.8)


def test_nominal_seconds_scales_each_stretch_by_the_probe_that_ends_it():
    # The host runs at half speed after 1.0: that probe and the last take twice as long.
    samples = [(1.0, 0.1), (2.1, 0.2), (3.3, 0.2)]
    assert stats.nominal_seconds(0.0, samples, 0.1) == pytest.approx(1.0 + 0.5 + 0.5)


def test_nominal_seconds_of_a_span_shorter_than_the_interval():
    assert stats.nominal_seconds(0.0, [(0.004, 0.002)], 0.001) == pytest.approx(0.002)
