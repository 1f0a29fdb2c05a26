"""The benchmark's own statistics: the tail rule and span self time."""

import pytest

from perfbench.stats import TAIL_MIN_BEYOND, median, quartile_spread, self_time, tail


class TestTail:
    def test_median_only_below_forty_samples(self):
        values = list(range(1, 40))  # 39 samples
        t = tail(values)
        assert t.percentile == 50.0
        assert t.value == median(values) == 20
        assert "median" in t.label

    def test_forty_samples_leave_ten_beyond(self):
        values = list(range(40))
        t = tail(values)
        assert t.value == 29
        assert sum(v > t.value for v in values) == TAIL_MIN_BEYOND
        assert t.percentile == 75.0

    @pytest.mark.parametrize("n", [40, 41, 57, 100, 1000])
    def test_highest_percentile_with_ten_beyond(self, n):
        values = [float(v) for v in reversed(range(n))]  # order must not matter
        t = tail(values)
        beyond = sum(v > t.value for v in values)
        assert beyond == TAIL_MIN_BEYOND
        # One rank higher would leave only nine beyond it.
        assert sum(v > t.value + 1 for v in values) == TAIL_MIN_BEYOND - 1
        assert t.percentile == pytest.approx(100.0 * (n - TAIL_MIN_BEYOND) / n)

    def test_thousand_samples_is_p99(self):
        assert tail(range(1000)).percentile == pytest.approx(99.0)


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == pytest.approx(3.0)

    def test_nested_disjoint_children(self):
        assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        # [1, 4] and [3, 6] cover [1, 6]: five units, not six.
        assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == pytest.approx(5.0)

    def test_child_inside_child(self):
        assert self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)

    def test_children_clipped_to_parent(self):
        assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)

    def test_touching_children(self):
        assert self_time(0.0, 4.0, [(0.0, 2.0), (2.0, 4.0)]) == pytest.approx(0.0)


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    # statistics.quantiles (exclusive): Q1 = 1.5, Q2 = 3, Q3 = 4.5.
    assert quartile_spread(values) == pytest.approx(1.0)
