"""Tests for repro.util.stats — Welford accumulators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import RunningStats, welford_merge

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0
        assert s.std == 0.0

    def test_single_value(self):
        s = RunningStats()
        s.push(4.2)
        assert s.count == 1
        assert s.mean == pytest.approx(4.2)
        assert s.variance == 0.0

    def test_known_values(self):
        s = RunningStats()
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.mean == pytest.approx(5.0)
        assert s.std == pytest.approx(2.0)  # classic example

    def test_min_max(self):
        s = RunningStats()
        s.extend([3.0, -1.0, 7.0])
        assert s.minimum == -1.0
        assert s.maximum == 7.0

    def test_min_max_empty_raises(self):
        with pytest.raises(ValueError):
            RunningStats().minimum
        with pytest.raises(ValueError):
            RunningStats().maximum

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RunningStats().push(float("nan"))

    def test_sample_variance(self):
        s = RunningStats()
        s.extend([1.0, 2.0, 3.0])
        assert s.sample_variance == pytest.approx(1.0)
        assert s.variance == pytest.approx(2.0 / 3.0)

    def test_copy_is_independent(self):
        s = RunningStats()
        s.extend([1.0, 2.0])
        c = s.copy()
        c.push(100.0)
        assert s.count == 2
        assert c.count == 3

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_matches_numpy(self, xs):
        s = RunningStats()
        s.extend(xs)
        assert s.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(float(np.var(xs)), rel=1e-6, abs=1e-4)

    @given(st.lists(finite_floats, min_size=0, max_size=100),
           st.lists(finite_floats, min_size=0, max_size=100))
    def test_merge_equals_concatenation(self, xs, ys):
        a, b, c = RunningStats(), RunningStats(), RunningStats()
        a.extend(xs)
        b.extend(ys)
        c.extend(xs + ys)
        merged = welford_merge(a, b)
        assert merged.count == c.count
        if c.count:
            assert merged.mean == pytest.approx(c.mean, rel=1e-9, abs=1e-6)
            assert merged.variance == pytest.approx(c.variance, rel=1e-6, abs=1e-4)


class TestWelfordMerge:
    def test_merge_with_empty(self):
        a = RunningStats()
        a.extend([1.0, 2.0, 3.0])
        empty = RunningStats()
        assert welford_merge(a, empty).mean == pytest.approx(2.0)
        assert welford_merge(empty, a).mean == pytest.approx(2.0)

    def test_merge_two_empty(self):
        m = welford_merge(RunningStats(), RunningStats())
        assert m.count == 0

    def test_merge_preserves_min_max(self):
        a, b = RunningStats(), RunningStats()
        a.extend([5.0, 6.0])
        b.extend([-2.0, 3.0])
        m = welford_merge(a, b)
        assert m.minimum == -2.0
        assert m.maximum == 6.0

    def test_merge_does_not_mutate_inputs(self):
        a, b = RunningStats(), RunningStats()
        a.push(1.0)
        b.push(2.0)
        welford_merge(a, b)
        assert a.count == 1 and b.count == 1
