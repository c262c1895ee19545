"""Unit tests for metric collectors, statistics and bound checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    DeadlineTracker,
    DelaySeries,
    ThroughputMeter,
    batch_means_ci,
    check_multi_round,
    check_rotation_samples,
    jain_fairness,
    summarize,
)


class TestDelaySeries:
    def test_basic_stats(self):
        s = DelaySeries()
        s.extend([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.max == 4.0
        assert s.min == 1.0
        assert s.percentile(50) == 2.5

    def test_summary_keys(self):
        s = DelaySeries()
        s.extend(range(100))
        summary = s.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert summary["p95"] <= summary["p99"] <= summary["max"]

    def test_negative_rejected(self):
        s = DelaySeries("x")
        with pytest.raises(ValueError):
            s.add(-1.0)

    def test_empty_raises(self):
        s = DelaySeries()
        assert s.empty
        with pytest.raises(ValueError):
            _ = s.mean

    def test_std_single_sample(self):
        s = DelaySeries()
        s.add(3.0)
        assert s.std == 0.0


class TestThroughputMeter:
    def test_rate(self):
        m = ThroughputMeter()
        m.open_window(100.0)
        for _ in range(50):
            m.count()
        m.close_window(200.0)
        assert m.rate == 0.5

    def test_count_units(self):
        m = ThroughputMeter()
        m.open_window(0.0)
        m.count(10)
        m.close_window(5.0)
        assert m.rate == 2.0

    def test_window_reset(self):
        m = ThroughputMeter()
        m.open_window(0.0)
        m.count(5)
        m.close_window(10.0)
        m.open_window(10.0)
        m.close_window(20.0)
        assert m.rate == 0.0

    def test_errors(self):
        m = ThroughputMeter()
        with pytest.raises(ValueError):
            m.close_window(1.0)
        m.open_window(5.0)
        with pytest.raises(ValueError):
            m.close_window(1.0)
        m2 = ThroughputMeter()
        m2.open_window(0.0)
        m2.close_window(0.0)
        with pytest.raises(ValueError):
            _ = m2.rate


class TestDeadlineTracker:
    def test_met_and_missed(self):
        d = DeadlineTracker()
        d.observe(5.0, 10.0)
        d.observe(15.0, 10.0)
        d.observe(5.0, None)     # no deadline -> ignored
        assert d.met == 1 and d.missed == 1
        assert d.total == 2
        assert d.miss_ratio == 0.5
        assert d.miss_lateness == [5.0]

    def test_drops(self):
        d = DeadlineTracker()
        d.observe_drop(10.0)
        d.observe_drop(None)
        assert d.missed == 1

    def test_empty_ratio_raises(self):
        with pytest.raises(ValueError):
            _ = DeadlineTracker().miss_ratio

    def test_boundary_delivery_meets(self):
        d = DeadlineTracker()
        d.observe(10.0, 10.0)
        assert d.met == 1


class TestJainFairness:
    def test_equal_shares_is_one(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_user_monopoly(self):
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_errors(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([1, -1])
        with pytest.raises(ValueError):
            jain_fairness([0, 0])

    @given(st.lists(st.floats(min_value=0.01, max_value=1000), min_size=1,
                    max_size=30))
    def test_bounds_property(self, xs):
        f = jain_fairness(xs)
        assert 1.0 / len(xs) - 1e-9 <= f <= 1.0 + 1e-9

    @given(st.floats(min_value=0.1, max_value=100), st.integers(min_value=1, max_value=20))
    def test_scale_invariance(self, scale, n):
        xs = list(range(1, n + 1))
        assert jain_fairness(xs) == pytest.approx(
            jain_fairness([x * scale for x in xs]))


class TestBatchMeans:
    def test_iid_normal_covers_mean(self):
        rng = np.random.default_rng(0)
        hits = 0
        for trial in range(20):
            data = rng.normal(10.0, 2.0, size=2000)
            ci = batch_means_ci(data, batches=20, confidence=0.95)
            if ci.contains(10.0):
                hits += 1
        assert hits >= 16  # ~95% coverage, generous slack

    def test_warmup_discard(self):
        data = [100.0] * 500 + [10.0] * 2000
        ci = batch_means_ci(data, batches=10, warmup_fraction=0.25)
        assert abs(ci.mean - 10.0) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_means_ci([1.0] * 100, batches=1)
        with pytest.raises(ValueError):
            batch_means_ci([1.0] * 10, batches=20)
        with pytest.raises(ValueError):
            batch_means_ci([1.0] * 100, confidence=1.5)
        with pytest.raises(ValueError):
            batch_means_ci([1.0] * 100, warmup_fraction=1.0)

    def test_str_rendering(self):
        ci = batch_means_ci([1.0, 2.0] * 100, batches=10)
        assert "batches" in str(ci)


class TestSummarize:
    def test_keys_and_order(self):
        s = summarize(range(1000))
        assert s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
        assert s["count"] == 1000

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestBoundChecks:
    def test_rotation_check_strict(self):
        check = check_rotation_samples([10.0, 20.0, 29.9], bound=30.0)
        assert check.holds
        assert check.worst == 29.9
        assert check.tightness == pytest.approx(29.9 / 30.0)
        exact = check_rotation_samples([30.0], bound=30.0)
        assert not exact.holds  # strict '<'

    def test_rotation_check_nonstrict(self):
        check = check_rotation_samples([30.0], bound=30.0, strict=False)
        assert check.holds

    def test_violation_rendering(self):
        check = check_rotation_samples([31.0], bound=30.0)
        assert not check.holds
        assert "VIOLATED" in str(check)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_rotation_samples([], bound=10.0)

    def test_multi_round_windows(self):
        samples = [5.0] * 10
        check = check_multi_round(samples, n=4, bound=25.0)
        assert check.holds
        assert check.worst == 20.0
        assert check.samples == 7  # sliding windows

    def test_multi_round_detects_burst(self):
        samples = [5.0, 5.0, 20.0, 20.0, 5.0]
        check = check_multi_round(samples, n=2, bound=30.0)
        assert check.worst == 40.0
        assert not check.holds

    def test_multi_round_validation(self):
        with pytest.raises(ValueError):
            check_multi_round([5.0], n=2, bound=10.0)
        with pytest.raises(ValueError):
            check_multi_round([5.0], n=0, bound=10.0)
