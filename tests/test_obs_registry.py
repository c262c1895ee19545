"""Unit tests for the metrics registry (repro.obs.registry)."""

import pytest

from repro.obs import MetricsError, MetricsRegistry


class TestCounter:
    def test_inc_default_and_n(self):
        reg = MetricsRegistry()
        c = reg.counter("pkts")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("pkts") is reg.counter("pkts")

    def test_labels_create_separate_series(self):
        reg = MetricsRegistry()
        a = reg.counter("delivered", service="premium")
        b = reg.counter("delivered", service="be")
        assert a is not b
        a.inc(3)
        assert b.value == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", station=1, queue="rt")
        b = reg.counter("x", queue="rt", station=1)
        assert a is b

    def test_label_values_stringified(self):
        reg = MetricsRegistry()
        assert reg.counter("x", sid=1) is reg.counter("x", sid="1")


class TestGauge:
    def test_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7.0)
        g.add(-2.0)
        assert g.value == 5.0
        assert g.updates == 2


class TestHistogram:
    def test_lifetime_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("rot")
        for v in [4.0, 8.0, 6.0]:
            h.observe(v)
        assert h.count == 3
        assert h.total == 18.0
        assert h.vmin == 4.0 and h.vmax == 8.0
        assert h.mean == 6.0

    def test_window_bounds_percentile_samples_not_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("rot", window=4)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100          # lifetime count is exact
        assert h.vmin == 0.0           # lifetime min survives eviction
        assert h.recent() == [96.0, 97.0, 98.0, 99.0]
        assert h.percentile(0) == 96.0

    def test_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("d")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert h.percentile(100) == 100.0

    def test_percentile_empty_is_none(self):
        h = MetricsRegistry().histogram("d")
        assert h.percentile(50) is None

    def test_percentile_out_of_range_raises(self):
        h = MetricsRegistry().histogram("d")
        h.observe(1.0)
        with pytest.raises(MetricsError):
            h.percentile(101)

    def test_bad_window_raises(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().histogram("d", window=0)

    def test_summary_shape(self):
        h = MetricsRegistry().histogram("d")
        h.observe(2.0)
        s = h.summary()
        assert s["count"] == 1 and s["sum"] == 2.0
        assert set(s) == {"count", "sum", "min", "max", "mean",
                          "p50", "p95", "window"}


class TestKindCollisions:
    def test_counter_then_gauge_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricsError):
            reg.gauge("x")

    def test_gauge_then_histogram_raises(self):
        reg = MetricsRegistry()
        reg.gauge("x")
        with pytest.raises(MetricsError):
            reg.histogram("x")

    def test_collision_even_with_different_labels(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1)
        with pytest.raises(MetricsError):
            reg.gauge("x", b=2)

    def test_empty_name_raises(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("")


class TestIntrospection:
    def test_series_sorted_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("d", s=2).inc(2)
        reg.counter("d", s=1).inc(1)
        values = [c.value for c in reg.series("d")]
        assert values == [1, 2]

    def test_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "zzz" not in reg

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("delivered", service="premium").inc(3)
        reg.gauge("members").set(8)
        reg.histogram("rot").observe(4.0)
        snap = reg.snapshot()
        assert snap["delivered"] == {"service=premium": 3}
        assert snap["members"] == {"": 8}
        assert snap["rot"][""]["count"] == 1

    def test_snapshot_is_json_ready(self):
        import json
        reg = MetricsRegistry()
        reg.counter("a", x=1).inc()
        reg.histogram("h").observe(1.0)
        json.dumps(reg.snapshot())


class TestNetworkIntegration:
    def _run(self, registry, horizon=200, seed=1):
        from repro.obs import attach_network_metrics
        from repro.scenarios import Scenario, build_scenario

        built = build_scenario(Scenario(n=6, horizon=float(horizon),
                                        seed=seed))
        attach_network_metrics(built.network, registry)
        built.engine.run(until=float(horizon))
        return built

    def test_ring_publishes_deliveries_and_rotations(self):
        reg = MetricsRegistry()
        built = self._run(reg)
        snap = reg.snapshot()
        delivered = sum(snap.get("ring.delivered", {}).values())
        assert delivered == built.network.metrics.total_delivered > 0
        assert snap["sat.rotation_slots"][""]["count"] > 0
        assert snap["ring.members"][""] == 6

    def test_kill_publishes_recovery_metrics(self):
        from repro.faults import FaultSchedule
        from repro.scenarios import Scenario, build_scenario
        from repro.obs import attach_network_metrics

        schedule = FaultSchedule.builder().kill(2, at=100).build()
        built = build_scenario(Scenario(n=6, horizon=3000.0, seed=1,
                                        faults=schedule))
        reg = MetricsRegistry()
        attach_network_metrics(built.network, reg)
        built.engine.run(until=3000.0)
        snap = reg.snapshot()
        assert snap["ring.kills"][""] == 1
        assert snap["recovery.episodes"][""] >= 1

    def test_observed_run_matches_unobserved_run(self):
        """Attaching metrics must not perturb the simulation outcome."""
        from repro.scenarios import Scenario, run_scenario

        plain = run_scenario(Scenario(n=6, horizon=400.0, seed=5)).summary()
        reg = MetricsRegistry()
        observed = self._run(reg, horizon=400, seed=5)
        assert observed.summary() == plain
