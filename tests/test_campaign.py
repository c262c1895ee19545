"""Tests for the campaign subsystem: sweeps, store, runner, aggregation."""

import json

import pytest

from repro.campaign import (CampaignRunner, ResultStore, Sweep, aligned_table,
                            campaign_markdown, campaign_table,
                            default_columns, get_field, normalize_record,
                            point_hash, run_point, sweep_from_dict,
                            sweep_to_dict)
from repro.campaign.sweep import apply_overrides
from repro.config_io import scenario_to_dict
from repro.scenarios import Scenario, TrafficMix
from repro.sim.rng import RandomStreams

QUIET = lambda *a, **k: None  # noqa: E731

BASE = Scenario(horizon=400.0, traffic=TrafficMix(kind="poisson", rate=0.02))


def tiny_sweep(**kwargs):
    kwargs.setdefault("axes", {"n": [4, 6], "l": [1, 2]})
    return Sweep(base=BASE, **kwargs)


# ----------------------------------------------------------------------
class TestSweepExpansion:
    def test_grid_is_cartesian_product(self):
        points = tiny_sweep().expand()
        assert len(points) == 4
        combos = {(p.scenario_dict["n"], p.scenario_dict["l"])
                  for p in points}
        assert combos == {(4, 1), (4, 2), (6, 1), (6, 2)}

    def test_zip_advances_in_lockstep(self):
        sweep = Sweep(base=BASE, mode="zip",
                      axes={"n": [4, 6, 8], "horizon": [100, 200, 300]})
        points = sweep.expand()
        assert [(p.scenario_dict["n"], p.scenario_dict["horizon"])
                for p in points] == [(4, 100), (6, 200), (8, 300)]

    def test_zip_rejects_unequal_axes(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Sweep(base=BASE, mode="zip", axes={"n": [4, 6], "l": [1]})

    def test_explicit_points(self):
        sweep = Sweep(base=BASE, points=[{"n": 5}, {"n": 7, "l": 3}])
        points = sweep.expand()
        assert points[0].scenario_dict["n"] == 5
        assert points[1].scenario_dict["l"] == 3
        # untouched fields come from the base
        assert points[0].scenario_dict["horizon"] == 400.0

    def test_dotted_override_reaches_nested_field(self):
        sweep = Sweep(base=BASE, axes={"traffic.rate": [0.01, 0.09]})
        points = sweep.expand()
        assert [p.scenario_dict["traffic"]["rate"] for p in points] \
            == [0.01, 0.09]
        # the rest of the traffic block is preserved
        assert points[0].scenario_dict["traffic"]["kind"] == "poisson"

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Sweep(base=BASE, points=[{"n": 5}, {"n": 5}]).expand()

    def test_axes_and_points_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Sweep(base=BASE, axes={"n": [4]}, points=[{"n": 5}])
        with pytest.raises(ValueError):
            Sweep(base=BASE)

    def test_round_trip_through_dict(self):
        sweep = tiny_sweep(name="rt", seed=7)
        back = sweep_from_dict(json.loads(json.dumps(sweep_to_dict(sweep))))
        assert [p.scenario_dict for p in back.expand()] \
            == [p.scenario_dict for p in sweep.expand()]

    @pytest.mark.parametrize("axis", ["traffic.rte", "mobility.wander",
                                      "topology.ringz"])
    def test_misspelt_axis_rejected_before_any_run(self, axis):
        from repro.fabric import Topology
        kwargs = {"topology": Topology(rings=2)} if "topology" in axis else {}
        sweep = Sweep(base=BASE, axes={axis: [2, 3]}, **kwargs)
        with pytest.raises(ValueError, match=axis.rsplit(".", 1)[1]):
            sweep.expand()
        events = []
        runner = CampaignRunner(sweep, workers=2,
                                progress=lambda ev, p=None, **i:
                                events.append(ev))
        with pytest.raises(ValueError):
            runner.run()
        assert events == []


class TestSeedDerivation:
    def test_points_get_independent_derived_seeds(self):
        seeds = [p.scenario_dict["seed"] for p in tiny_sweep().expand()]
        assert len(set(seeds)) == len(seeds)
        assert all(s != BASE.seed for s in seeds)

    def test_derivation_is_stable_and_order_free(self):
        a = {p.key: p.scenario_dict["seed"] for p in tiny_sweep().expand()}
        reordered = tiny_sweep(axes={"l": [2, 1], "n": [6, 4]}).expand()
        for p in reordered:
            assert p.scenario_dict["seed"] == a[p.key]

    def test_master_seed_changes_every_point(self):
        a = [p.scenario_dict["seed"] for p in tiny_sweep(seed=0).expand()]
        b = [p.scenario_dict["seed"] for p in tiny_sweep(seed=1).expand()]
        assert all(x != y for x, y in zip(a, b))

    def test_explicit_seed_override_wins(self):
        sweep = Sweep(base=BASE, points=[{"n": 4, "seed": 123}])
        assert sweep.expand()[0].scenario_dict["seed"] == 123

    def test_derive_seeds_false_keeps_base_seed(self):
        sweep = tiny_sweep(derive_seeds=False)
        assert all(p.scenario_dict["seed"] == BASE.seed
                   for p in sweep.expand())

    def test_rng_derive_is_deterministic(self):
        assert RandomStreams(5).derive("x") == RandomStreams(5).derive("x")
        assert RandomStreams(5).derive("x") != RandomStreams(5).derive("y")
        assert RandomStreams(5).derive("x") != RandomStreams(6).derive("x")


class TestApplyOverrides:
    def test_base_not_mutated(self):
        base = {"a": {"b": 1}}
        out = apply_overrides(base, {"a.b": 2, "c": 3})
        assert base == {"a": {"b": 1}}
        assert out == {"a": {"b": 2}, "c": 3}

    def test_override_creates_missing_parents(self):
        out = apply_overrides({}, {"mobility.wander_radius": 4.0})
        assert out == {"mobility": {"wander_radius": 4.0}}


# ----------------------------------------------------------------------
class TestDeterminism:
    """The cache's correctness assumption: a point's record is a pure
    function of its scenario dict (satellite: seed determinism)."""

    def test_same_scenario_same_summary_twice(self):
        scn = scenario_to_dict(Scenario(n=6, horizon=500.0, seed=3))
        a = normalize_record(run_point(scn))
        b = normalize_record(run_point(scn))
        a.pop("elapsed"), b.pop("elapsed")
        assert a == b

    def test_summary_identical_across_worker_process_boundary(self):
        sweep = Sweep(base=BASE, axes={"n": [4, 5, 6]})
        serial = CampaignRunner(sweep, workers=0, progress=QUIET).run()
        parallel = CampaignRunner(sweep, workers=3, progress=QUIET).run()
        assert serial.ok and parallel.ok
        for s, p in zip(serial.records, parallel.records):
            assert s["hash"] == p["hash"]
            assert s["summary"] == p["summary"]
            assert s["scenario"] == p["scenario"]

    def test_different_seeds_differ(self):
        base = scenario_to_dict(Scenario(n=6, horizon=500.0, seed=3))
        other = dict(base, seed=4)
        a = run_point(base)["summary"]
        b = run_point(other)["summary"]
        assert a != b


# ----------------------------------------------------------------------
class TestStore:
    def test_hash_covers_scenario_content(self):
        a = scenario_to_dict(Scenario(n=4))
        b = scenario_to_dict(Scenario(n=5))
        assert point_hash(a) != point_hash(b)
        assert point_hash(a) == point_hash(dict(a))

    def test_put_get_reload(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        record = {"hash": "abc", "summary": {"delivered": 1}}
        store.put(record)
        assert "abc" in store
        fresh = ResultStore(tmp_path / "c")
        assert fresh.get("abc")["summary"] == {"delivered": 1}

    def test_truncated_tail_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.put({"hash": "abc", "summary": {}})
        with store.results_path.open("a") as fh:
            fh.write('{"hash": "def", "summ')   # crash mid-write
        fresh = ResultStore(tmp_path / "c")
        assert "abc" in fresh and "def" not in fresh

    def test_write_index(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.put({"hash": "abc", "summary": {}, "label": "n=4"})
        store.write_index()
        index = json.loads(store.index_path.read_text())
        assert index["count"] == 1
        assert "abc" in index["points"]


# ----------------------------------------------------------------------
class TestRunner:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        sweep = tiny_sweep()
        store = ResultStore(tmp_path / "c")
        first = CampaignRunner(sweep, store, workers=0, progress=QUIET).run()
        assert first.cached == 0 and first.ran == 4
        events = []
        second = CampaignRunner(
            sweep, ResultStore(tmp_path / "c"), workers=0,
            progress=lambda ev, p=None, **i: events.append(ev)).run()
        assert second.cached == 4 and second.ran == 0
        assert events.count("cached") == 4
        # and the records agree with the cold run
        for a, b in zip(first.records, second.records):
            assert a["summary"] == b["summary"]

    def test_interrupted_campaign_resumes_remaining_points(self, tmp_path):
        sweep = tiny_sweep()
        points = sweep.expand()
        store = ResultStore(tmp_path / "c")
        # simulate a crash after two completed points
        for point in points[:2]:
            record = normalize_record(run_point(point.scenario_dict))
            record["hash"] = point_hash(point.scenario_dict)
            store.put(record)
        result = CampaignRunner(sweep, ResultStore(tmp_path / "c"),
                                workers=0, progress=QUIET).run()
        assert result.cached == 2 and result.ran == 2
        assert len(result.records) == 4

    def test_failed_point_reported_and_rest_completes(self, tmp_path):
        # n=1 fails Scenario validation inside the worker
        sweep = Sweep(base=BASE, points=[{"n": 4}, {"n": 1}])
        result = CampaignRunner(sweep, ResultStore(tmp_path / "c"),
                                workers=2, retries=1, progress=QUIET).run()
        assert not result.ok
        assert len(result.records) == 1
        [failure] = result.failures
        assert failure.point.overrides == {"n": 1}
        assert failure.attempts == 2
        assert "at least 2 stations" in failure.error

    def test_serial_failure_path(self):
        sweep = Sweep(base=BASE, points=[{"n": 1}, {"n": 4}])
        result = CampaignRunner(sweep, workers=0, retries=0,
                                progress=QUIET).run()
        assert len(result.failures) == 1 and len(result.records) == 1

    def test_timeout_kills_and_fails_point(self, tmp_path, monkeypatch):
        # make the worker hang: horizon so large the run outlives the timeout
        sweep = Sweep(base=BASE, points=[{"n": 4, "horizon": 5e7}])
        result = CampaignRunner(sweep, workers=1, timeout=0.2, retries=0,
                                progress=QUIET).run()
        assert not result.ok
        assert "timeout" in result.failures[0].error

    def test_records_ordered_by_sweep_not_completion(self, tmp_path):
        sweep = Sweep(base=BASE, mode="zip",
                      axes={"n": [12, 4, 8], "horizon": [900.0, 100.0,
                                                         400.0]})
        result = CampaignRunner(sweep, workers=3, progress=QUIET).run()
        assert [r["scenario"]["n"] for r in result.records] == [12, 4, 8]


# ----------------------------------------------------------------------
class TestAggregation:
    def run_records(self):
        sweep = tiny_sweep()
        return sweep, CampaignRunner(sweep, workers=0,
                                     progress=QUIET).run().records

    def test_get_field_resolution_order(self):
        record = {"hash": "h", "summary": {"delivered": 9},
                  "scenario": {"n": 4, "traffic": {"rate": 0.02}}}
        assert get_field(record, "hash") == "h"
        assert get_field(record, "delivered") == 9
        assert get_field(record, "n") == 4
        assert get_field(record, "traffic.rate") == 0.02
        assert get_field(record, "nope") is None

    def test_table_and_markdown(self):
        sweep, records = self.run_records()
        table = campaign_table(records, ["n", "l", "delivered"], title="t")
        assert table.startswith("=== t ===")
        assert len(table.splitlines()) == 2 + len(records)
        md = campaign_markdown(records, ["n", "l", "delivered"])
        assert md.splitlines()[0] == "| n | l | delivered |"

    def test_default_columns_start_with_axes(self):
        sweep, records = self.run_records()
        columns = default_columns(sweep, records)
        headers = [c[0] if isinstance(c, tuple) else c for c in columns]
        assert headers[:2] == ["n", "l"]
        assert "delivered" in headers

    def test_aligned_table_matches_harness_format(self):
        out = aligned_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        assert out == " a     bb\n 1  2.500\n10  0.250"


# ----------------------------------------------------------------------
class TestSummaryConfigEcho:
    def test_summary_carries_resolved_config(self):
        from repro.scenarios import run_scenario
        scn = Scenario(n=5, l=2, k=1, horizon=300.0, seed=42,
                       traffic=TrafficMix(kind="poisson", rate=0.03))
        summary = run_scenario(scn).summary()
        config = summary["config"]
        assert config["n"] == 5 and config["l"] == 2 and config["k"] == 1
        assert config["seed"] == 42 and config["horizon"] == 300.0
        assert config["traffic"]["kind"] == "poisson"
        assert config["traffic"]["rate"] == 0.03

    def test_campaign_records_share_the_shape(self, tmp_path):
        result = CampaignRunner(Sweep(base=BASE, points=[{"n": 4}]),
                                ResultStore(tmp_path / "c"),
                                workers=0, progress=QUIET).run()
        [record] = result.records
        config = record["summary"]["config"]
        assert config["n"] == 4
        assert config["seed"] == record["scenario"]["seed"]
