"""Tests for scenario JSON (de)serialization and the --config CLI path."""

import json

import pytest

from repro.config_io import (load_scenario, save_scenario, scenario_from_dict,
                             scenario_to_dict)
from repro.core import QuotaConfig, ServiceClass
from repro.faults import FaultSchedule
from repro.scenarios import MobilitySpec, Scenario, TrafficMix, run_scenario


def full_scenario():
    return Scenario(
        n=6, placement="circle", radius=25.0, range_margin=2.4,
        l=2, k=2, rap_enabled=True, t_ear=7, t_update=4,
        quotas={sid: QuotaConfig.three_class(2, 1, 1) for sid in range(6)},
        traffic=TrafficMix(kind="cbr", period=30.0,
                           service=ServiceClass.PREMIUM, deadline=400.0),
        mobility=MobilitySpec(wander_radius=2.0, speed=0.3, update_every=20),
        faults=FaultSchedule.builder().kill(3, at=1000).build(),
        check_invariants=True, horizon=2500.0, seed=9)


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        scn = full_scenario()
        data = scenario_to_dict(scn)
        back = scenario_from_dict(data)
        assert scenario_to_dict(back) == data

    def test_json_round_trip(self, tmp_path):
        scn = full_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(scn)
        # the file is genuinely JSON
        json.loads(path.read_text())

    def test_round_tripped_scenario_runs_identically(self, tmp_path):
        scn = Scenario(n=5, horizon=1200, seed=4,
                       traffic=TrafficMix(kind="poisson", rate=0.06))
        path = tmp_path / "s.json"
        save_scenario(scn, path)
        a = run_scenario(scn).summary()
        b = run_scenario(load_scenario(path)).summary()
        assert a == b

    def test_minimal_dict(self):
        scn = scenario_from_dict({"n": 4, "horizon": 500})
        assert scn.n == 4 and scn.horizon == 500
        assert scn.traffic.kind == "poisson"   # defaults kept

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"n": 4, "warp_drive": True})
        # every nested level rejects a typo too, and names itself
        for data, level in [({"traffic": {"kind": "cbr", "rte": 0.1}},
                             "traffic"),
                            ({"mobility": {"wander": 1.0}}, "mobility"),
                            ({"arena": {"width": 50.0, "depth": 9.0}},
                             "arena")]:
            with pytest.raises(ValueError, match=f"unknown {level} keys"):
                scenario_from_dict(data)
        from repro.fabric import topology_from_dict
        flow = {"src_ring": 0, "src_station": 1, "dst_ring": 1,
                "dst_station": 2, "sevice": "premium"}
        with pytest.raises(ValueError, match="unknown topology.flows keys"):
            topology_from_dict({"topology": {"flows": [flow]}})

    def test_unknown_service_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"traffic": {"kind": "cbr",
                                            "service": "platinum"}})

    def test_onoff_traffic_round_trip(self):
        scn = Scenario(n=6, traffic=TrafficMix(kind="onoff", peak_rate=0.08,
                                               mean_on=120.0, mean_off=480.0),
                       horizon=1000.0, seed=3)
        data = scenario_to_dict(scn)
        assert data["traffic"]["peak_rate"] == 0.08
        back = scenario_from_dict(data)
        assert back.traffic.kind == "onoff"
        assert back.traffic.mean_on == 120.0
        assert scenario_to_dict(back) == data

    def test_calls_round_trip(self):
        from repro.qoe.sessions import CallsSpec
        scn = Scenario(n=8, rap_enabled=True, use_channel=True,
                       traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=20, arrival_rate=0.01,
                                       deadline=300.0, join_via_rap=True),
                       horizon=2000.0, seed=4)
        data = scenario_to_dict(scn)
        back = scenario_from_dict(data)
        assert back.calls == scn.calls
        assert scenario_to_dict(back) == data

    def test_no_calls_key_when_absent(self):
        data = scenario_to_dict(Scenario(n=4))
        assert "calls" not in data
        assert scenario_from_dict(data).calls is None

    def test_faults_survive(self):
        scn = full_scenario()
        back = scenario_from_dict(scenario_to_dict(scn))
        assert len(back.faults.events) == 1
        assert back.faults.events[0].kind == "kill"
        assert back.faults.events[0].station == 3


class TestCliConfig:
    def test_simulate_with_config_file(self, tmp_path, capsys):
        from repro.cli import main
        scn = Scenario(n=5, horizon=1000, seed=2,
                       traffic=TrafficMix(kind="poisson", rate=0.05,
                                          service=ServiceClass.PREMIUM,
                                          deadline=300.0))
        path = tmp_path / "cfg.json"
        save_scenario(scn, path)
        rc = main(["simulate", "--config", str(path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delivered"] > 0
        assert payload["bound_holds"]
        # a flag given with --config overrides that key
        rc = main(["simulate", "--config", str(path), "--n", "7", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n"] == 7 and len(payload["members"]) == 7
        assert payload["config"]["seed"] == 2    # the rest is the file's


def _digest(dicts):
    """sha256 over the dicts as written, key order included."""
    import hashlib
    text = "\n".join(json.dumps(d, separators=(",", ":")) for d in dicts)
    return hashlib.sha256(text.encode()).hexdigest()


def _scenario_families():
    import glob
    import os

    from repro.fuzz.bundle import load_bundle
    from repro.fuzz.generate import generate_case
    from repro.kernel.diff import seeded_grid

    root = os.path.dirname(os.path.dirname(__file__))
    corpus = sorted(glob.glob(os.path.join(root, "tests", "corpus", "*.json")))
    return {
        "examples": [load_scenario(os.path.join(root, "examples",
                                                "conference_call.json"))],
        "corpus": [scenario_from_dict(load_bundle(p)["case"]["scenario"])
                   for p in corpus],
        "generated": [scenario_from_dict(generate_case(1, i).scenario)
                      for i in range(50)],
        "grid": seeded_grid(),
    }


def _topologies():
    import os

    from repro.fabric import CrossFlow, GatewayLink, Topology, load_topology

    root = os.path.dirname(os.path.dirname(__file__))
    return [
        load_topology(os.path.join(root, "examples",
                                   "conference_building.json")),
        Topology(),
        Topology(rings=3,
                 links=[GatewayLink(0, 1, 1, 2), GatewayLink(1, 0, 2, 3)],
                 flows=[CrossFlow(0, 1, 2, 3, kind="poisson", rate=0.05,
                                  service=ServiceClass.ASSURED,
                                  deadline=90.0),
                        CrossFlow(2, 0, 0, 4)]),
        Topology(rings=2, ring_size=6,
                 base=Scenario(kernel="batched", adaptive_timers=True),
                 flow_service=ServiceClass.BEST_EFFORT, frame_ttl=40.0,
                 sync_window=12.0),
    ]


class TestPinnedShapes:
    """The dict shapes the config codec writes, pinned per input family.

    Config files, corpus bundles, ``--json`` config echoes and the
    campaign-store cache keys (canonical JSON of these dicts) all depend on
    them, so a codec change must reproduce them byte for byte.
    """

    SCENARIO = {
        "examples": "5484e76f4b48e39ce8b5d6a3d61937f5"
                    "ef8fda47641a2c3ad38815602326c4cc",
        "corpus": "4db3c8980e988bc4802bd70f466d36b9"
                  "10e0bfd3a8013b4ee292af2e8eca07cc",
        "generated": "aa39beb04a99f7374af832f9c14c9a6b"
                     "f16ae77080d028fa9ba5d7faaa364e3a",
        "grid": "65233e8f1c4b4b839e950e8e614bbd39"
                "997b1d3247510b807c5b6c1f79af32cb",
    }
    RESOLVED = {
        "examples": "baf4b67b1707267856be4160475e389c"
                    "a9c42e57868978bd7fd23f86eb217436",
        "corpus": "6de66ffa600cbb1a91766e6ece38c2a1"
                  "96ddb4080dadbd1001213ea15f9f256b",
        "generated": "92b5dff50840137cd84f6b90288a8d60"
                     "9227110877c7087293f094440ddeb90e",
        "grid": "819f4c920e51dc9f2f780f371e184334"
                "996476956c3f79bae327715fa5c0b8f7",
    }
    TOPOLOGY = ("3faf78f711b89ad3427b5fcef4df158f"
                "528b6162eab8f5d16b538d2524b3b0bc")

    @pytest.mark.parametrize("family", sorted(SCENARIO))
    def test_scenario_dicts(self, family):
        scenarios = _scenario_families()[family]
        assert _digest(scenario_to_dict(s) for s in scenarios) == \
            self.SCENARIO[family]

    @pytest.mark.parametrize("family", sorted(RESOLVED))
    def test_resolved_config(self, family):
        from repro.scenarios import build_scenario
        scenarios = _scenario_families()[family]
        assert _digest(build_scenario(s).resolved_config()
                       for s in scenarios) == self.RESOLVED[family]

    def test_topology_dicts(self):
        from repro.fabric import topology_to_dict
        assert _digest(topology_to_dict(t) for t in _topologies()) == \
            self.TOPOLOGY
