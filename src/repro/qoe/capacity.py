"""Voice-call capacity search: WRT-Ring vs TPT vs CSMA, in MOS terms.

The paper compares MACs by aggregate throughput and delay bounds; end
users experience *calls that sound acceptable or don't*.  This driver
restates the comparison in those terms: the **capacity** of a protocol is
the largest number of concurrent voice calls for which at least
``target`` (default 95%) of the offered calls score at or above the MOS
floor (default 3.5).

The search doubles the call count until the criterion fails, then binary
searches the boundary; every probe is one deterministic seeded run, and
all probes are reported so a capacity claim is auditable from its output.

WRT-Ring runs through the full :mod:`repro.scenarios` stack (admission
disabled — capacity is a *measurement*, CAC would clip the overload
probes).  TPT and CSMA are driven directly with the same session
parameters and the same scorer attached to their event buses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.qoe.score import PerceptualScorer
from repro.qoe.sessions import CallsSpec
from repro.scenarios import Scenario, TrafficMix, run_scenario
from repro.sim.rng import RandomStreams
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import OnOffSource

__all__ = ["CapacityResult", "CAPACITY_SPEC", "measure_fraction",
           "voice_capacity", "capacity_table", "PROTOCOLS"]

PROTOCOLS = ("wrt", "tpt", "csma")

#: session parameters pinned for capacity probes: calls ramp in quickly
#: (one every ~2 slots) and hold for effectively the whole run, so the
#: probe measures steady concurrent load, not churn
CAPACITY_SPEC = CallsSpec(count=1, arrival_rate=0.5, mean_holding=1e6,
                          admission=False)


@dataclass
class CapacityResult:
    """Outcome of one protocol's capacity search."""

    protocol: str
    capacity: int                 # max calls meeting the criterion (0 = none)
    target: float
    mos_floor: float
    stations: int
    horizon: float
    probes: Dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"protocol": self.protocol, "capacity": self.capacity,
                "target": self.target, "mos_floor": self.mos_floor,
                "stations": self.stations, "horizon": self.horizon,
                "probes": {str(k): round(v, 4)
                           for k, v in sorted(self.probes.items())}}


# ----------------------------------------------------------------------
# per-protocol probes: calls -> fraction of calls at/above the MOS floor
# ----------------------------------------------------------------------
def _measure_wrt(calls: int, stations: int, horizon: float, seed: int,
                 spec: CallsSpec) -> float:
    scenario = Scenario(
        n=stations, l=2, k=1, traffic=TrafficMix(kind="none"),
        calls=replace(spec, count=calls),
        horizon=horizon, seed=seed)
    result = run_scenario(scenario)
    return result.sessions.fraction_acceptable()


def _build_tpt(engine, stations: int):
    from repro.baselines import TPTConfig, TPTNetwork, choose_ttrt
    from repro.phy.geometry import ring_placement
    from repro.phy.topology import ConnectivityGraph, build_bfs_tree

    graph = ConnectivityGraph(ring_placement(stations, radius=30.0), 120.0)
    children = build_bfs_tree(graph, root=0)
    ttrt = choose_ttrt([3] * stations, 2 * (stations - 1), margin=1.5)
    return TPTNetwork(engine, children, root=0,
                      config=TPTConfig(H={i: 3 for i in range(stations)},
                                       ttrt=ttrt), graph=graph)


def _build_csma(engine, stations: int, seed: int):
    from repro.baselines import CSMAConfig, CSMANetwork
    return CSMANetwork(engine, list(range(stations)), config=CSMAConfig(),
                       rng=random.Random(seed))


def _measure_baseline(protocol: str, calls: int, stations: int,
                      horizon: float, seed: int, spec: CallsSpec) -> float:
    from repro.sim.engine import Engine

    engine = Engine()
    if protocol == "tpt":
        net = _build_tpt(engine, stations)
    elif protocol == "csma":
        net = _build_csma(engine, stations, seed)
    else:  # pragma: no cover - guarded by measure_fraction
        raise ValueError(f"unknown baseline {protocol!r}")

    scorer = PerceptualScorer(slot_ms=spec.slot_ms).attach(net.events)
    streams = RandomStreams(seed)
    pick = streams.stream("capacity.pick")
    arrivals = streams.stream("capacity.arrivals")
    members = list(range(stations))
    call_flows: List[List[Tuple[FlowSpec, OnOffSource]]] = []
    t = 0.0
    for cid in range(calls):
        t += arrivals.expovariate(spec.arrival_rate)
        holding = arrivals.expovariate(1.0 / spec.mean_holding)
        a = pick.choice(members)
        b = pick.choice([m for m in members if m != a])
        directions = []
        for s, d in ((a, b), (b, a)):
            flow = FlowSpec(src=s, dst=d, service=spec.service_class,
                            deadline=spec.deadline)
            source = OnOffSource(
                engine, flow, net.enqueue, spec.peak_rate,
                spec.mean_talkspurt, spec.mean_silence,
                rng=streams.stream(f"capacity.onoff.{cid}.{s}"),
                start=t, stop=t + holding)
            scorer.register_flow(flow.flow_id)
            directions.append((flow, source))
        call_flows.append(directions)

    net.start()
    engine.run(until=horizon)

    good = 0
    for directions in call_flows:
        mos = min(scorer.finalize_flow(flow.flow_id, source.packets,
                                       now=engine.now).mos
                  for flow, source in directions)
        if mos >= spec.mos_floor:
            good += 1
    return good / calls if calls else 1.0


def measure_fraction(protocol: str, calls: int, stations: int = 12,
                     horizon: float = 4000.0, seed: int = 1,
                     spec: CallsSpec = CAPACITY_SPEC) -> float:
    """Fraction of ``calls`` concurrent calls at/above the MOS floor."""
    if protocol == "wrt":
        return _measure_wrt(calls, stations, horizon, seed, spec)
    if protocol in ("tpt", "csma"):
        return _measure_baseline(protocol, calls, stations, horizon, seed,
                                 spec)
    raise ValueError(f"unknown protocol {protocol!r}; known: {PROTOCOLS}")


# ----------------------------------------------------------------------
def _search(probe: Callable[[int], float], target: float,
            max_calls: int) -> Tuple[int, Dict[int, float]]:
    """Largest M in [0, max_calls] with probe(M) >= target (doubling +
    bisection; every probe memoized and reported)."""
    probes: Dict[int, float] = {}

    def measure(m: int) -> float:
        if m not in probes:
            probes[m] = probe(m)
        return probes[m]

    if measure(1) < target:
        return 0, probes
    lo, hi = 1, 2
    while hi <= max_calls and measure(hi) >= target:
        lo, hi = hi, hi * 2
    if lo >= max_calls:
        return max_calls, probes
    hi = min(hi, max_calls + 1)
    # invariant: measure(lo) >= target, measure(hi) < target (or hi off-range)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if measure(mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo, probes


def voice_capacity(protocol: str, stations: int = 12,
                   horizon: float = 4000.0, seed: int = 1,
                   target: float = 0.95, max_calls: int = 64,
                   spec: CallsSpec = CAPACITY_SPEC) -> CapacityResult:
    """Binary-search ``protocol``'s voice-call capacity."""
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must be in (0, 1], got {target!r}")
    capacity, probes = _search(
        lambda m: measure_fraction(protocol, m, stations, horizon, seed,
                                   spec),
        target, max_calls)
    return CapacityResult(protocol=protocol, capacity=capacity,
                          target=target, mos_floor=spec.mos_floor,
                          stations=stations, horizon=horizon, probes=probes)


def capacity_table(protocols: Sequence[str] = PROTOCOLS,
                   **kwargs) -> Dict[str, CapacityResult]:
    """The E25 comparison: capacity per protocol, same session parameters."""
    return {protocol: voice_capacity(protocol, **kwargs)
            for protocol in protocols}
