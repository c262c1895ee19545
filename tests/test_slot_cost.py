"""Python calls per slot on the ring's fixed path, counted.

A ring-slot that moves no packet is the tick, the SAT hop and its watchdog
kick; on a light-load ring that is most slots.  These tests count the
Python-level calls into ``repro`` such slots make (``sys.setprofile``), so
a frame added to the per-slot path fails here whatever the host's speed.
The slot-0 prefill burst of the Sec. 2.6 worst case is counted per packet
the same way, the batched kernel's saturated windows that drain it per
slot, and the set-up of the shipped building fabric.

Comprehension frames are not counted: Python 3.12 inlines them, so
counting them would tie the bounds to the interpreter.
"""

import json
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core import ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.events.bus import EventBus
from repro.events.trace_adapter import TraceAdapter
from repro.fabric import FabricRunner, Topology, topology_from_dict
from repro.fabric.topology import Resolution
from repro.phy.topology import _nearest_neighbour_order
from repro.scenarios import Scenario, TrafficMix, build_scenario
from repro.sim import Engine
from repro.sim.trace import TraceRecorder

PACKAGE = os.path.dirname(repro.__file__) + os.sep
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

N, WARMUP, SLOTS = 48, 200, 2000


def calls_into_repro(fn) -> Counter:
    """Python-level calls into ``repro`` while ``fn()`` runs, by code
    object: look one function up as ``calls[func.__code__]`` (a code
    object's qualified name exists only from Python 3.11)."""
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(PACKAGE)
                    and code.co_name not in INLINED):
                calls[code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def idle_ring_calls_per_slot(trace):
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(N), l=2, k=1, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(N)), cfg, trace=trace)
    net.start()
    engine.run(until=float(WARMUP))   # past the first rotation
    hops = net.sat.hops
    calls = calls_into_repro(
        lambda: engine.run(until=float(WARMUP + SLOTS)))
    assert net.sat.hops - hops == SLOTS   # one SAT hop in every slot
    return sum(calls.values()) / SLOTS, calls.most_common(12)


def test_idle_ring_without_trace():
    # the tick, its body, the SAT hop, the watchdog kick (three calls)
    # and the tick's re-arm: 7, plus the watchdogs' stale-head re-files
    per_slot, top = idle_ring_calls_per_slot(trace=None)
    assert per_slot <= 8, top


def test_idle_ring_with_default_trace():
    # the trace-off path plus two recorded events (SAT rotation and
    # release), three calls each: the emit closure, the adapter's handler
    # and ``record_fields``
    per_slot, top = idle_ring_calls_per_slot(trace=TraceRecorder())
    assert per_slot <= 14, top


def test_bare_engine_chain():
    # ``kernel_step_rate``'s chain: each event schedules the next one
    engine = Engine()
    count = 20_000

    def chain(i):
        if i < count:
            engine.schedule(1.0, chain, i + 1)

    engine.schedule(0.0, chain, 0)
    calls = calls_into_repro(engine.run)
    assert engine.events_executed == count + 1
    per_event = sum(calls.values()) / engine.events_executed
    assert per_event <= 4, calls.most_common()


@pytest.mark.parametrize("kernel", ["scalar", "batched"])
def test_prefill_burst_per_packet(kernel):
    # each flow's burst enters its queue in one step, so a prefilled
    # packet costs its ``Packet.__init__``; the bursts' own calls and the
    # slot-0 tick spread over 8,000 packets
    scn = Scenario(n=8, l=2, k=1, horizon=10.0, kernel=kernel,
                   traffic=TrafficMix(kind="prefill", burst=500,
                                      service=ServiceClass.PREMIUM,
                                      neighbours_only=True))
    built = build_scenario(scn)
    calls = calls_into_repro(lambda: built.engine.run(until=0.5))
    packets = built.workload.generated()
    assert packets == 8 * 2 * 500   # a Premium and a best-effort flow each
    per_packet = sum(calls.values()) / packets
    assert per_packet <= 1.1, calls.most_common(8)


@pytest.mark.parametrize("traced,bound", [(True, 16.2), (False, 9.6)],
                         ids=["traced", "trace-off"])
def test_saturated_window_per_slot(traced, bound):
    # perfbench's ``saturated_bound`` ring, cut to 4,000 slots, counted
    # past its slot-0 prefill: 21 tick bodies, each followed by a window
    # (3,979 slots in all).  A window slot costs its sends' ``_pop_class``
    # calls and, traced, three calls per recorded SAT event.  Measured
    # 14.72 calls per slot traced and 8.75 trace-off (58,897 and 34,993)
    scn = Scenario(n=32, l=2, k=1, horizon=4000.0, kernel="batched",
                   traffic=TrafficMix(kind="prefill", burst=1500,
                                      service=ServiceClass.PREMIUM,
                                      neighbours_only=True))
    built = build_scenario(scn)
    if not traced:
        built.trace.enable_only(())
    built.engine.run(until=0.5)
    calls = calls_into_repro(lambda: built.engine.run(until=scn.horizon))
    bodies = calls[WRTRingNetwork._tick_body.__code__]
    slots = bodies + built.network.tick_driver.__self__.sat_slots
    assert slots == 4000
    # no hop inside a window runs the real SAT step
    assert calls[WRTRingNetwork._sat_step.__code__] == bodies == 21
    per_slot = sum(calls.values()) / slots
    assert per_slot <= bound, calls.most_common(12)


def test_building_fabric_setup():
    # the building fabric (24 rings x 48 stations, serial, trace off) as
    # perfbench's ``building_fabric`` sets it up: 86,883 calls when each
    # ring built eight nearest-neighbour tours it never tried, each shard
    # resolved every flow and route again, and each ring subscribed its
    # 45 trace renderings only to drop them; 25,154 measured since
    config = Path(__file__).parents[1] / "examples" / "conference_building.json"
    topo = topology_from_dict(json.loads(config.read_text()))
    calls = calls_into_repro(
        lambda: FabricRunner(topo, mode="serial", trace=False))
    assert sum(calls.values()) <= 27_700, calls.most_common(12)
    assert calls[_nearest_neighbour_order.__code__] == 0
    assert calls[EventBus.unsubscribe.__code__] == 0
    assert calls[TraceAdapter._direct_handler.__code__] == 0
    # one resolution of links, flows and routes for all 24 shards
    assert calls[Resolution.__init__.__code__] == 1
    assert calls[Topology.ring_neighbours.__code__] == 1
