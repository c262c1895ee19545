"""The SAT hop's order, pinned under subscribers that act mid-hop.

One SAT hop (arrival, visit bookkeeping, release) emits up to four events:
``SatArrive``, ``SatHold``, ``SatRotation`` and ``SatRelease``.  A
subscriber may change the ring from inside any of them — enqueue at the
holder, kill it, announce its own or its successor's leave, or drop the
signal — and what the rest of the hop does next depends on which state it
re-reads and when.  Each case below acts once, at the k-th event of one type, on a
6-station traced Poisson ring, and compares the run's outcome (summary,
trace hash, per-station SAT state) with a digest pinned from the reference
implementation.  Any reordering of the hop's emits, state writes or
re-checks changes at least one of them.
"""

import hashlib
import json

import pytest

from repro.core.packet import Packet, ServiceClass
from repro.events import types as ev
from repro.fuzz.runner import hash_trace
from repro.scenarios import Scenario, TrafficMix, build_scenario

HORIZON = 400.0

#: the event a subscriber waits for, and the occurrence it acts at
TRIGGERS = {"arrive": (ev.SatArrive, 40), "hold": (ev.SatHold, 6),
            "rotation": (ev.SatRotation, 30), "release": (ev.SatRelease, 40)}


def _enqueue_premium(net, holder, t):
    net.enqueue(Packet(src=holder, dst=net.successor(holder),
                       service=ServiceClass.PREMIUM, created=t))


def _kill_holder(net, holder, t):
    net.kill_station(holder)


def _successor_leaves(net, holder, t):
    net.leave_gracefully(net.successor(holder))


def _holder_leaves(net, holder, t):
    # a leaving station is satisfied: whatever the hop reads after this
    # emit must see the holder satisfied
    net.leave_gracefully(holder)


def _drop_sat(net, holder, t):
    net.drop_sat()


ACTIONS = {"enqueue": _enqueue_premium, "kill": _kill_holder,
           "leave": _successor_leaves, "holder_leave": _holder_leaves,
           "drop": _drop_sat}

#: the hop's events, logged in emit order into the digest
LOGGED = (ev.SatArrive, ev.SatHold, ev.SatRotation, ev.SatRelease,
          ev.SatLost, ev.SatStaleDiscarded, ev.GracefulCutout,
          ev.SatTimeout, ev.SatRecovered, ev.RebuildDone)

#: sha256 of (summary, trace hash, SAT and station state, the logged
#: events), one per (trigger, action), from the reference SAT hop
PINNED = {
    ("arrive", "enqueue"):
        "127afcb2dce1833d2674b526ee1cc1992930e9bfd79d330eb8d92b9df737c136",
    ("arrive", "kill"):
        "a69922334356a3c9aac00fd5392deb5ee7c29600de89518bed143dcadd6e8d75",
    ("arrive", "leave"):
        "baa901723382eef759588dc6256d00486b595404ce87f193e5faf8a254227a57",
    ("arrive", "drop"):
        "dd7bd8a12b248eff68b2d1c1cd2d01d9af70f18693cf24b422839566ef7d5a72",
    ("arrive", "holder_leave"):
        "63d0ba004908e2e1ad390917bb20fdda3da3242d4f29ca70b1b1e7b554d79206",
    ("hold", "enqueue"):
        "c139ad5c47693d6425c176a80c6edbd70bce2164d21620758342e3d8dd323460",
    ("hold", "kill"):
        "b82868a600b3feac4b4520239466501362bf3cd45669826e6886a1c5d0a51d9d",
    ("hold", "leave"):
        "d944999df13ece01847021cc4b0f7d8e1542ae58e6885ca50c61479eccf11e4b",
    ("hold", "drop"):
        "0106972a519650665cae328d6bc58de99e86badfc530b56829c404c999adac5c",
    ("hold", "holder_leave"):
        "e5bb253e8ff8a46f2f114ab08f724dd31be0c864236f34fd565cf326ee40007c",
    ("rotation", "enqueue"):
        "839a3d1fe87fa822ce44177269596af26ba413e40a081848c99faf4c1421f11b",
    ("rotation", "kill"):
        "cb2481e2763463ee197e8266388870877c1e5a5f2975205b864c91ac74dac24f",
    ("rotation", "leave"):
        "11cccf77fb98bc2b7c149a81ae7cc19bf2420ad7d1fcc1f0daff42f0799eceaa",
    ("rotation", "drop"):
        "1d9a40c24a299f50fc852b20d26e0fdb62ebf75ec61a4ac5725e2c18774235b5",
    ("rotation", "holder_leave"):
        "1b3dc0987bc4d805222b3c38fdd5c7589855c6d2232cea3ae404e856d4d892d2",
    ("release", "enqueue"):
        "13da1dd8d786354fee6e268c82df8223ad3be6a16c9dd4d0bedef879050d18a1",
    ("release", "kill"):
        "da91492c1253b9b9fc3db3283aa9299384bb341e5f22e161938ddbfd1c2482f7",
    ("release", "leave"):
        "678388b7b29c27179f6cdbee530a2d575eeeda6392658c978b0a942d085570aa",
    ("release", "drop"):
        "f4b40ce0b56bcf5ecb3ecb1c5292bf6bf424641864bdf5d316e61c939ea4ef63",
    ("release", "holder_leave"):
        "5e0bd4e8b1e041189ce0a50b6ca4868054c5685be44e77f348c05dd773962733",
}


def sat_state(net):
    sat = net.sat
    stations = {
        sid: [st.alive, st.leaving, st.rt_pck, st.nrt_pck, st.as_pck,
              st.be_pck, st.sat_visits, st.sat_holds, st.last_sat_arrival,
              st.last_sat_departure, st.last_sat_seq, st.queue_length(),
              len(st.transit)]
        for sid, st in sorted(net.stations.items())}
    return {"sat": [sat.kind, sat.at_station, sat.in_flight_to,
                    sat.arrival_time, sat.hops, sat.rounds, sat.seq,
                    sat.rap_mutex, net._sat_lost],
            "order": list(net.order), "stations": stations,
            "rotations": {sid: net.rotation_log.samples(sid)
                          for sid in net.rotation_log.stations()},
            "recoveries": [[r.kind, r.failed_station, r.t_detected,
                            r.t_completed, r.outcome]
                           for r in net.recovery.records]}


def run_case(trigger, action):
    etype, k = TRIGGERS[trigger]
    built = build_scenario(Scenario(
        n=6, horizon=HORIZON, seed=11,
        traffic=TrafficMix(kind="poisson", rate=0.12,
                           service=ServiceClass.PREMIUM)))
    net = built.network
    # every SAT event in emit order (not all of them are traced)
    emitted = []
    for logged in LOGGED:
        net.events.subscribe(logged, lambda e: emitted.append(
            [e.category, e.fields()]))
    seen = []

    def act(event):
        seen.append(event.t)
        if len(seen) == k:
            ACTIONS[action](net, event.station, event.t)

    net.events.subscribe(etype, act)
    built.engine.run(until=HORIZON)
    assert len(seen) >= k, f"only {len(seen)} {etype.__name__} events"
    blob = json.dumps([built.summary(), hash_trace(built.trace),
                       sat_state(net), emitted], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("trigger,action", sorted(PINNED),
                         ids=[f"{t}-{a}" for t, a in sorted(PINNED)])
def test_mid_hop_subscriber_outcome_is_pinned(trigger, action):
    assert run_case(trigger, action) == PINNED[(trigger, action)]
