"""``stop()`` ends a network's ticking, whether it runs between two
``run()`` calls or from inside a tick (a tick hook, say): every network
that ticks once per slot re-arms its tick only while it is not stopped,
and a stopped WRT-Ring keeps no watchdog armed."""

import random

import pytest

from repro.baselines import (CSMAConfig, CSMANetwork, TPTConfig, TPTNetwork,
                             choose_ttrt)
from repro.core import WRTRingConfig, WRTRingNetwork
from repro.kernel import install_batched_kernel
from repro.sim import Engine

N = 5


def wrt_ring(engine, batched=False):
    cfg = WRTRingConfig.homogeneous(range(N), l=2, k=1, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(N)), cfg)
    if batched:
        install_batched_kernel(net)
    return net


def csma(engine):
    return CSMANetwork(engine, list(range(N)), config=CSMAConfig(),
                       rng=random.Random(0))


def tpt(engine):
    children = {i: [] for i in range(N)}
    children[0] = list(range(1, N))
    cfg = TPTConfig(H={i: 2 for i in range(N)},
                    ttrt=choose_ttrt([2] * N, 2 * (N - 1), margin=2.0))
    return TPTNetwork(engine, children, root=0, config=cfg)


NETWORKS = {"wrt-ring": wrt_ring,
            "wrt-ring-batched": lambda e: wrt_ring(e, batched=True),
            "csma": csma, "tpt": tpt}


@pytest.mark.parametrize("where", ["inside-a-tick", "between-runs"])
@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_stop_ends_the_ticking(kind, where):
    engine = Engine()
    net = NETWORKS[kind](engine)
    ticks = []

    def hook(t):
        ticks.append(t)
        if where == "inside-a-tick" and t == 10.0:
            net.stop()

    net.add_tick_hook(hook)
    net.start()
    if where == "between-runs":
        engine.run(until=10.0)
        net.stop()
    engine.run(until=500.0)
    assert ticks == [float(t) for t in range(11)]
    if kind.startswith("wrt-ring"):
        # the stopping slot's SAT step runs after the tick hooks and may
        # kick a SAT_TIMER: a stopped ring must still keep none armed, or
        # one fires later and launches a recovery
        assert net.recovery.records == []
        assert not any(t.running for t in net.recovery.timers.values())
