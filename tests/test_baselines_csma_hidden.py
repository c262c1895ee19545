"""Hidden-terminal behaviour of the CSMA baseline (graph-based sensing)."""

import random

import numpy as np

from repro.baselines import CSMAConfig, CSMANetwork
from repro.core import Packet, ServiceClass
from repro.phy import ConnectivityGraph
from repro.sim import Engine


def hidden_terminal_world():
    """Classic A - B - C line: A and C cannot hear each other."""
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    return ConnectivityGraph(pos, 12.0)   # A<->B, B<->C only


def make_net(graph=None, n=3, seed=0, **cfg):
    engine = Engine()
    net = CSMANetwork(engine, list(range(n)), config=CSMAConfig(**cfg),
                      rng=random.Random(seed), graph=graph)
    return engine, net


class TestHiddenTerminals:
    def test_hidden_senders_collide_at_common_receiver(self):
        graph = hidden_terminal_world()
        engine, net = make_net(graph)
        rng = random.Random(1)

        def top(t):
            for sid in (0, 2):   # A and C both flood B
                st = net.stations[sid]
                while len(st.rt_queue) < 4:
                    st.enqueue(Packet(src=sid, dst=1,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
        net.add_tick_hook(top)
        net.start()
        engine.run(until=4000)
        # carrier sense cannot prevent these: A never hears C
        assert net.hidden_terminal_collisions > 0
        # yet some frames do get through when backoffs miss each other
        assert net.metrics.total_delivered > 0

    def test_single_cell_has_no_hidden_collisions(self):
        engine, net = make_net(graph=None, n=6)
        rng = random.Random(2)

        def top(t):
            for sid, st in net.stations.items():
                while len(st.rt_queue) < 4:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
        net.add_tick_hook(top)
        net.start()
        engine.run(until=3000)
        assert net.collision_slots > 0
        assert net.hidden_terminal_collisions == 0

    def test_disjoint_cells_transmit_concurrently(self):
        """With a graph, spatially-separate pairs reuse the channel — the
        upside contention MACs get from space, correctly modelled."""
        pos = np.array([[0.0, 0.0], [5.0, 0.0], [500.0, 0.0], [505.0, 0.0]])
        graph = ConnectivityGraph(pos, 10.0)
        engine, net = make_net(graph, n=4)

        def top(t):
            for src, dst in ((0, 1), (2, 3)):
                st = net.stations[src]
                while len(st.rt_queue) < 4:
                    st.enqueue(Packet(src=src, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
        net.add_tick_hook(top)
        net.start()
        engine.run(until=3000)
        # both pairs progress; aggregate exceeds the single-cell ceiling is
        # possible here because the cells are independent
        assert net.stations[1].received[ServiceClass.PREMIUM] > 300
        assert net.stations[3].received[ServiceClass.PREMIUM] > 300
        assert net.hidden_terminal_collisions == 0   # no common receiver

    def test_half_duplex_destination(self):
        """Two stations transmitting *to each other* in the same slot lose
        both frames (a transmitting radio cannot receive)."""
        engine, net = make_net(graph=None, n=2, cw_min_rt=1, cw_min_be=1)
        t0 = 0.0
        net.stations[0].enqueue(Packet(src=0, dst=1,
                                       service=ServiceClass.PREMIUM,
                                       created=t0), t0)
        net.stations[1].enqueue(Packet(src=1, dst=0,
                                       service=ServiceClass.PREMIUM,
                                       created=t0), t0)
        net.start()
        engine.run(until=0.5)   # exactly the t=0 slot
        # cw_min=1 -> both fire in the first slot -> mutual loss
        assert net.metrics.total_delivered == 0
        assert net.collision_slots == 1

    def test_out_of_range_destination_lost(self):
        graph = hidden_terminal_world()
        engine, net = make_net(graph)
        net.start()
        engine.run(until=5)
        t0 = engine.now
        p = Packet(src=0, dst=2, service=ServiceClass.PREMIUM, created=t0)
        net.enqueue(p)
        engine.run(until=t0 + 100)
        # A fires; C is out of range: in this MAC the frame simply never
        # arrives (no multi-hop routing) — the delivery check is in-range
        assert not p.delivered
