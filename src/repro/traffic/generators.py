"""Arrival-process generators.

Each generator is a kernel process that stamps packets from a
:class:`~repro.traffic.flows.FlowSpec` and hands them to a ``sink`` callable
(typically ``network.enqueue``).  All randomness comes from injected
``random.Random`` streams so scenarios are exactly reproducible and
independent across sources (see :mod:`repro.sim.rng`).

Offered-load accounting: every generator tracks ``generated`` and exposes
``rate`` — its long-run packets/slot — so workloads can be calibrated
against capacity.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.core.packet import Packet
from repro.sim.engine import Engine
from repro.sim.process import Process, Timeout
from repro.traffic.flows import FlowSpec

__all__ = ["CBRSource", "PoissonSource", "OnOffSource", "VideoSource",
           "TraceSource", "BacklogSource", "PrefillSource"]

Sink = Callable[[Packet], None]


class _SourceBase:
    """Common bookkeeping for generator processes."""

    def __init__(self, engine: Engine, flow: FlowSpec, sink: Sink,
                 start: float = 0.0, stop: Optional[float] = None):
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start!r}")
        if stop is not None and stop <= start:
            raise ValueError(f"stop {stop!r} must be after start {start!r}")
        self.engine = engine
        self.flow = flow
        self.sink = sink
        self.start = start
        self.stop = stop
        self.generated = 0
        self.packets: List[Packet] = []
        self.process = Process(engine, self._run(),
                               name=f"{type(self).__name__}[{flow.flow_id}]")

    def _emit(self) -> Packet:
        pkt = self.flow.make_packet(self.engine.now)
        self.generated += 1
        self.packets.append(pkt)
        self.sink(pkt)
        return pkt

    def _active(self) -> bool:
        return self.stop is None or self.engine.now < self.stop

    def _run(self):  # pragma: no cover - overridden
        raise NotImplementedError
        yield

    @property
    def rate(self) -> float:  # pragma: no cover - overridden
        """Long-run offered load in packets/slot."""
        raise NotImplementedError


class CBRSource(_SourceBase):
    """Constant bit rate: one packet every ``period`` slots (voice-like)."""

    def __init__(self, engine: Engine, flow: FlowSpec, sink: Sink,
                 period: float, start: float = 0.0,
                 stop: Optional[float] = None, jitter: float = 0.0,
                 rng: Optional[random.Random] = None):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if jitter < 0 or jitter >= period:
            raise ValueError(f"jitter must be in [0, period), got {jitter!r}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.period = period
        self.jitter = jitter
        self.rng = rng
        super().__init__(engine, flow, sink, start, stop)

    @property
    def rate(self) -> float:
        return 1.0 / self.period

    def _run(self):
        yield Timeout(self.start)
        while self._active():
            if self.jitter > 0:
                yield Timeout(self.rng.uniform(0, self.jitter))
                if not self._active():
                    return
            self._emit()
            gap = self.period
            if self.jitter > 0:
                # re-align to the nominal grid so rate stays exact
                phase = (self.engine.now - self.start) % self.period
                gap = self.period - phase
            yield Timeout(gap)


class PoissonSource(_SourceBase):
    """Poisson arrivals at ``rate`` packets/slot."""

    def __init__(self, engine: Engine, flow: FlowSpec, sink: Sink,
                 rate: float, rng: random.Random,
                 start: float = 0.0, stop: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self._rate = rate
        self.rng = rng
        super().__init__(engine, flow, sink, start, stop)

    @property
    def rate(self) -> float:
        return self._rate

    def _run(self):
        yield Timeout(self.start)
        while True:
            yield Timeout(self.rng.expovariate(self._rate))
            if not self._active():
                return
            self._emit()


class OnOffSource(_SourceBase):
    """Exponential on-off (an MMPP-2): bursts at ``peak_rate`` during ON.

    Mean ON/OFF durations are in slots; during ON, arrivals are Poisson at
    ``peak_rate``.  Long-run rate = ``peak_rate * on / (on + off)``.
    """

    def __init__(self, engine: Engine, flow: FlowSpec, sink: Sink,
                 peak_rate: float, mean_on: float, mean_off: float,
                 rng: random.Random, start: float = 0.0,
                 stop: Optional[float] = None):
        if peak_rate <= 0:
            raise ValueError(f"peak_rate must be positive, got {peak_rate!r}")
        if mean_on <= 0 or mean_off <= 0:
            raise ValueError("mean_on and mean_off must be positive")
        self.peak_rate = peak_rate
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.rng = rng
        super().__init__(engine, flow, sink, start, stop)

    @property
    def rate(self) -> float:
        return self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)

    def _run(self):
        yield Timeout(self.start)
        while self._active():
            on_left = self.rng.expovariate(1.0 / self.mean_on)
            while on_left > 0 and self._active():
                gap = self.rng.expovariate(self.peak_rate)
                if gap > on_left:
                    yield Timeout(on_left)
                    on_left = 0.0
                    break
                yield Timeout(gap)
                on_left -= gap
                if not self._active():
                    return
                self._emit()
            if not self._active():
                return
            yield Timeout(self.rng.expovariate(1.0 / self.mean_off))


class VideoSource(_SourceBase):
    """GoP-patterned video: a frame every ``frame_interval`` slots, each
    frame split into per-type packet counts (I/P/B), emitted back-to-back.

    Defaults model an MPEG GoP ``IBBPBBPBB`` with I frames ~3x P ~2x B.
    """

    DEFAULT_GOP = "IBBPBBPBB"

    def __init__(self, engine: Engine, flow: FlowSpec, sink: Sink,
                 frame_interval: float,
                 packets_per_frame: Optional[dict] = None,
                 gop: str = DEFAULT_GOP,
                 start: float = 0.0, stop: Optional[float] = None):
        if frame_interval <= 0:
            raise ValueError(f"frame_interval must be positive, got {frame_interval!r}")
        if not gop or set(gop) - set("IPB"):
            raise ValueError(f"gop must be a non-empty string over I/P/B, got {gop!r}")
        self.frame_interval = frame_interval
        self.gop = gop
        self.packets_per_frame = dict(packets_per_frame or {"I": 6, "P": 4, "B": 2})
        for ft in "IPB":
            if ft in gop and self.packets_per_frame.get(ft, 0) < 1:
                raise ValueError(f"frame type {ft} in gop needs >= 1 packet")
        super().__init__(engine, flow, sink, start, stop)

    @property
    def rate(self) -> float:
        per_gop = sum(self.packets_per_frame[ft] for ft in self.gop)
        return per_gop / (len(self.gop) * self.frame_interval)

    def _run(self):
        yield Timeout(self.start)
        idx = 0
        while self._active():
            frame_type = self.gop[idx % len(self.gop)]
            for _ in range(self.packets_per_frame[frame_type]):
                self._emit()
            idx += 1
            yield Timeout(self.frame_interval)


class TraceSource(_SourceBase):
    """Replay a recorded arrival-time trace (absolute times, sorted).

    The closest synthetic stand-in for "real QoS application" captures the
    paper motivates with: feed in measured voice/video arrival instants and
    the MAC sees exactly that process.
    """

    def __init__(self, engine: Engine, flow: FlowSpec, sink: Sink,
                 arrival_times: Sequence[float]):
        times = list(arrival_times)
        if not times:
            raise ValueError("arrival trace is empty")
        if any(t < 0 for t in times):
            raise ValueError("arrival times must be >= 0")
        if times != sorted(times):
            raise ValueError("arrival times must be sorted ascending")
        self.arrival_times = times
        super().__init__(engine, flow, sink, start=0.0, stop=None)

    @property
    def rate(self) -> float:
        span = self.arrival_times[-1] - self.arrival_times[0]
        if span <= 0:
            return float(len(self.arrival_times))
        return len(self.arrival_times) / span

    def _run(self):
        previous = 0.0
        for when in self.arrival_times:
            yield Timeout(when - previous)
            previous = when
            self._emit()


class PrefillSource:
    """One-shot deep backlog: ``count`` packets enqueued at slot 0, then
    silence — the drain-only regime of the saturated-path experiments.

    Unlike :class:`BacklogSource` this installs *no* per-tick hook, so the
    batched kernel's saturated window stays eligible while the queues drain.
    The single burst runs as a priority ``-1`` agenda event (before the
    slot-0 tick body, after network start).  It builds all ``count``
    packets first, in pid order, and hands the list to ``sink`` in one
    call (:meth:`Workload._sink_burst
    <repro.traffic.workload.Workload._sink_burst>`, through
    ``Workload.add_prefill``): the source station takes the burst in one
    step, or packet by packet through the normal entry funnel while
    anything subscribes to ``PacketEnqueued``.
    """

    def __init__(self, engine: Engine, flow: FlowSpec,
                 sink: Callable[[List[Packet]], None], count: int):
        if count < 1:
            raise ValueError(f"prefill count must be >= 1, got {count}")
        self.engine = engine
        self.flow = flow
        self.sink = sink
        self.count = count
        self.generated = 0
        self.packets: List[Packet] = []
        engine.schedule_at(0.0, self._burst, priority=-1)

    @property
    def rate(self) -> None:
        return None  # finite burst: no long-run rate (like BacklogSource)

    def _burst(self) -> None:
        # ``FlowSpec.make_packet``'s stamping, with the deadline computed
        # once for the whole burst
        flow = self.flow
        now = self.engine.now
        deadline = None if flow.deadline is None else now + flow.deadline
        pkts = [Packet(flow.src, flow.dst, flow.service, now, deadline,
                       flow.flow_id) for _ in range(self.count)]
        self.generated += len(pkts)
        self.packets.extend(pkts)
        self.sink(pkts)


class BacklogSource:
    """Saturating source: keeps a station queue topped up to ``target``
    every slot — the worst-case generator for the bound experiments.

    Not a process; hook it with ``network.add_tick_hook(source.on_tick)``.
    Destinations are drawn uniformly from the current ring membership
    (excluding the source).
    """

    def __init__(self, network, flow: FlowSpec, target: int = 20,
                 destinations: Optional[Sequence[int]] = None,
                 rng: Optional[random.Random] = None):
        if target < 1:
            raise ValueError(f"target backlog must be >= 1, got {target}")
        self.network = network
        self.flow = flow
        self.target = target
        self.destinations = list(destinations) if destinations is not None else None
        self.rng = rng
        self.generated = 0

    def _queue(self):
        st = self.network.stations[self.flow.src]
        return st._queue_for(self.flow.service)

    def on_tick(self, t: float) -> None:
        net = self.network
        sid = self.flow.src
        if sid not in net._pos or not net.stations[sid].alive:
            return
        st = net.stations[sid]
        queue = self._queue()
        while len(queue) < self.target:
            dst = self._pick_dst(sid)
            if dst is None:
                return
            pkt = Packet(src=sid, dst=dst, service=self.flow.service,
                         created=t,
                         deadline=None if self.flow.deadline is None
                         else t + self.flow.deadline,
                         flow_id=self.flow.flow_id)
            st.enqueue(pkt, t)
            self.generated += 1

    def _pick_dst(self, sid: int):
        candidates = (self.destinations if self.destinations is not None
                      else self.network.members)
        candidates = [d for d in candidates
                      if d != sid and d in self.network._pos]
        if not candidates:
            return None
        if self.rng is None:
            return candidates[self.generated % len(candidates)]
        return self.rng.choice(candidates)
