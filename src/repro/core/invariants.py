"""Runtime invariant checking for WRT-Ring.

A :class:`RingInvariantChecker` hooks into a network's tick loop and
verifies, every slot, the structural invariants the Sec. 2.2 algorithms and
the Sec. 2.6 proofs rest on:

* **quota discipline** — ``RT_PCK <= l``, ``NRT_PCK <= k``,
  ``AS_PCK <= k1``, ``BE_PCK <= k2`` and ``AS_PCK + BE_PCK == NRT_PCK``
  at every station at all times;
* **satisfaction consistency** — a station holding the SAT past a tick is
  not satisfied (modulo the RAP pause), and `satisfied` agrees with its
  definition (``RT_PCK == l`` or empty RT queue);
* **single control signal** — the SAT is in exactly one place (held,
  in flight, or deliberately lost);
* **packet conservation** — every packet ever enqueued is in exactly one
  of: a class queue, a transit buffer, the air (one-slot flight), delivered,
  orphaned or lost.  Nothing vanishes, nothing duplicates;
* **membership coherence** — ``order``/position map/alive flags agree.

The checker is used by the fuzz/soak tests and can be attached in any
simulation at ~20% overhead.
"""

from __future__ import annotations

from typing import List

from repro.events.types import RingTick

__all__ = ["InvariantViolation", "RingInvariantChecker"]


class InvariantViolation(AssertionError):
    """An invariant failed; message carries the offending state."""


class RingInvariantChecker:
    """Attach with ``checker.attach(net.events)``: the checker subscribes to
    the per-tick :class:`~repro.events.types.RingTick` event, which fires
    after the tick hooks (so traffic injected this tick is already
    enqueued) and before the dataplane moves anything.

    ``strict`` raises on first violation; otherwise violations accumulate
    in :attr:`violations` for post-mortem inspection.
    """

    def __init__(self, net, strict: bool = True):
        self.net = net
        self.strict = strict
        self.violations: List[str] = []
        self.checks_run = 0
        self._enqueued_baseline = self._total_enqueued()

    def attach(self, bus) -> "RingInvariantChecker":
        bus.subscribe(RingTick, self._on_tick_event)
        return self

    def _on_tick_event(self, ev) -> None:
        self.on_tick(ev.t)

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    def _total_enqueued(self) -> int:
        return sum(sum(st.enqueued.values())
                   for st in self.net.stations.values())

    # ------------------------------------------------------------------
    def on_tick(self, t: float) -> None:
        self.checks_run += 1
        self._check_quota_discipline(t)
        self._check_sat_singleton(t)
        self._check_membership(t)
        self._check_conservation(t)

    # ------------------------------------------------------------------
    def _check_quota_discipline(self, t: float) -> None:
        for sid in self.net.order:
            st = self.net.stations[sid]
            q = st.quota
            if st.rt_pck > q.l:
                self._fail(f"t={t}: station {sid} RT_PCK {st.rt_pck} > l {q.l}")
            if st.nrt_pck > q.k:
                self._fail(f"t={t}: station {sid} NRT_PCK {st.nrt_pck} > k {q.k}")
            if st.as_pck > q.k1:
                self._fail(f"t={t}: station {sid} AS_PCK {st.as_pck} > k1 {q.k1}")
            if st.be_pck > q.k2:
                self._fail(f"t={t}: station {sid} BE_PCK {st.be_pck} > k2 {q.k2}")
            if st.as_pck + st.be_pck != st.nrt_pck:
                self._fail(f"t={t}: station {sid} AS+BE "
                           f"{st.as_pck}+{st.be_pck} != NRT {st.nrt_pck}")
            # the satisfied predicate must match its Sec. 2.2 definition
            # (a leaving station relinquishes its claim on the SAT)
            expected = st.leaving or st.rt_pck >= q.l or not st.rt_queue
            if st.satisfied != expected:
                self._fail(f"t={t}: station {sid} satisfied={st.satisfied} "
                           f"disagrees with definition")

    def _check_sat_singleton(self, t: float) -> None:
        sat = self.net.sat
        held = sat.at_station is not None
        flying = sat.in_flight_to is not None
        lost = self.net._sat_lost
        rebuilding = self.net.rebuilding_until is not None
        if held and flying:
            self._fail(f"t={t}: SAT both held at {sat.at_station} and "
                       f"in flight to {sat.in_flight_to}")
        if not (held or flying) and not lost and not rebuilding \
                and not self.net.network_down:
            self._fail(f"t={t}: SAT vanished without being marked lost")
        if held and sat.at_station not in self.net._pos \
                and not self.net.network_down:
            self._fail(f"t={t}: SAT held by non-member {sat.at_station}")

    def _check_membership(self, t: float) -> None:
        net = self.net
        if sorted(net._pos.values()) != list(range(len(net.order))):
            self._fail(f"t={t}: position map inconsistent with order")
        for idx, sid in enumerate(net.order):
            if net._pos.get(sid) != idx:
                self._fail(f"t={t}: station {sid} order/pos mismatch")
        if len(set(net.order)) != len(net.order):
            self._fail(f"t={t}: duplicate station in ring order")

    def _check_conservation(self, t: float) -> None:
        net = self.net
        enqueued = self._total_enqueued() - self._enqueued_baseline
        # ``enqueued`` is a lifetime counter, so it sums over every station
        # that ever existed; live buffers count ring *members* only — a
        # packet sitting in a removed station's queue has left the network
        # and must have been accounted as lost, not silently parked
        members = [net.stations[sid] for sid in net.order]
        in_queues = sum(st.queue_length() for st in members)
        in_transit = sum(len(st.transit) for st in members)
        delivered = net.metrics.total_delivered
        gone = net.metrics.lost + net.metrics.orphaned
        accounted = in_queues + in_transit + delivered + gone
        # packets spend exactly one slot in the air between phase B of one
        # tick and arrival bookkeeping of the same tick, so at hook time
        # (start of tick) everything is in a buffer or terminal state
        if accounted != enqueued:
            self._fail(
                f"t={t}: packet conservation broken: enqueued={enqueued} "
                f"!= queued {in_queues} + transit {in_transit} + "
                f"delivered {delivered} + lost/orphaned {gone}")

    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations
