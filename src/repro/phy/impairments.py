"""Deterministic stochastic channel impairments (frame loss).

The WRT-Ring recovery machinery (Sec. 2.4-2.5 of the paper) exists
because wireless links drop frames, yet :class:`~repro.phy.channel.
SlottedChannel` is a perfect medium.  This module adds the missing loss
processes without giving up reproducibility:

* **independent loss** -- every frame on a link dies with probability
  ``loss_prob`` (memoryless, per-slot Bernoulli);
* **Gilbert-Elliott bursty loss** -- a per-link two-state Markov chain
  (GOOD/BAD) with transition probabilities ``ge_p_gb`` (good->bad) and
  ``ge_p_bg`` (bad->good); frames are lost with ``ge_loss_good`` /
  ``ge_loss_bad`` depending on the current state.  This is the standard
  indoor-radio burst-error model: short deep fades that wipe out runs of
  consecutive frames;
* **noise bursts** -- scripted windows ``[start, end)`` during which
  every frame (optionally only on one code band) is destroyed, for
  deterministic worst-case scenarios such as "a microwave oven turns on
  during the RAP".

Determinism
-----------
Each *ordered* link lazily derives its own :class:`random.Random` from
the :class:`~repro.sim.rng.RandomStreams` fork handed in by the scenario
builder (``streams.fork("impairments").stream("link.SRC->DST")``), so:

* two links never share draws -- the order in which different links are
  queried cannot change any outcome;
* within one link, queries are made in simulation order, which is itself
  deterministic -- same scenario + seed + spec => identical losses, and
  therefore identical trace hashes, across serial/parallel/resumed
  campaign runs;
* the Gilbert-Elliott chain is advanced *analytically*: skipping ``k``
  idle slots costs a single uniform draw against the closed-form k-step
  state distribution, not ``k`` draws, so sparse traffic does not change
  the per-frame draw count.

The layer is consulted from two places: :meth:`SlottedChannel.
force_resolve_slot` (per audible frame, *before* collision resolution --
a faded frame cannot collide) and the ring's internal hops (dataplane
packet forwarding and SAT/SAT_REC hand-offs, which the simulator models
without channel frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.config_io import option

__all__ = ["NoiseBurst", "ImpairmentSpec", "ChannelImpairments"]

_GOOD, _BAD = 0, 1


@dataclass(frozen=True)
class NoiseBurst:
    """All frames die during ``[start, end)``; ``code=None`` hits every band."""

    start: float
    end: float
    code: Optional[int] = option(None, omit_default=True)

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"noise burst must have end > start, got "
                             f"[{self.start}, {self.end})")

    def covers(self, t: float, code: Optional[int] = None) -> bool:
        if not (self.start <= t < self.end):
            return False
        return self.code is None or self.code == code


@dataclass(frozen=True)
class ImpairmentSpec:
    """Loss-process parameters; the all-defaults spec is a perfect channel
    (written as ``{}``: only fields off their default are kept)."""

    loss_prob: float = option(0.0, omit_default=True)     #: independent per-frame loss probability
    ge_p_gb: float = option(0.0, omit_default=True)       #: Gilbert-Elliott P(good -> bad) per slot
    ge_p_bg: float = option(0.0, omit_default=True)       #: Gilbert-Elliott P(bad -> good) per slot
    ge_loss_good: float = option(0.0, omit_default=True)  #: loss probability in the GOOD state
    ge_loss_bad: float = option(1.0, omit_default=True)   #: loss probability in the BAD state
    bursts: Tuple[NoiseBurst, ...] = option((), omit_default=True)

    def __post_init__(self) -> None:
        for name in ("loss_prob", "ge_p_gb", "ge_p_bg",
                     "ge_loss_good", "ge_loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.ge_p_gb > 0.0 and self.ge_p_bg <= 0.0:
            raise ValueError("ge_p_bg must be > 0 when ge_p_gb > 0 "
                             "(the BAD state would be absorbing)")
        object.__setattr__(self, "bursts", tuple(self.bursts))

    @property
    def ge_enabled(self) -> bool:
        return self.ge_p_gb > 0.0

    @property
    def enabled(self) -> bool:
        """True when any loss source can actually destroy a frame."""
        return (self.loss_prob > 0.0
                or (self.ge_enabled and (self.ge_loss_bad > 0.0
                                         or self.ge_loss_good > 0.0))
                or bool(self.bursts))


class _LinkState:
    __slots__ = ("rng", "state", "last_t")


@dataclass
class _DropCounters:
    total: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)
    by_kind: Dict[str, int] = field(default_factory=dict)
    by_link: Dict[Tuple[int, int], int] = field(default_factory=dict)


class ChannelImpairments:
    """Stateful, seeded loss oracle shared by the channel and the ring.

    ``loss(t, src, dst, ...)`` returns ``None`` (frame survives) or the
    drop reason: ``"noise"`` for a scripted burst window (no RNG draw),
    ``"fade"`` for the stochastic processes.
    """

    def __init__(self, spec: ImpairmentSpec, streams) -> None:
        self.spec = spec
        self.streams = streams
        self._links: Dict[Tuple[int, int], _LinkState] = {}
        self.queries = 0
        self.counters = _DropCounters()

    @property
    def drops(self) -> int:
        return self.counters.total

    # -- per-link state -------------------------------------------------
    def _link(self, src: int, dst: int) -> _LinkState:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = _LinkState()
            link.rng = self.streams.stream(f"link.{src}->{dst}")
            link.state = _GOOD
            link.last_t = None
            self._links[key] = link
        return link

    def _advance(self, link: _LinkState, t: float) -> None:
        """Advance the Gilbert-Elliott chain to slot ``t`` with one draw.

        The two-state chain has stationary bad-probability
        ``pi = p_gb / (p_gb + p_bg)`` and second eigenvalue
        ``lam = 1 - p_gb - p_bg``; after ``k`` steps from state ``s0``,
        ``P(bad) = pi + lam**k * (1{s0=bad} - pi)`` -- so a single
        uniform against that closed form replaces ``k`` per-slot draws.
        """
        spec = self.spec
        if link.last_t is None:
            # first query on this link: draw the stationary distribution
            pi_bad = spec.ge_p_gb / (spec.ge_p_gb + spec.ge_p_bg)
            link.state = _BAD if link.rng.random() < pi_bad else _GOOD
            link.last_t = t
            return
        k = int(t - link.last_t)
        if k <= 0:
            return
        pi_bad = spec.ge_p_gb / (spec.ge_p_gb + spec.ge_p_bg)
        lam = 1.0 - spec.ge_p_gb - spec.ge_p_bg
        start_bad = 1.0 if link.state == _BAD else 0.0
        p_bad = pi_bad + (lam ** k) * (start_bad - pi_bad)
        link.state = _BAD if link.rng.random() < p_bad else _GOOD
        link.last_t = t

    # -- the oracle -----------------------------------------------------
    def loss(self, t: float, src: int, dst: int,
             code: Optional[int] = None, kind: str = "data") -> Optional[str]:
        """Decide the fate of one frame on the ordered link ``src->dst``.

        Returns ``None`` if it survives, else the drop reason.  The
        noise-burst check is deterministic and consumes no randomness;
        the stochastic sources are combined into a single per-frame draw
        ``1 - (1 - loss_prob) * (1 - state_loss)``.
        """
        self.queries += 1
        spec = self.spec
        for burst in spec.bursts:
            if burst.covers(t, code):
                return self._record(src, dst, kind, "noise")
        p = spec.loss_prob
        link = None
        if spec.ge_enabled:
            link = self._link(src, dst)
            self._advance(link, t)
            state_loss = (spec.ge_loss_bad if link.state == _BAD
                          else spec.ge_loss_good)
            if state_loss:
                p = 1.0 - (1.0 - p) * (1.0 - state_loss)
        if p <= 0.0:
            return None
        if link is None:
            link = self._link(src, dst)
        if link.rng.random() < p:
            return self._record(src, dst, kind, "fade")
        return None

    def _record(self, src: int, dst: int, kind: str, reason: str) -> str:
        c = self.counters
        c.total += 1
        c.by_reason[reason] = c.by_reason.get(reason, 0) + 1
        c.by_kind[kind] = c.by_kind.get(kind, 0) + 1
        key = (src, dst)
        c.by_link[key] = c.by_link.get(key, 0) + 1
        return reason

    def summary(self) -> Dict[str, Any]:
        c = self.counters
        worst = sorted(c.by_link.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        return {
            "queries": self.queries,
            "drops": c.total,
            "drops_by_reason": dict(sorted(c.by_reason.items())),
            "drops_by_kind": dict(sorted(c.by_kind.items())),
            "worst_links": [{"link": f"{s}->{d}", "drops": n}
                            for (s, d), n in worst],
        }
