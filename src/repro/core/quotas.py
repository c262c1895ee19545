"""Per-station transmission quotas (the ``l`` and ``k`` local parameters).

During each SAT round a station may transmit at most ``l`` real-time packets
and ``k`` non-real-time packets (Sec. 2.2).  Sec. 2.3 splits ``k = k1 + k2``
to carve an Assured class (priority share ``k1``) and a best-effort class
(``k2``) out of the non-guaranteed quota; this requires no protocol change,
so :class:`QuotaConfig` stores the split and exposes ``k`` as their sum.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QuotaConfig"]


@dataclass(frozen=True)
class QuotaConfig:
    """Quotas for one station.

    ``l``  — guaranteed real-time packets per SAT round (Premium).
    ``k1`` — Assured packets per SAT round (part of the ``k`` quota).
    ``k2`` — best-effort packets per SAT round (rest of the ``k`` quota).
    """

    l: int
    k1: int
    k2: int

    def __post_init__(self) -> None:
        for name in ("l", "k1", "k2"):
            v = getattr(self, name)
            if not isinstance(v, int):
                raise TypeError(f"quota {name} must be int, got {v!r}")
            if v < 0:
                raise ValueError(f"quota {name} must be >= 0, got {v}")
        if self.l == 0 and self.k == 0:
            raise ValueError("a station needs l + k >= 1 to ever transmit")

    @property
    def k(self) -> int:
        """The total non-real-time quota (``k1 + k2``), as in Sec. 2.2."""
        return self.k1 + self.k2

    @property
    def total(self) -> int:
        """``l + k`` — the per-round authorization total in the bounds."""
        return self.l + self.k

    @classmethod
    def two_class(cls, l: int, k: int) -> "QuotaConfig":
        """The base Sec. 2.2 configuration: RT + best-effort only."""
        return cls(l=l, k1=0, k2=k)

    @classmethod
    def three_class(cls, l: int, k1: int, k2: int) -> "QuotaConfig":
        """The Sec. 2.3 Diffserv configuration: Premium/Assured/best-effort."""
        return cls(l=l, k1=k1, k2=k2)

    def with_l(self, l: int) -> "QuotaConfig":
        return QuotaConfig(l=l, k1=self.k1, k2=self.k2)

    def send_schedule(self, rt_pck: int, nrt_pck: int, as_pck: int,
                      be_pck: int, rt_depth: int, as_depth: int,
                      be_depth: int) -> "tuple[int, int, int]":
        """Remaining consecutive sends of the current SAT round.

        Given the round counters and class-queue depths, an unblocked
        backlogged station transmits ``r`` real-time packets, then ``a``
        Assured, then ``b`` best-effort — in that strict order, one per
        slot, with ``a`` and ``b`` drawing from the shared residual ``k``
        authorization under the ``k1``/``k2`` caps.  This closed form is
        the per-station decision rule the batched kernel's saturated walk
        evaluates, once per member at window start, instead of calling
        ``select_packet`` slot by slot.
        """
        r = min(max(self.l - rt_pck, 0), rt_depth)
        nb = max(self.k - nrt_pck, 0)
        a = min(max(self.k1 - as_pck, 0), nb, as_depth)
        b = min(max(self.k2 - be_pck, 0), nb - a, be_depth)
        return r, a, b

    def __str__(self) -> str:
        return f"l={self.l},k={self.k}(k1={self.k1},k2={self.k2})"
