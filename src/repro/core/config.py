"""Top-level WRT-Ring configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.quotas import QuotaConfig

__all__ = ["WRTRingConfig"]


@dataclass
class WRTRingConfig:
    """Protocol parameters (all times in slots).

    ``t_ear`` / ``t_update``
        The two phases of the Random Access Period (Sec. 2.4.1);
        ``T_rap = t_ear + t_update``.
    ``s_round``
        SAT rounds a station must wait after serving as ingress before it may
        enter the RAP again.  The paper requires ``s_round >= N``; the network
        enforces ``max(s_round, N)`` at runtime as stations come and go.
    ``rap_enabled``
        When False the network never opens a RAP (no joins possible) and the
        bounds use ``T_rap = 0`` — the configuration used for pure
        bound-validation runs.
    ``sat_hop_slots``
        ``T_proc + T_prop`` for the SAT control signal, per ring hop.  The
        data conveyor always advances one hop per slot (that *is* the slot);
        the Sec. 3.3 sweeps vary only the control-signal cost.
    ``validate_phy``
        Route every data hop through the CDMA channel model and assert it is
        delivered collision-free (slow; used by tests and E01).
    ``max_network_delay``
        Admission budget: a join is accepted only if the post-join Theorem-1
        bound stays within this many slots (None = no budget, accept all).
    ``enforce_radio_links``
        When True (and a connectivity graph is attached), every data hop and
        SAT hop physically requires the two stations to be in radio range at
        that moment: a mobility-broken ring link destroys what crosses it,
        and the SAT-loss machinery takes over.  Off by default — the paper's
        bound analysis assumes an intact ring; the mobility experiments turn
        it on.
    """

    quotas: Dict[int, QuotaConfig] = field(default_factory=dict)
    t_ear: int = 8
    t_update: int = 4
    s_round: int = 0           # 0 -> "use N" at runtime
    rap_enabled: bool = True
    sat_hop_slots: int = 1
    validate_phy: bool = False
    max_network_delay: Optional[float] = None
    enforce_radio_links: bool = False
    #: how many consecutive ring re-formation attempts may fail before the
    #: network is declared down.  1 = the static-topology behaviour (if no
    #: ring exists now, none ever will); mobility scenarios raise it so the
    #: network re-forms when stations wander back into range.
    rebuild_retry_limit: int = 1
    #: the buffer-insertion discipline WRT-Ring inherits from RT-Ring /
    #: MetaRing: traffic in transit is forwarded before the station's own
    #: insertions.  False inverts it (own packets first) — an ablation knob
    #: (experiment E23) showing the discipline is what keeps per-hop
    #: forwarding progress (and therefore delivery) bounded.
    transit_priority: bool = True

    def __post_init__(self) -> None:
        if self.t_ear < 2:
            raise ValueError(f"t_ear must be >= 2 slots (announce + reply), got {self.t_ear}")
        if self.t_update < 1:
            raise ValueError(f"t_update must be >= 1 slot, got {self.t_update}")
        if self.s_round < 0:
            raise ValueError(f"s_round must be >= 0, got {self.s_round}")
        if not isinstance(self.sat_hop_slots, int):
            raise TypeError(
                f"sat_hop_slots must be int, got {self.sat_hop_slots!r}")
        if self.sat_hop_slots < 1:
            raise ValueError(f"sat_hop_slots must be >= 1, got {self.sat_hop_slots}")
        if self.rebuild_retry_limit < 1:
            raise ValueError(
                f"rebuild_retry_limit must be >= 1, got {self.rebuild_retry_limit}")
        for sid, q in self.quotas.items():
            if not isinstance(q, QuotaConfig):
                raise TypeError(f"quotas[{sid}] must be QuotaConfig, got {q!r}")

    @property
    def t_rap(self) -> int:
        """``T_rap = T_ear + T_update`` (Sec. 2.4.1)."""
        return self.t_ear + self.t_update

    def effective_t_rap(self) -> int:
        """The T_rap that enters the bounds: 0 when the RAP is disabled."""
        return self.t_rap if self.rap_enabled else 0

    @classmethod
    def homogeneous(cls, station_ids, l: int, k: int, **kwargs) -> "WRTRingConfig":
        """Identical two-class quotas for every station (Propositions 1-3)."""
        quotas = {sid: QuotaConfig.two_class(l, k) for sid in station_ids}
        return cls(quotas=quotas, **kwargs)
