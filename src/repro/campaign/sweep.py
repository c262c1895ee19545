"""Declarative sweep specs: grid / zip / explicit points over Scenario fields.

Every figure of the paper is a *sweep* — vary one or more :class:`Scenario`
fields, run the stack at each point, tabulate.  A :class:`Sweep` captures
that declaratively:

* ``axes`` with ``mode="grid"`` — the cartesian product of the axis values
  (the usual N × l × k table);
* ``axes`` with ``mode="zip"`` — the axes advance in lockstep (e.g. a
  horizon that grows with N);
* ``points`` — an explicit list of override dicts when the point set is
  irregular.

Axis/override keys address fields of the scenario *dict*
(:func:`repro.config_io.scenario_to_dict`); dotted keys reach nested
fields (``"traffic.rate"``, ``"mobility.wander_radius"``); a misspelt key
raises ``ValueError`` at :meth:`Sweep.expand`.  A sweep with
``topology=`` set ranges over a multi-ring fabric instead
(:class:`repro.fabric.Topology`): the base dict comes from
:func:`repro.fabric.topology_to_dict` and axes may address fabric fields
through the same dotted syntax (``"topology.rings"``,
``"topology.cross_flows"``); workers dispatch each point to
:func:`repro.fabric.run_fabric_point`.

Unless a point overrides ``seed`` itself, each point receives an
independent deterministic seed derived from the sweep's master seed via
:meth:`repro.sim.rng.RandomStreams.derive`, keyed by the point's canonical
override string — so adding, removing or reordering points never changes
any other point's sample path, and the whole campaign reproduces from one
integer.  ``derive_seeds=False`` keeps the base scenario's seed everywhere
(common-random-number comparisons).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.config_io import (UnknownKeyError, from_dict, option,
                             scenario_from_dict, scenario_to_dict, to_dict)
from repro.scenarios import Scenario
from repro.sim.rng import RandomStreams

__all__ = ["Sweep", "SweepPoint", "sweep_from_dict", "sweep_to_dict"]


def canonical_json(value: Any) -> str:
    """Deterministic compact JSON — the basis of point keys and hashes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def apply_overrides(base: Dict[str, Any],
                    overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """A deep copy of ``base`` with dotted-key ``overrides`` applied."""
    out = json.loads(json.dumps(base))
    for key, value in overrides.items():
        parts = key.split(".")
        node = out
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


@dataclass(frozen=True)
class SweepPoint:
    """One materialized point of a sweep."""

    index: int                      #: position in sweep order
    overrides: Dict[str, Any]       #: the dotted-key overrides of this point
    scenario_dict: Dict[str, Any]   #: fully resolved scenario description
    key: str                        #: canonical JSON of ``overrides``

    def scenario(self) -> Scenario:
        """Single-ring points only (see ``repro.fabric.topology_from_dict``)."""
        return scenario_from_dict(self.scenario_dict)

    def label(self) -> str:
        """Short human-readable tag, e.g. ``n=8,l=2``."""
        if not self.overrides:
            return f"point{self.index}"
        return ",".join(f"{k}={_short(v)}" for k, v in
                        sorted(self.overrides.items()))


def _short(value: Any) -> str:
    text = canonical_json(value) if isinstance(value, (dict, list)) \
        else str(value)
    return text if len(text) <= 24 else text[:21] + "..."


def _topology_to_json(topology: Any) -> Dict[str, Any]:
    if isinstance(topology, Mapping):
        return json.loads(json.dumps(topology))
    from repro.fabric.topology import topology_to_dict
    return topology_to_dict(topology)


@dataclass
class Sweep:
    """A declarative campaign: base scenario + the points to visit (fields
    in the key order of its JSON form, :func:`sweep_to_dict`)."""

    base: Scenario = field(default_factory=Scenario)
    mode: str = "grid"                       # "grid" | "zip"
    seed: int = 0                            #: master seed for derivation
    derive_seeds: bool = True
    name: str = option("", omit_default=True)
    axes: Optional[Mapping[str, Sequence[Any]]] = option(
        None, omit_default=True, codec=(
            lambda axes: {k: list(v) for k, v in axes.items()},
            lambda axes, where: axes))
    points: Optional[Sequence[Mapping[str, Any]]] = option(None,
                                                           omit_default=True)
    #: a :class:`repro.fabric.Topology` (or its dict form) — when set the
    #: sweep ranges over fabric runs and ``base`` is ignored (the topology
    #: carries its own per-ring base scenario)
    topology: Optional[Any] = option(None, omit_default=True, codec=(
        _topology_to_json, lambda topology, where: topology))

    def __post_init__(self) -> None:
        if self.mode not in ("grid", "zip"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if (self.axes is None) == (self.points is None):
            raise ValueError("give exactly one of axes= or points=")
        if self.axes is not None:
            lengths = {k: len(list(v)) for k, v in self.axes.items()}
            if any(n == 0 for n in lengths.values()):
                raise ValueError(f"empty sweep axis in {lengths}")
            if self.mode == "zip" and len(set(lengths.values())) > 1:
                raise ValueError(f"zip axes must have equal lengths, "
                                 f"got {lengths}")

    # ------------------------------------------------------------------
    def _override_sets(self) -> List[Dict[str, Any]]:
        if self.points is not None:
            return [dict(p) for p in self.points]
        keys = list(self.axes)
        values = [list(self.axes[k]) for k in keys]
        if self.mode == "zip":
            combos = zip(*values)
        else:
            combos = itertools.product(*values)
        return [dict(zip(keys, combo)) for combo in combos]

    def _base_dict(self) -> Dict[str, Any]:
        if self.topology is None:
            return scenario_to_dict(self.base)
        return _topology_to_json(self.topology)

    def expand(self) -> List[SweepPoint]:
        """Materialize every point, in deterministic sweep order, decoding
        each: a misspelt key fails the sweep before anything runs, a bad
        *value* (``n=1``) fails only its own point, in the worker."""
        from repro.fabric.topology import topology_from_dict
        decode = (scenario_from_dict if self.topology is None
                  else topology_from_dict)
        base_dict = self._base_dict()
        streams = RandomStreams(self.seed)
        out: List[SweepPoint] = []
        seen: Dict[str, int] = {}
        for index, overrides in enumerate(self._override_sets()):
            key = canonical_json(overrides)
            if key in seen:
                raise ValueError(f"duplicate sweep point {key} "
                                 f"(indices {seen[key]} and {index})")
            seen[key] = index
            scenario_dict = apply_overrides(base_dict, overrides)
            if self.derive_seeds and "seed" not in overrides:
                scenario_dict["seed"] = streams.derive(key)
            try:
                decode(scenario_dict)
            except UnknownKeyError:
                raise
            except (TypeError, ValueError):
                pass
            out.append(SweepPoint(index=index, overrides=dict(overrides),
                                  scenario_dict=scenario_dict, key=key))
        return out

    def spec_hash_material(self) -> str:
        """Canonical description of the sweep (for default naming)."""
        return canonical_json(sweep_to_dict(self))


# ----------------------------------------------------------------------
sweep_to_dict = to_dict


def sweep_from_dict(data: Mapping[str, Any]) -> Sweep:
    """Build a Sweep from the dict shape :func:`sweep_to_dict` emits."""
    return from_dict(Sweep, dict(data))
