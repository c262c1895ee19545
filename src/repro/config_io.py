"""Config (de)serialization: dataclasses <-> JSON-friendly dicts.

Lets complete experiments be described as config files and run with
``python -m repro simulate --config scenario.json`` — the usual workflow of
simulation studies (parameter files under version control, results
regenerable from them).

One codec serves every config dataclass (``Scenario``, ``Topology``,
``Sweep`` and all they nest): it walks ``dataclasses.fields`` and their type
hints, writing keys in field order, so a new field needs no edit here.
:func:`option` declares the shape rules that keep older dicts unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import typing
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["option", "UnknownKeyError", "to_dict", "from_dict",
           "decode_enum", "scenario_to_dict", "scenario_from_dict",
           "load_scenario", "save_scenario"]

_MISSING = dataclasses.MISSING


def option(default: Any = _MISSING, *, default_factory: Any = _MISSING,
           omit_default: bool = False,
           kinds: Optional[Tuple[str, ...]] = None,
           codec: Optional[Tuple[Callable, Callable]] = None) -> Any:
    """A dataclass field with its JSON shape rules: ``omit_default`` leaves
    the key out while the value is the default; ``kinds`` writes it only
    when the object's ``kind`` is one of them; ``codec`` is an ``(encode,
    decode(value, where))`` pair for a non-generic form (None stays None)."""
    meta: Dict[str, Any] = {"omit_default": omit_default, "kinds": kinds}
    if codec is not None:
        encode, decode = codec
        meta["codec"] = (encode, lambda value, where, base: None
                         if value is None else decode(value, where))
    return dataclasses.field(default=default, default_factory=default_factory,
                             metadata=meta)


class UnknownKeyError(ValueError):
    """A config dict holds a key its level does not declare."""


@functools.lru_cache(maxsize=None)
def _plan(cls: type):
    """``cls``'s field walk, built once: ``(encoders, decoders)``."""
    hints = typing.get_type_hints(cls)
    encoders, decoders = [], {}
    for f in dataclasses.fields(cls):
        tp, meta = hints[f.name], f.metadata
        encode, decode = meta.get("codec", (_encode, _decoder(tp)))
        omit = _MISSING
        if meta.get("omit_default"):
            omit = (f.default if f.default_factory is _MISSING
                    else f.default_factory())
        encoders.append((f.name, omit, meta.get("kinds"), encode))
        decoders[f.name] = decode
    return encoders, decoders


def _decoder(tp: Any) -> Optional[Callable[[Any, str, Any], Any]]:
    """How to rebuild a ``tp`` from JSON; None keeps the JSON value."""
    args, origin = typing.get_args(tp), typing.get_origin(tp)
    if origin is typing.Union:                       # Optional[X]
        inner = _decoder(next(a for a in args if a is not type(None)))
        return inner and (lambda v, where, base: None if v is None
                          else inner(v, where, base))
    if origin in (list, tuple):
        inner = _decoder(args[0])
        return inner and (lambda v, where, base: origin(
            inner(item, where, None) for item in v))
    if dataclasses.is_dataclass(tp):
        return lambda v, where, base: from_dict(tp, v, where, base)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return lambda v, where, base: decode_enum(tp, v, where)
    return None


def decode_enum(tp: Any, name: str, where: str) -> Any:
    """The member of enum ``tp`` named ``name`` in any letter case
    (:func:`to_dict` writes it lower-case); an unknown name raises a
    ValueError listing the known ones."""
    if not isinstance(name, str) or name.upper() not in tp.__members__:
        raise ValueError(f"unknown {where} {name!r}; known: "
                         f"{sorted(m.lower() for m in tp.__members__)}")
    return tp[name.upper()]


def _encode(value: Any) -> Any:
    if value is None or type(value) in (int, float, str, bool):   # fast path
        return value
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, enum.Enum):
        return value.name.lower()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


# ----------------------------------------------------------------------
def to_dict(obj: Any) -> Dict[str, Any]:
    """The JSON form of dataclass ``obj``: its fields in declaration order,
    minus those a shape rule leaves out."""
    out: Dict[str, Any] = {}
    for name, omit, kinds, encode in _plan(type(obj))[0]:
        value = getattr(obj, name)
        if not ((omit is not _MISSING and value == omit)
                or (kinds is not None and obj.kind not in kinds)):
            out[name] = encode(value)
    return out


def from_dict(cls: type, data: Dict[str, Any], where: str = "",
              base: Any = None) -> Any:
    """Build ``cls`` from the dict :func:`to_dict` writes.  A missing key
    keeps its value in ``base`` (without one, the declared default),
    recursively; an unknown key raises :class:`UnknownKeyError` naming its
    level ``where``, the dotted path of ``data``."""
    decoders = _plan(cls)[1]
    if not isinstance(data, dict):
        raise ValueError(f"{where or cls.__name__} must be an object, "
                         f"got {data!r}")
    if not decoders.keys() >= data.keys():
        raise UnknownKeyError(f"unknown {where or cls.__name__.lower()} keys: "
                              f"{sorted(data.keys() - decoders.keys())}")
    kwargs = {}
    for key, value in data.items():
        decode = decoders[key]
        if decode is None:
            kwargs[key] = value
            continue
        kwargs[key] = decode(value, f"{where}.{key}" if where else key,
                             getattr(base, key, None))
    return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)


# ----------------------------------------------------------------------
scenario_to_dict = to_dict


def scenario_from_dict(data: Dict[str, Any]) -> Any:
    """Build a Scenario from the dict shape :func:`scenario_to_dict` emits."""
    from repro.scenarios import Scenario
    return from_dict(Scenario, data)


def save_scenario(scenario: Any, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2))


def load_scenario(path) -> Any:
    return scenario_from_dict(json.loads(Path(path).read_text()))
