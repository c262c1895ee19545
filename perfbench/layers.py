"""Per-layer spans for the benchmark's traced run.

The traced run wraps the program's seam callables — class attributes and
module functions named in :data:`SEAMS` — in span recorders for the length
of one repetition, then puts the original objects back.  Every span records
its layer, start, end and parent span; a layer's self time is its spans'
time minus the time covered by their child spans.

The wrappers never subscribe to the event bus and never add a tick hook:
either would switch off the batched kernel's analytic regimes and measure a
different program.  Emitters the bus hands out while tracing are wrapped
after the bus built them, and the shared falsy null emitter is left as is,
so every truthiness check the kernel makes sees what the plain run sees.

Spans stay in memory (a flat ``array('d')``, five doubles per span, capped
at :data:`SPAN_CAP` spans; totals keep counting past the cap) and are
written out by :meth:`SpanRecorder.write` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

__all__ = ["SEAMS", "CATEGORIES", "SPAN_CAP", "SpanRecorder", "Tracer"]

#: raw spans kept per repetition (5 doubles each: id, category, start,
#: end, parent id); past this only the per-layer totals keep counting
SPAN_CAP = 1_000_000

#: (layer category, module, target).  A target is ``Class.attr``,
#: ``Class.*`` (every function the class itself defines, dunders
#: excluded), a module function name, or ``*`` (every function and class
#: the module defines).  ``kind="returns"`` wraps the callables a factory
#: returns instead of the factory.  Earlier entries win when two name the
#: same attribute.
SEAMS: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine", "repro.sim.engine", "Engine.run", "call"),
    ("engine", "repro.sim.engine", "Engine.step", "call"),
    ("engine", "repro.sim.engine", "Engine.schedule_at", "call"),
    ("engine", "repro.sim.engine", "Engine.advance_to", "call"),
    ("kernel", "repro.kernel.batched", "BatchedKernel.*", "call"),
    ("ring.tick", "repro.core.ring", "WRTRingNetwork._tick_body", "call"),
    ("ring.decide", "repro.core.ring", "WRTRingNetwork._decide_slot", "call"),
    ("ring.apply", "repro.core.ring", "WRTRingNetwork._apply_slot", "call"),
    ("ring.sat", "repro.core.ring", "WRTRingNetwork._sat_step", "call"),
    ("recovery", "repro.core.recovery", "RecoveryManager.*", "call"),
    ("recovery", "repro.sim.timers", "*", "call"),
    ("recovery", "repro.core.adaptive", "*", "call"),
    ("join", "repro.core.join", "JoinManager.*", "call"),
    ("join", "repro.core.join", "JoinRequester.*", "call"),
    ("channel", "repro.phy.channel", "SlottedChannel.resolve_slot", "call"),
    ("channel", "repro.phy.channel", "SlottedChannel.force_resolve_slot",
     "call"),
    ("bus", "repro.events.bus", "EventBus.emitter", "returns"),
    ("trace", "repro.events.trace_adapter", "TraceAdapter._direct_handler",
     "returns"),
    ("trace", "repro.events.trace_adapter", "TraceAdapter.*", "call"),
    ("trace", "repro.sim.trace", "TraceRecorder.record", "call"),
    ("trace", "repro.sim.trace", "TraceRecorder.record_fields", "call"),
    ("metrics", "repro.analysis.netmetrics", "*", "call"),
    ("traffic", "repro.core.packet", "Packet.__init__", "call"),
    ("traffic", "repro.traffic.flows", "FlowSpec.make_packet", "call"),
    ("traffic", "repro.traffic.generators", "*", "call"),
    ("traffic", "repro.traffic.workload", "Workload.*", "call"),
    ("traffic", "repro.sim.process", "Process.*", "call"),
    ("qoe", "repro.qoe.score", "*", "call"),
    ("qoe", "repro.qoe.sessions", "*", "call"),
    ("fabric.setup", "repro.fabric.runner", "FabricRunner.__init__", "call"),
    ("fabric.setup", "repro.fabric.shard", "RingShard.__init__", "call"),
    ("fabric.advance", "repro.fabric.runner", "FabricRunner._advance_all",
     "call"),
    ("fabric.advance", "repro.fabric.shard", "RingShard.advance", "call"),
    ("fabric.advance", "repro.fabric.shard", "RingShard.collect_outgoing",
     "call"),
    ("fabric.exchange", "repro.fabric.runner", "FabricRunner._exchange",
     "call"),
    ("fabric.exchange", "repro.fabric.shard", "RingShard.inject", "call"),
    ("fabric.shard", "repro.fabric.shard", "RingShard.*", "call"),
    ("invariants", "repro.core.invariants", "RingInvariantChecker.*", "call"),
    ("oracles", "repro.fuzz.oracles", "*", "call"),
    ("fuzz.hash", "repro.fuzz.runner", "hash_trace", "call"),
)

CATEGORIES: Tuple[str, ...] = tuple(dict.fromkeys(s[0] for s in SEAMS))


class SpanRecorder:
    """Span log plus running per-category self times and per-seam counts."""

    def __init__(self, categories=CATEGORIES) -> None:
        self.categories = list(categories)
        self.self_s = [0.0] * len(self.categories)
        self.seams: List[str] = []
        self.counts: List[int] = []
        self.log = array("d")
        self._ids = itertools.count()
        self._open: List[int] = [-1]       # open span ids, root sentinel
        self._child: List[float] = [0.0]   # child time per open span

    def seam(self, label: str) -> int:
        """Index of the call counter for ``label`` (created on first use)."""
        if label in self.seams:
            return self.seams.index(label)
        self.seams.append(label)
        self.counts.append(0)
        return len(self.seams) - 1

    def wrap(self, fn: Callable, category: str, label: str) -> Callable:
        """``fn`` inside a span of ``category``, counted under ``label``."""
        cat = self.categories.index(category)
        seam = self.seam(label)
        clock = time.perf_counter
        nxt = self._ids.__next__
        open_ids = self._open
        child = self._child
        self_s = self.self_s
        counts = self.counts
        log = self.log
        cap = SPAN_CAP

        def span(*args, **kwargs):
            t_in = clock()
            sid = nxt()
            open_ids.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_ids.pop()
                self_s[cat] += t1 - t0 - child.pop()
                counts[seam] += 1
                if sid < cap:
                    log.extend((sid, cat, t0, t1, open_ids[-1]))
                # the parent's child time covers this span's bookkeeping
                # too, so recorder overhead is charged to no layer
                child[-1] += clock() - t_in

        return functools.update_wrapper(span, fn)

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return (dict(zip(self.categories, self.self_s)),
                dict(zip(self.seams, self.counts)))

    @property
    def spans_recorded(self) -> int:
        return len(self.log) // 5

    def write(self, path) -> Dict[str, object]:
        """Write the span log as raw native float64 rows of
        ``(id, category, start, end, parent)``; return its description."""
        with open(path, "wb") as fh:
            self.log.tofile(fh)
        total = next(self._ids)
        return {"file": str(path), "dtype": "float64",
                "byteorder": sys.byteorder,
                "fields": ["id", "category", "start", "end", "parent"],
                "categories": self.categories,
                "recorded": self.spans_recorded,
                "dropped": max(0, total - self.spans_recorded)}


def _owner_functions(owner) -> List[Tuple[object, str, object]]:
    """``(owner, name, raw attribute)`` for every function ``owner``
    itself defines: a class's methods (dunders excluded), or a module's
    functions plus the methods of the classes it defines."""
    if inspect.ismodule(owner):
        out = []
        for name, obj in list(vars(owner).items()):
            if getattr(obj, "__module__", None) != owner.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((owner, name, obj))
            elif inspect.isclass(obj):
                out.extend(_owner_functions(obj))
        return out
    return [(owner, name, raw) for name, raw in vars(owner).items()
            if not (name.startswith("__") and name.endswith("__"))
            and (inspect.isfunction(raw)
                 or isinstance(raw, (staticmethod, classmethod)))]


def _resolve(module: str, target: str) -> List[Tuple[object, str, object]]:
    mod = importlib.import_module(module)
    if target == "*":
        return _owner_functions(mod)
    if "." not in target:
        return [(mod, target, vars(mod)[target])]
    cls_name, attr = target.split(".", 1)
    cls = getattr(mod, cls_name)
    if attr == "*":
        return _owner_functions(cls)
    return [(cls, attr, vars(cls)[attr])]


class Tracer:
    """Context manager installing span wrappers on every seam.

    Install before the workload builds its stack: bound methods captured
    at construction (tick drivers, bus subscriptions, tick hooks) then
    refer to the wrappers.  On exit every patched attribute gets back the
    exact object it held before, on its class and on every ``repro``
    module that imported it by name.
    """

    def __init__(self, recorder: SpanRecorder, seams=SEAMS) -> None:
        self.recorder = recorder
        self.seams = seams
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        done = set()
        try:
            for category, module, target, kind in self.seams:
                for owner, name, raw in _resolve(module, target):
                    if (id(owner), name) in done:
                        continue
                    done.add((id(owner), name))
                    self._patch(owner, name, raw, category, kind)
        except BaseException:
            self.restore()
            raise
        return self.recorder

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, raw, category: str,
               kind: str) -> None:
        fn = raw.__func__ if isinstance(raw, (staticmethod,
                                              classmethod)) else raw
        if inspect.isgeneratorfunction(fn):
            return  # a span would time only the generator's creation
        label = (f"{owner.__name__}.{name}" if inspect.isclass(owner)
                 else name)
        rec = self.recorder
        if kind == "returns":
            label += "()"

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                made = fn(*args, **kwargs)
                # a falsy product (the bus's shared null emitter) stays
                # untouched, so emit-site truthiness checks are unchanged
                return rec.wrap(made, category, label) if made else made
        else:
            wrapped = rec.wrap(fn, category, label)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        elif isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        self._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)
        if inspect.ismodule(owner):
            # modules that imported the function by name call their alias
            for mod in list(sys.modules.values()):
                if (mod is not owner and mod is not None
                        and getattr(mod, "__name__", "").startswith("repro")
                        and vars(mod).get(name) is raw):
                    self._saved.append((mod, name, raw))
                    setattr(mod, name, wrapped)
