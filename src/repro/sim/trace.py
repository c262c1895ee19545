"""Structured event tracing.

Protocol debugging and several experiments (e.g. measuring SAT rotation
samples, counting link crossings per control-signal round, timing recovery
procedures) need a cheap, queryable record of what happened and when.

:class:`TraceRecorder` stores :class:`TraceEvent` records and supports
per-category switches and simple querying.  The switches are checked where
a record is offered: the trace adapter subscribes a rendering only while
its category is on, and :meth:`TraceRecorder.record` checks them for every
other writer.  A per-category index is maintained at record time, so
category-filtered queries (``select``, ``times``, ``last``, ``count``)
cost O(matches) instead of a full scan of the trace — repeated selects on
large traces used to dominate analysis passes.  :class:`NullTraceRecorder`
is a zero-cost stand-in for production-speed runs.

Categories listed in :attr:`TraceRecorder.OPT_IN` are *disabled by
default* and must be switched on explicitly (``trace.enable(...)``): they
are high-volume diagnostics (per-tick slot occupancy, per-visit SAT
arrivals) that only the timeline exporter needs, and recording them
unconditionally would bloat steady-state traces and change fuzz trace
hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

__all__ = ["TraceEvent", "TraceRecorder", "NullTraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded fact: ``time``, ``category`` and free-form ``fields``."""

    time: float
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class TraceRecorder:
    """Append-only in-memory trace with per-category enable switches.

    Every category but the :attr:`OPT_IN` ones is enabled by default.
    ``enable_only(...)`` restricts recording to the listed categories;
    ``disable(...)`` turns categories off individually; every switch
    change calls the :meth:`watch` callbacks.
    """

    #: categories that are recorded only when explicitly enabled
    OPT_IN = frozenset({"slot.occupancy", "sat.arrive"})

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._category_enabled: Dict[str, bool] = {c: False for c in self.OPT_IN}
        self._default_enabled = True
        self._by_category: Dict[str, List[TraceEvent]] = {}
        self._watchers: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def enable_only(self, categories: Iterable[str]) -> None:
        self._default_enabled = False
        self._category_enabled = {}
        self.enable(*categories)

    def disable(self, *categories: str) -> None:
        self._switch(categories, False)

    def enable(self, *categories: str) -> None:
        self._switch(categories, True)

    def _switch(self, categories: Iterable[str], on: bool) -> None:
        self._category_enabled.update(dict.fromkeys(categories, on))
        for watcher in self._watchers:
            watcher()

    def is_enabled(self, category: str) -> bool:
        return self._category_enabled.get(category, self._default_enabled)

    def watch(self, watcher: Callable[[], None]) -> None:
        """Call *watcher* now and after every switch change."""
        self._watchers.append(watcher)
        watcher()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, time: float, category: str, /, **fields: Any) -> None:
        """Record one event if its category is switched on: the entry
        point of the channel's ``phy.collision``, the trace adapter's
        selective renderings and :meth:`from_jsonl`."""
        if self.is_enabled(category):
            self.record_fields(time, category, fields)

    def record_fields(self, time: float, category: str,
                      fields: Dict[str, Any]) -> None:
        """Record one event unconditionally, taking the field dict directly
        (no kwargs repack); the recorder takes ownership of *fields*.  The
        hot path of the trace adapter's 1:1 renderings, which it subscribes
        only while their category is switched on, and of
        :func:`repro.fabric.merge.merged_timeline`, which keeps every line
        it reads."""
        event = TraceEvent(time, category, fields)
        self.events.append(event)
        bucket = self._by_category.get(category)
        if bucket is None:
            bucket = self._by_category[category] = []
        bucket.append(event)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def select(self, category: Optional[str] = None,
               predicate: Optional[Callable[[TraceEvent], bool]] = None,
               since: float = float("-inf"),
               until: float = float("inf")) -> List[TraceEvent]:
        """Events matching all given filters, in record order.

        With a ``category`` the per-category index narrows the scan to the
        matching events up front — O(matches), not O(len(trace)).
        """
        source = (self._by_category.get(category, [])
                  if category is not None else self.events)
        out = []
        for ev in source:
            if not (since <= ev.time <= until):
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def count(self, category: str) -> int:
        return len(self._by_category.get(category, ()))

    def times(self, category: str) -> List[float]:
        return [ev.time for ev in self._by_category.get(category, [])]

    def last(self, category: str) -> Optional[TraceEvent]:
        bucket = self._by_category.get(category)
        return bucket[-1] if bucket else None

    def clear(self) -> None:
        self.events.clear()
        self._by_category.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> int:
        """Write one JSON object per event; returns the event count.

        Event fields live under a dedicated ``"fields"`` key so a field
        named ``time`` or ``category`` never collides with the event header.
        Fields that are not JSON-serializable are stringified, so traces of
        arbitrary protocol state can always be exported for offline
        analysis.
        """
        import json
        from pathlib import Path

        def default(value):
            return str(value)

        with Path(path).open("w") as fh:
            for ev in self.events:
                fh.write(json.dumps({"time": ev.time, "category": ev.category,
                                     "fields": ev.fields},
                                    default=default) + "\n")
        return len(self.events)

    @staticmethod
    def from_jsonl(path) -> "TraceRecorder":
        """Reload a trace exported with :meth:`to_jsonl`, keeping every
        record it reads (opt-in categories included).

        Reads both the namespaced format and the legacy flat layout (fields
        spread beside ``time``/``category``) from older exports.
        """
        import json
        from pathlib import Path

        recorder = TraceRecorder()
        recorder.enable(*recorder.OPT_IN)
        with Path(path).open() as fh:
            for line in fh:
                data = json.loads(line)
                time = data.pop("time")
                category = data.pop("category")
                if set(data) == {"fields"} and isinstance(data["fields"], dict):
                    fields = data["fields"]
                else:
                    fields = data
                recorder.record(time, category, **fields)
        return recorder

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


class NullTraceRecorder(TraceRecorder):
    """Recorder that drops everything; safe to pass anywhere a recorder goes."""

    def record(self, time: float, category: str, /, **fields: Any) -> None:  # noqa: D102
        return None

    def record_fields(self, time: float, category: str,
                      fields: Dict[str, Any]) -> None:  # noqa: D102
        return None

    def is_enabled(self, category: str) -> bool:  # noqa: D102
        return False
