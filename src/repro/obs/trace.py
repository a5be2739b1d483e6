"""Span tracing and the fleet-loop flight recorder.

:class:`SpanTracer` records **nested wall-time spans** — coarse phases of
a run (the fleet loop, the columnar loop, a load test), not
per-event timings — and exports them as Chrome ``trace_event`` JSON, the
format the ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_
viewers open directly.  Spans are "complete" (``ph: "X"``) events carrying
a microsecond timestamp and duration; properly nested spans on one ``tid``
render as a flame graph with no begin/end pairing needed.

:class:`FlightRecorder` is the crash-time counterpart: a bounded ring of
the most recent fleet-loop events (time, kind, sequence).  Appending a
tuple to a ``deque`` is cheap enough for the loop's hot path when
observability is on; when the loop raises, the fleet dumps the ring to
the log — the last N events before the failure, in order — instead of
leaving the run to die as a black box.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Dict, List, Optional

#: Event kinds of the fleet loop: a lane's sighting, a protocol timer
#: firing at its deadline, an update reaching the server.  They name the
#: ``kernel.events.<kind>`` counters; the fleet's flight recorder notes
#: ``DELIVERY`` entries only.
SAMPLE = 0
TIMER = 1
DELIVERY = 2
KIND_NAMES = {
    SAMPLE: "sample",
    TIMER: "timer",
    DELIVERY: "delivery",
}


class Span:
    """One open span; records its duration on ``close()``.

    ``args`` is a mutable dict — handlers can attach counters to the open
    span (``span.args["events"] = n``) and they ride along into the trace.
    """

    __slots__ = ("name", "cat", "args", "_tracer", "_start")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, args: Optional[Dict]):
        self.name = name
        self.cat = cat
        self.args = dict(args) if args else {}
        self._tracer = tracer
        self._start = _time.perf_counter()

    def close(self) -> float:
        duration = _time.perf_counter() - self._start
        self._tracer._record(self.name, self.cat, self._start, duration, self.args)
        return duration

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SpanTracer:
    """Collects spans and instants; exports Chrome ``trace_event`` JSON."""

    __slots__ = ("_events", "_origin")

    def __init__(self) -> None:
        # The origin anchors perf_counter offsets at zero so trace
        # timestamps are small and stable across runs of equal shape.
        self._origin = _time.perf_counter()
        self._events: List[Dict[str, object]] = []

    def span(self, name: str, cat: str = "repro", args: Optional[Dict] = None) -> Span:
        """Open a span; use as a context manager or ``close()`` explicitly."""
        return Span(self, name, cat, args)

    def _record(self, name: str, cat: str, start: float, duration: float, args: Dict) -> None:
        self._events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )

    def __len__(self) -> int:
        return len(self._events)

    def to_chrome(self) -> Dict[str, object]:
        """The Chrome ``trace_event`` document (open in Perfetto)."""
        metadata = {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "main"},
        }
        return {"traceEvents": [metadata, *self._events], "displayTimeUnit": "ms"}


#: Phases ("ph") the exporter emits; validation accepts exactly these.
_KNOWN_PHASES = frozenset("XiM")


def validate_chrome_trace(payload: object) -> List[str]:
    """Validate a Chrome-trace document; returns a list of problems.

    Empty list = valid.  Used by ``repro obs-report`` and the CI obs-smoke
    job, so a malformed export fails loudly instead of silently producing
    a file Perfetto rejects.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["trace document is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"event {i} has unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i} has no name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"event {i} has no integer pid")
        if phase in "Xi":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"event {i} has no numeric ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} has no non-negative dur")
    return problems


class FlightRecorder:
    """A bounded ring of recent fleet-loop events, dumped when a run dies.

    ``note()`` is the hot-path call: one tuple append into a ``deque`` with
    ``maxlen``, no formatting, no allocation beyond the tuple.  ``dump()``
    renders the ring for the log at crash time only.
    """

    __slots__ = ("_ring",)

    def __init__(self, capacity: int = 256):
        self._ring: deque = deque(maxlen=capacity)

    def note(self, time: float, kind: int, seq: int) -> None:
        self._ring.append((time, kind, seq))

    def __len__(self) -> int:
        return len(self._ring)

    def dump(self) -> List[Dict[str, object]]:
        """The ring contents, oldest first, with readable event kinds."""
        return [
            {"time": t, "kind": KIND_NAMES.get(kind, str(kind)), "seq": seq}
            for t, kind, seq in self._ring
        ]

    def format(self) -> str:
        """A compact one-line-per-event rendering for log output."""
        return "\n".join(
            f"  t={entry['time']:g} {entry['kind']} seq={entry['seq']}"
            for entry in self.dump()
        )
