"""Outside-in tracing: wrappers around the public entry points of each layer.

The benchmark times the program from the outside.  During a traced run it
replaces selected functions and methods of ``repro`` modules with timing
wrappers (:meth:`Tracer.patch`) and restores them afterwards
(:meth:`Tracer.restore`); untraced runs never install a wrapper, so the
end-to-end numbers come from the unmodified program.

Two kinds of record are kept, both in memory until the run ends:

* **Spans** — one record per call, with start, duration, self time, the
  enclosing span and the request id that was current when it opened.  They
  are exported once as Chrome ``trace_event`` JSON (:meth:`Tracer.chrome`).
* **Aggregates** — for layers called more than 10^5 times per run
  (protocols, matcher, estimator, server prediction), one running record
  per key: calls, busy time and self time, plus optional per-call samples.

Self time is a call's duration minus the time covered by the wrapped calls
made inside it.  Synchronous wrapped calls nest strictly (a wrapped call
never awaits), so one frame stack shared by every wrapper gives exact
parent/child relations; each frame accumulates the durations of its direct
children.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


class Aggregate:
    """Running totals of one wrapped layer entry point."""

    __slots__ = ("calls", "total", "self_time", "samples", "self_samples")

    def __init__(self, keep_samples: bool = False):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        #: per-call durations and self times, when samples are kept
        self.samples: Optional[List[float]] = [] if keep_samples else None
        self.self_samples: Optional[List[float]] = [] if keep_samples else None


class Tracer:
    """Frame stack, spans, aggregates and the patches that feed them."""

    def __init__(self, origin: Optional[float] = None) -> None:
        #: zero of the exported timestamps (tracers of one run share it)
        self.origin = _now() if origin is None else origin
        #: ``(name, start, duration, self, parent_index, request_id)``
        self.spans: List[Tuple[str, float, float, float, int, Optional[int]]] = []
        self.aggregates: Dict[str, Aggregate] = {}
        #: open frames: ``[child_time, span_index_or_-1]``
        self.stack: List[List[float]] = []
        #: the request the server is working on (lockstep serving only)
        self.request_id: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def aggregate(self, key: str, keep_samples: bool = False) -> Aggregate:
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = Aggregate(keep_samples)
        return agg

    def timed(self, fn: Callable, key: str, span: bool = False,
              keep_samples: bool = False, on_exit: Optional[Callable] = None) -> Callable:
        """A synchronous wrapper of *fn* recording under *key*.

        ``span`` additionally keeps one span record per call; ``on_exit``
        is called as ``on_exit(args, result, start, duration)`` after every
        call (for counters that need the arguments or the result).
        """
        stack = self.stack
        spans = self.spans
        agg = self.aggregate(key, keep_samples)

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if span:
                frame[1] = len(spans)
                parent = stack[-1][1] if stack else -1
                spans.append((key, 0.0, 0.0, 0.0, parent, self.request_id))
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _now() - start
                stack.pop()
                self_time = duration - frame[0]
                agg.calls += 1
                agg.total += duration
                agg.self_time += self_time
                if agg.samples is not None:
                    agg.samples.append(duration)
                    agg.self_samples.append(self_time)
                if stack:
                    stack[-1][0] += duration
                if span:
                    index = frame[1]
                    name, _s, _d, _self, parent, rid = spans[index]
                    spans[index] = (name, start, duration, self_time, parent, rid)
            if on_exit is not None:
                on_exit(args, result, start, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record_span(self, name: str, start: float, duration: float,
                    request_id: Optional[int] = None) -> None:
        """A span measured by the caller (asynchronous boundaries)."""
        self.spans.append((name, start, duration, duration, -1, request_id))

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`.

        Static and class methods keep their descriptor type, so callers
        that reach them through the class or an instance see the same
        calling convention.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, key: str, **options) -> None:
        """Patch ``owner.attr`` with a :meth:`timed` wrapper under *key*."""
        self.patch(owner, attr, lambda fn: self.timed(fn, key, **options))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def chrome(self) -> Dict[str, object]:
        """The spans (and aggregate totals) as a Chrome ``trace_event`` document."""
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "perfbench"}},
        ]
        for name, start, duration, self_time, parent, rid in self.spans:
            args: Dict[str, object] = {"self_us": round(self_time * 1e6, 3)}
            if parent >= 0:
                args["parent"] = self.spans[parent][0]
            if rid is not None:
                args["request_id"] = rid
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3), "pid": 0, "tid": 0, "args": args,
            })
        events.append({
            "name": "aggregates", "cat": "perfbench", "ph": "i", "s": "p",
            "ts": round((_now() - self.origin) * 1e6, 3), "pid": 0, "tid": 0,
            "args": {
                key: {"calls": agg.calls, "total_s": agg.total, "self_s": agg.self_time}
                for key, agg in sorted(self.aggregates.items())
            },
        })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
