"""Unified observability: metrics, tracing and provenance for every layer.

The reproduction's argument is quantitative — update counts, message
costs, latency distributions — so counting and timing deserve one shared
instrument instead of ad-hoc ``perf_counter`` calls per benchmark.  The
``obs`` package provides it in three pieces:

* :mod:`repro.obs.metrics` — a registry of counters, gauges, histograms
  and latency recorders, each flagged deterministic or not;
* :mod:`repro.obs.trace` — nested wall-time spans exported as Chrome
  ``trace_event`` JSON (open in Perfetto), plus a bounded flight recorder
  of recent fleet-loop events dumped on error;
* :mod:`repro.obs.manifest` — run provenance (git SHA, seed, config hash,
  toolchain versions) stamped into artifacts.

:class:`Observability` bundles one of each and is the single handle the
instrumented layers accept (``FleetSimulation(..., obs=...)``,
``LiveLocationServer(..., obs=...)``, ``repro fleet --obs``).  Every
layer always holds a bundle: :data:`NO_OBS`, the default everywhere, is
the disabled one.  Its instruments and spans are shared no-ops that keep
nothing, so instrumented code calls them unconditionally.
:attr:`Observability.enabled` is read only where a no-op call would still
cost per event (the fleet loop's flight-recorder notes) or where the answer
changes output (the live ``metrics`` op, handing a bundle on to a facade
that has none enabled).  Nothing about results, goldens or bit-identity
changes when observability is enabled — the instruments only *watch*.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.obs.manifest import build_manifest, config_hash, git_revision
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyRecorder,
    MetricsRegistry,
    nearest_rank,
    publish_service_stats,
)
from repro.obs.trace import (
    FlightRecorder,
    Span,
    SpanTracer,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LatencyRecorder",
    "MetricsRegistry",
    "NO_OBS",
    "Observability",
    "Span",
    "SpanTracer",
    "build_manifest",
    "config_hash",
    "git_revision",
    "nearest_rank",
    "publish_service_stats",
    "validate_chrome_trace",
]

_logger = logging.getLogger(__name__)


class Observability:
    """One registry + tracer + flight recorder, passed around as a unit.

    Exposes thin pass-throughs so instrumented code reads as
    ``obs.counter("kernel.events.sample").inc()`` without reaching into
    the bundle's internals.
    """

    __slots__ = ("registry", "tracer", "flight")

    #: ``False`` only on :data:`NO_OBS`.
    enabled = True

    def __init__(self, flight_capacity: int = 256):
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()
        self.flight = FlightRecorder(flight_capacity)

    # ------------------------------------------------------------------ #
    # instrument pass-throughs
    # ------------------------------------------------------------------ #
    def counter(self, name: str, deterministic: bool = True) -> Counter:
        return self.registry.counter(name, deterministic=deterministic)

    def gauge(self, name: str, mode: str = "max", deterministic: bool = False) -> Gauge:
        return self.registry.gauge(name, mode=mode, deterministic=deterministic)

    def histogram(
        self, name: str, bounds: Sequence[float], deterministic: bool = False
    ) -> Histogram:
        return self.registry.histogram(name, bounds, deterministic=deterministic)

    def latency(self, name: str) -> LatencyRecorder:
        return self.registry.latency(name)

    def span(self, name: str, cat: str = "repro", args: Optional[Dict] = None) -> Span:
        return self.tracer.span(name, cat=cat, args=args)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def report(self) -> Dict[str, object]:
        """Both metric views: everything, and the deterministic subset."""
        return {
            "metrics": self.registry.snapshot(),
            "deterministic_metrics": self.registry.snapshot(deterministic_only=True),
        }

    def dump_flight(self, reason: str = "") -> int:
        """Log the flight-recorder ring (crash path); returns event count."""
        count = len(self.flight)
        if count:
            _logger.error(
                "flight recorder%s — last %d fleet-loop events:\n%s",
                f" ({reason})" if reason else "",
                count,
                self.flight.format(),
            )
        return count

    def write(
        self,
        directory: Union[str, Path],
        seed: Optional[int] = None,
        config: Optional[Mapping[str, object]] = None,
        timings: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, str]:
        """Write ``metrics.json``, ``trace.json`` and ``manifest.json``.

        Returns the written paths by artifact name.  ``metrics.json``
        carries both snapshot views plus the Prometheus exposition;
        ``trace.json`` is a Chrome-trace document Perfetto opens directly.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        artifacts = {
            "metrics": {
                **self.report(),
                "prometheus": self.registry.to_prometheus(),
            },
            "trace": self.tracer.to_chrome(),
            "manifest": build_manifest(seed=seed, config=config, timings=timings),
        }
        paths: Dict[str, str] = {}
        for name, payload in artifacts.items():
            path = directory / f"{name}.json"
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            paths[name] = str(path)
        _logger.info("observability artifacts written to %s", directory)
        return paths


class _NoOp:
    """The disabled bundle's one instrument and span: takes every call, keeps nothing."""

    __slots__ = ()

    #: A fresh dict per read, so attaching span arguments records nothing.
    args = property(lambda self: {})

    def _ignore(self, *args, **kwargs) -> None:
        pass

    inc = set = observe = record = merge = __exit__ = _ignore

    def close(self) -> float:
        return 0.0

    def __enter__(self) -> "_NoOp":
        return self


_NOOP = _NoOp()


class _DisabledObservability(Observability):
    """The type of :data:`NO_OBS`: records nothing, holds nothing.

    Every instrument and span it hands out is the one shared no-op; its
    ``registry`` / ``tracer`` / ``flight`` are fresh empty objects per
    read, so reporting on it yields empty artifacts.  It pickles by name
    and unpickles to the same singleton.
    """

    __slots__ = ()

    enabled = False
    registry = property(lambda self: MetricsRegistry())
    tracer = property(lambda self: SpanTracer())
    flight = property(lambda self: FlightRecorder(0))

    def __init__(self) -> None:
        pass

    def __reduce__(self) -> str:
        return "NO_OBS"

    def _noop(self, *args, **kwargs) -> _NoOp:
        return _NOOP

    counter = gauge = histogram = latency = span = _noop


#: The disabled bundle: the default ``obs`` of every instrumented layer.
NO_OBS: Observability = _DisabledObservability()
