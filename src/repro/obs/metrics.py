"""The deterministic metrics registry: counters, gauges, histograms, latencies.

One instrument family serves every layer of the reproduction — the fleet
loop, the columnar engine, the sharded service facade, the live serving
tier and the benchmarks.  **Determinism is declared, not assumed**: every
instrument carries a ``deterministic`` flag meaning *a function of the
run's inputs, not of the wall clock*: samples processed, timers fired,
updates sent are the same numbers on every run of the same fleet.  Wall
time and scheduling-dependent counts (live ingest rejections, rebalance
passes) are not, so they are flagged ``deterministic=False`` and excluded
from :meth:`MetricsRegistry.snapshot(deterministic_only=True) <MetricsRegistry.snapshot>`.
Gauges combine successive values by an explicit mode (``max``/``min``/
``sum``).

Percentiles are **nearest-rank** (``pq = sorted[ceil(q/100 * n) - 1]``):
exact, monotone in *q*, always an actual sample, and — because the samples
are sorted before ranking — invariant to the order recorders were merged
in.  This is the one percentile implementation in the repository: the live
tier's per-request :class:`LatencyRecorder` is built on it and
``benchmarks/bench_bigmap.py`` routes its p50/p99 through it.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Union


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The nearest-rank *q*-th percentile of a **pre-sorted** sequence.

    ``0.0`` when empty; raises :class:`ValueError` unless ``0 < q <= 100``.
    For even-length samples this is ``statistics.median_low`` at ``q=50``
    (no interpolation policy — the result is always an actual sample).
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    rank = math.ceil(q / 100.0 * n)
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("value", "deterministic")

    kind = "counter"

    def __init__(self, deterministic: bool = True):
        self.value = 0
        self.deterministic = deterministic

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "deterministic": self.deterministic,
            "value": self.value,
        }


#: The gauge combine modes: how a gauge folds each new value into its own.
GAUGE_MODES = ("max", "min", "sum")


class Gauge:
    """A point-in-time value; successive values combine by ``mode``."""

    __slots__ = ("value", "mode", "deterministic", "_set")

    kind = "gauge"

    def __init__(self, mode: str = "max", deterministic: bool = False):
        if mode not in GAUGE_MODES:
            raise ValueError(f"unknown gauge mode {mode!r}; expected one of {GAUGE_MODES}")
        self.value = 0.0
        self.mode = mode
        self.deterministic = deterministic
        self._set = False

    def set(self, value: float) -> None:
        value = float(value)
        if not self._set:
            self.value = value
            self._set = True
        elif self.mode == "max":
            self.value = max(self.value, value)
        elif self.mode == "min":
            self.value = min(self.value, value)
        else:
            self.value += value

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "deterministic": self.deterministic,
            "mode": self.mode,
            "value": self.value,
        }


class Histogram:
    """A fixed-bucket histogram.

    ``bounds`` are the finite, strictly ascending *inclusive upper edges*;
    an implicit overflow bucket (``+inf``) catches the rest.
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum", "deterministic")

    kind = "histogram"

    def __init__(self, bounds: Sequence[float], deterministic: bool = False):
        edges = tuple(float(b) for b in bounds)
        if not edges or any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("histogram bounds must be non-empty and strictly ascending")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.deterministic = deterministic

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "deterministic": self.deterministic,
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": [
                [bound, count]
                for bound, count in zip(list(self.bounds) + ["+inf"], self.counts)
            ],
        }


class LatencyRecorder:
    """Collects wall-clock request latencies (seconds) and summarises them.

    This is the repository's one latency/percentile implementation (see the
    module docstring); the live tier re-exports it unchanged.  Percentiles
    are nearest-rank over the sorted samples, so the summary is invariant
    to the order recorders were merged in.
    """

    __slots__ = ("_samples", "deterministic")

    kind = "latency"

    def __init__(self, samples: Sequence[float] = (), deterministic: bool = False):
        self._samples: List[float] = [float(s) for s in samples]
        self.deterministic = deterministic

    def record(self, seconds: float) -> None:
        """Add one request's wall-clock duration."""
        self._samples.append(float(seconds))

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        self._samples.extend(other._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded durations."""
        return sum(self._samples)

    def mean(self) -> float:
        """Arithmetic mean latency in seconds (``0.0`` when empty)."""
        return sum(self._samples) / len(self._samples) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile in seconds (``0.0`` when empty)."""
        if not self._samples:
            return 0.0
        if not 0.0 < q <= 100.0:
            raise ValueError("q must be in (0, 100]")
        return nearest_rank(sorted(self._samples), q)

    def summary(self) -> Dict[str, float]:
        """The reported metrics, in milliseconds (rounded to 0.1 us)."""

        def ms(seconds: float) -> float:
            return round(seconds * 1e3, 4)

        return {
            "count": len(self._samples),
            "avg_ms": ms(self.mean()),
            "p50_ms": ms(self.percentile(50.0)),
            "p95_ms": ms(self.percentile(95.0)),
            "p99_ms": ms(self.percentile(99.0)),
            "max_ms": ms(max(self._samples)) if self._samples else 0.0,
        }

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "deterministic": self.deterministic,
            **self.summary(),
        }


Instrument = Union[Counter, Gauge, Histogram, LatencyRecorder]

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


class MetricsRegistry:
    """A named collection of instruments.

    ``counter``/``gauge``/``histogram``/``latency`` are get-or-create (the
    same name always returns the same instrument; a kind clash raises), so
    instrumented code never holds registry bookkeeping — it just asks for
    the instrument by name on the spot.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------ #
    # instrument access
    # ------------------------------------------------------------------ #
    def _get_or_create(self, name: str, factory, kind: str):
        instrument = self._metrics.get(name)
        if instrument is None:
            instrument = factory()
            self._metrics[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(self, name: str, deterministic: bool = True) -> Counter:
        return self._get_or_create(name, lambda: Counter(deterministic), Counter.kind)

    def gauge(self, name: str, mode: str = "max", deterministic: bool = False) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(mode, deterministic), Gauge.kind)

    def histogram(
        self, name: str, bounds: Sequence[float], deterministic: bool = False
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(bounds, deterministic), Histogram.kind
        )

    def latency(self, name: str) -> LatencyRecorder:
        return self._get_or_create(name, LatencyRecorder, LatencyRecorder.kind)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def snapshot(self, deterministic_only: bool = False) -> Dict[str, Dict[str, object]]:
        """A plain-data view, sorted by name (JSON-ready).

        ``deterministic_only=True`` keeps only instruments whose values do
        not depend on the wall clock — the view that is the same on every
        run of the same fleet.
        """
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._metrics.items())
            if not deterministic_only or instrument.deterministic
        }

    def render(self) -> str:
        """A fixed-width text table of every instrument (CLI reporting)."""
        lines = [f"{'metric':<44} {'kind':<10} {'det':<4} value"]
        for name, instrument in sorted(self._metrics.items()):
            snap = instrument.snapshot()
            det = "yes" if instrument.deterministic else "no"
            if instrument.kind == "counter":
                value = str(snap["value"])
            elif instrument.kind == "gauge":
                value = f"{snap['value']:g} ({snap['mode']})"
            elif instrument.kind == "histogram":
                value = f"n={snap['count']} min={snap['min']} max={snap['max']}"
            else:
                value = (
                    f"n={snap['count']} p50={snap['p50_ms']}ms "
                    f"p99={snap['p99_ms']}ms max={snap['max_ms']}ms"
                )
            lines.append(f"{name:<44} {instrument.kind:<10} {det:<4} {value}")
        return "\n".join(lines)

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition (the live ``metrics`` wire op)."""
        out: List[str] = []
        for name, instrument in sorted(self._metrics.items()):
            metric = _PROM_NAME.sub("_", f"{prefix}_{name}" if prefix else name)
            if instrument.kind == "counter":
                out.append(f"# TYPE {metric} counter")
                out.append(f"{metric} {instrument.value}")
            elif instrument.kind == "gauge":
                out.append(f"# TYPE {metric} gauge")
                out.append(f"{metric} {instrument.value:g}")
            elif instrument.kind == "histogram":
                out.append(f"# TYPE {metric} histogram")
                cumulative = 0
                for bound, count in zip(instrument.bounds, instrument.counts):
                    cumulative += count
                    out.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
                out.append(f'{metric}_bucket{{le="+Inf"}} {instrument.count}')
                out.append(f"{metric}_sum {instrument.total:g}")
                out.append(f"{metric}_count {instrument.count}")
            else:
                out.append(f"# TYPE {metric} summary")
                for q in (50.0, 95.0, 99.0):
                    out.append(
                        f'{metric}{{quantile="{q / 100.0:g}"}} '
                        f"{instrument.percentile(q) if len(instrument) else 0.0:g}"
                    )
                out.append(f"{metric}_sum {instrument.total_seconds:g}")
                out.append(f"{metric}_count {len(instrument)}")
        return "\n".join(out) + ("\n" if out else "")


def publish_service_stats(registry: MetricsRegistry, stats: Mapping[str, object]) -> None:
    """Publish a facade ``service_stats()`` dict into *registry*.

    Called once per fleet run, after the loop.  The fleet issues no
    queries, so every published value is a function of the fleet's
    inputs, which is what makes these counters safe to flag
    deterministic.  The per-shard rows are the hot-shard-skew study's
    data: ``service.shard.<n>.updates`` etc. attribute work to shards.
    """
    for key in (
        "updates_ingested",
        "batches_ingested",
        "handoffs",
        "prepare_passes",
        "range_queries",
        "nearest_queries",
        "geofence_queries",
        "queries",
    ):
        value = stats.get(key)
        if value is not None:
            registry.counter(f"service.{key}").inc(int(value))
    for key in ("objects", "shards"):
        value = stats.get(key)
        if value is not None:
            registry.gauge(f"service.{key}", mode="max", deterministic=True).set(value)
    imbalance = stats.get("load_imbalance")
    if imbalance is not None:
        registry.gauge("service.load_imbalance", mode="max", deterministic=True).set(
            imbalance
        )
        # Published under the rebalancing vocabulary too: the skew gauge is
        # the number RebalancePolicy thresholds on (max/mean object count
        # across shards), so obs-report prints it directly.
        registry.gauge("service.shard.skew", mode="max", deterministic=True).set(
            imbalance
        )
    seconds = stats.get("query_seconds")
    if seconds is not None:
        registry.gauge("service.query_seconds", mode="sum").set(float(seconds))
    for row in stats.get("per_shard", ()):  # type: ignore[union-attr]
        shard = row.get("shard")
        if shard is None:
            continue
        base = f"service.shard.{shard}"
        for key in (
            "updates",
            "handoffs_in",
            "handoffs_out",
            "engine_queries",
        ):
            value = row.get(key)
            if value is not None:
                registry.counter(f"{base}.{key}").inc(int(value))
        objects = row.get("objects")
        if objects is not None:
            registry.gauge(f"{base}.objects", mode="max", deterministic=True).set(objects)
