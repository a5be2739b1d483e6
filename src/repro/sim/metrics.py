"""Metrics collected by a protocol simulation.

The paper's primary metric is the number of update messages per hour for a
requested accuracy; the secondary one is the accuracy actually delivered at
the server.  :class:`AccuracyMetrics` accumulates both, plus bandwidth.
Error samples are stored as NumPy array chunks and every summary statistic
is computed vectorised from the consolidated array, so recording a whole
trace's worth of errors at once (:meth:`record_batch`, the fleet engine's
path) costs one array append — and produces exactly the same statistics as
recording the samples one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

_EMPTY = np.zeros(0)


class AccuracyMetrics:
    """Accumulator of server-side position error samples."""

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []
        self._pending: List[float] = []
        self._consolidated: Optional[np.ndarray] = None
        self._bound: Optional[float] = None
        # Violations folded in via merge(); counted under each source's own
        # bound, which is what makes mixed-accuracy fleet aggregates honest.
        self._merged_violations = 0

    def set_bound(self, bound: float) -> None:
        """Define the accuracy bound used to count violations (``us``)."""
        self._bound = float(bound)

    def record(self, error: float) -> None:
        """Record one server-vs-truth position error sample (metres)."""
        self._pending.append(float(error))
        self._consolidated = None

    def record_batch(self, errors) -> None:
        """Record many error samples at once (the engine's vectorised path)."""
        arr = np.array(errors, dtype=float).ravel()
        if arr.size == 0:
            return
        self._flush_pending()
        self._chunks.append(arr)
        self._consolidated = None

    def merge(self, other: "AccuracyMetrics") -> None:
        """Fold *other*'s samples into this accumulator (fleet aggregation).

        The other accumulator's violations — counted under *its own* bound —
        are carried over, so a bound-less pooled fleet metric reports the
        fraction of samples that violated their respective object's
        requested accuracy.  Setting a bound on the aggregate overrides
        this: every pooled sample is then re-judged under that bound.
        """
        self.record_batch(other.errors)
        self._merged_violations += other.violation_count

    def _flush_pending(self) -> None:
        if self._pending:
            self._chunks.append(np.array(self._pending, dtype=float))
            self._pending = []

    @property
    def errors(self) -> np.ndarray:
        """All recorded error samples, in recording order."""
        if self._consolidated is None:
            self._flush_pending()
            if not self._chunks:
                self._consolidated = _EMPTY
            elif len(self._chunks) == 1:
                self._consolidated = self._chunks[0]
            else:
                self._consolidated = np.concatenate(self._chunks)
                self._chunks = [self._consolidated]
        return self._consolidated

    # ------------------------------------------------------------------ #
    # summary statistics
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return int(self.errors.size)

    @property
    def mean_error(self) -> float:
        """Mean position error in metres."""
        errors = self.errors
        return float(errors.mean()) if errors.size else 0.0

    @property
    def rms_error(self) -> float:
        """Root-mean-square position error in metres."""
        errors = self.errors
        return float(np.sqrt((errors * errors).mean())) if errors.size else 0.0

    @property
    def max_error(self) -> float:
        """Maximum position error in metres."""
        errors = self.errors
        return float(errors.max()) if errors.size else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0-100) of the error distribution."""
        errors = self.errors
        if errors.size == 0:
            return 0.0
        return float(np.percentile(errors, q))

    @property
    def violation_count(self) -> int:
        """Samples whose error exceeded the relevant accuracy bound.

        With an own bound set, every sample — including merged ones — is
        judged against it.  Without one, directly recorded samples are
        unbounded (they cannot violate) and the count is the total carried
        over from :meth:`merge`, where each source's samples were judged
        under that source's own bound.
        """
        errors = self.errors
        if errors.size == 0:
            return 0
        if self._bound is not None:
            return int((errors > self._bound).sum())
        return self._merged_violations

    @property
    def violation_fraction(self) -> float:
        """Fraction of samples whose error exceeded the accuracy bound."""
        errors = self.errors
        if errors.size == 0:
            return 0.0
        return self.violation_count / errors.size

    def as_dict(self) -> Dict[str, float]:
        """Summary dictionary used by reports."""
        return {
            "samples": float(self.count),
            "mean_error_m": self.mean_error,
            "rms_error_m": self.rms_error,
            "p95_error_m": self.percentile(95.0),
            "max_error_m": self.max_error,
            "violation_fraction": self.violation_fraction,
        }


@dataclass
class SimulationResult:
    """Outcome of running one protocol over one trace.

    Attributes
    ----------
    protocol_name:
        Human-readable protocol name.
    accuracy:
        The requested accuracy ``us`` in metres.
    duration_h:
        Simulated duration in hours.
    updates:
        Number of update messages counted by the evaluation (the initial
        update is included, as in the paper's counting of transmitted
        messages).
    bytes_sent:
        Total update payload bytes transmitted.
    metrics:
        Server-side accuracy metrics.
    update_reasons:
        Histogram of why updates were sent.
    matcher_stats:
        Map-matcher counters (empty for protocols without a matcher).
    service_stats:
        Serving-tier counters attached by fleet runs against a sharded
        :class:`~repro.service.facade.LocationService` backend (e.g. the
        shard that ended up responsible for the object).  Empty — and
        absent from :meth:`as_dict` — for plain single-server runs, so
        pinned golden metrics are unaffected.
    """

    protocol_name: str
    accuracy: float
    duration_h: float
    updates: int
    bytes_sent: int
    metrics: AccuracyMetrics
    update_reasons: Dict[str, int] = field(default_factory=dict)
    matcher_stats: Dict[str, int] = field(default_factory=dict)
    service_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def updates_per_hour(self) -> float:
        """The paper's headline metric: update messages per hour."""
        if self.duration_h <= 0:
            return 0.0
        return self.updates / self.duration_h

    @property
    def bytes_per_hour(self) -> float:
        """Transmitted payload bytes per hour."""
        if self.duration_h <= 0:
            return 0.0
        return self.bytes_sent / self.duration_h

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary used by the report renderer and benchmarks."""
        out: Dict[str, object] = {
            "protocol": self.protocol_name,
            "us_m": self.accuracy,
            "updates": self.updates,
            "updates_per_hour": round(self.updates_per_hour, 2),
            "bytes_per_hour": round(self.bytes_per_hour, 1),
            "duration_h": round(self.duration_h, 3),
        }
        out.update({k: round(v, 2) for k, v in self.metrics.as_dict().items()})
        if self.service_stats:
            out.update({f"svc_{k}": v for k, v in self.service_stats.items()})
        return out
