"""GPS traces: the container, sensor noise, speed estimation and statistics.

A *trace* is a time-ordered sequence of position sightings, exactly what the
paper records from its Differential-GPS receiver once per second.  The
protocols never see the true position of the mobile object — they consume a
trace (possibly noisy), mirroring the paper's trace-driven simulation.

* :mod:`~repro.traces.trace` — :class:`Trace`, the array-backed container;
* :mod:`~repro.traces.noise` — :class:`GaussMarkovNoise`, the correlated
  error of the paper's DGPS receiver;
* :mod:`~repro.traces.estimation` — sliding-window speed/heading estimates
  for whole traces (``estimate_trace`` / ``estimate_traces``) or one
  instant (``estimate_at``);
* :mod:`~repro.traces.stats` — the Table 1 statistics;
* :mod:`~repro.traces.resample` — :func:`decimate`, a coarser sighting rate;
* :mod:`~repro.traces.io` — ``time,x,y`` CSV export.
"""

from repro.traces.trace import TraceSample, Trace
from repro.traces.noise import GaussMarkovNoise
from repro.traces.stats import TraceStatistics, compute_statistics
from repro.traces.resample import decimate
from repro.traces import io

__all__ = [
    "TraceSample",
    "Trace",
    "GaussMarkovNoise",
    "TraceStatistics",
    "compute_statistics",
    "decimate",
    "io",
]
