"""GPS traces: containers, noise models, estimation and statistics.

A *trace* is a time-ordered sequence of position sightings, exactly what the
paper records from its Differential-GPS receiver once per second.  The
protocols never see the true position of the mobile object — they consume a
trace (possibly noisy) sample by sample, mirroring the paper's trace-driven
simulation.
"""

from repro.traces.trace import TraceSample, Trace
from repro.traces.noise import GpsNoiseModel, GaussianNoise, GaussMarkovNoise, NoNoise
from repro.traces.estimation import estimate_velocity
from repro.traces.filters import MovingAverageFilter, AlphaBetaFilter
from repro.traces.stats import TraceStatistics, compute_statistics
from repro.traces.resample import resample_uniform, decimate
from repro.traces import io

__all__ = [
    "TraceSample",
    "Trace",
    "GpsNoiseModel",
    "GaussianNoise",
    "GaussMarkovNoise",
    "NoNoise",
    "estimate_velocity",
    "MovingAverageFilter",
    "AlphaBetaFilter",
    "TraceStatistics",
    "compute_statistics",
    "resample_uniform",
    "decimate",
    "io",
]
