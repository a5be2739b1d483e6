"""GPS sensor noise.

The paper's traces were recorded with a Differential-GPS receiver accurate to
2-5 m.  :class:`GaussMarkovNoise` perturbs a ground-truth trace to emulate
such a sensor.  Consumer GPS errors are *correlated* in time (the error
wanders slowly rather than jumping independently each second), which matters
for the protocols: correlated noise produces smooth, plausible-looking — but
offset — tracks, whereas white noise produces jitter that inflates estimated
speeds.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.traces.trace import Trace


class GaussMarkovNoise:
    """First-order Gauss-Markov (exponentially correlated) position noise.

    The error on each axis follows ``e[k+1] = a * e[k] + w[k]`` with
    ``a = exp(-dt / correlation_time)`` and white driving noise ``w`` scaled so
    that the stationary standard deviation equals ``sigma``.  This reproduces
    the slowly wandering offset of real GPS receivers (multipath, atmospheric
    delays), which the paper's DGPS receiver exhibits at the 2-5 m level.

    Parameters
    ----------
    sigma:
        Stationary standard deviation per axis in metres.
    correlation_time:
        Time constant of the error process in seconds.
    seed:
        Seed of the internal random generator.
    """

    def __init__(
        self,
        sigma: float = 3.0,
        correlation_time: float = 60.0,
        seed: Optional[int] = None,
    ):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if correlation_time <= 0:
            raise ValueError("correlation_time must be positive")
        self.sigma = float(sigma)
        self.correlation_time = float(correlation_time)
        self._rng = np.random.default_rng(seed)

    def apply(self, trace: Trace) -> Trace:
        """Return a copy of *trace* with noisy positions."""
        n = len(trace)
        times = trace.times
        errors = np.zeros((n, 2))
        if self.sigma > 0.0:
            errors[0] = self._rng.normal(0.0, self.sigma, size=2)
            for k in range(1, n):
                dt = float(times[k] - times[k - 1])
                a = math.exp(-dt / self.correlation_time)
                driving_sigma = self.sigma * math.sqrt(max(0.0, 1.0 - a * a))
                errors[k] = a * errors[k - 1] + self._rng.normal(
                    0.0, driving_sigma, size=2
                )
        return trace.with_positions(trace.positions + errors)

    @property
    def typical_error(self) -> float:
        """A representative 1-sigma position error in metres (the paper's ``up``)."""
        return self.sigma
