"""Resampling utilities for traces.

The paper's receiver logs one fix per second; :func:`decimate` thins a
trace to a coarser sighting rate (a scenario's ``sample_interval``).
"""

from __future__ import annotations

import numpy as np

from repro.traces.trace import Trace


def decimate(trace: Trace, factor: int) -> Trace:
    """Keep every *factor*-th sample of *trace* (always keeping the first)."""
    if factor < 1:
        raise ValueError("factor must be at least 1")
    indices = np.arange(0, len(trace), factor)
    return Trace(trace.times[indices], trace.positions[indices], name=trace.name)
