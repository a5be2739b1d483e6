"""Trace statistics (the quantities of the paper's Table 1).

Table 1 characterises each recorded GPS trace by its length, duration,
average speed and maximum speed.  :func:`compute_statistics` derives the same
quantities from a :class:`~repro.traces.Trace`, with the same caveat the
paper notes: the maximum speed read off a noisy GPS trace overestimates the
true maximum, so a smoothed maximum is reported as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.trace import Trace


@dataclass(frozen=True)
class TraceStatistics:
    """Summary of a trace, mirroring the columns of the paper's Table 1."""

    name: str
    length_km: float
    duration_h: float
    average_speed_kmh: float
    max_speed_kmh: float
    smoothed_max_speed_kmh: float
    n_samples: int
    sampling_interval_s: float


def compute_statistics(trace: Trace, smoothing_window_s: float = 5.0) -> TraceStatistics:
    """Compute Table 1 style statistics for *trace*.

    Parameters
    ----------
    trace:
        The trace to summarise.
    smoothing_window_s:
        Width of the moving-average window applied to the speed series before
        taking the smoothed maximum; compensates for the sensor-noise induced
        overestimate the paper's footnote mentions.
    """
    length_m = trace.path_length()
    duration_s = trace.duration
    speeds = trace.speeds()
    if len(speeds) == 0:
        max_speed = 0.0
        smoothed_max = 0.0
        avg_speed = 0.0
    else:
        max_speed = float(speeds.max())
        interval = trace.sampling_interval or 1.0
        window = max(1, int(round(smoothing_window_s / interval)))
        if window > 1 and len(speeds) >= window:
            kernel = np.ones(window) / window
            smoothed = np.convolve(speeds, kernel, mode="valid")
            smoothed_max = float(smoothed.max())
        else:
            smoothed_max = max_speed
        avg_speed = length_m / duration_s if duration_s > 0 else 0.0

    return TraceStatistics(
        name=trace.name,
        length_km=length_m / 1000.0,
        duration_h=duration_s / 3600.0,
        average_speed_kmh=avg_speed * 3.6,
        max_speed_kmh=max_speed * 3.6,
        smoothed_max_speed_kmh=smoothed_max * 3.6,
        n_samples=len(trace),
        sampling_interval_s=trace.sampling_interval,
    )
