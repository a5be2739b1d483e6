"""Speed and heading estimation from position sightings.

The object state reported to the location server contains the current speed
and direction of movement.  Footnote 1 of the paper notes that "if speed and
direction are not directly available, they can be inferred from the last *n*
position sightings", and Sec. 4 reports the window sizes that worked best:
n = 2 for freeway traffic, 4 for city and inter-urban traffic and 8 for a
walking person.  :class:`StateEstimator` implements exactly that sliding
window least-squares estimate.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

import numpy as np

from repro.geo.vec import Vec2, as_vec


def estimate_velocity(
    times: np.ndarray, positions: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Least-squares velocity estimate from a window of sightings.

    Fits ``position(t) = p0 + v * t`` independently per axis over the given
    window and returns ``(velocity_vector, speed)``.  With exactly two
    samples this degenerates to the finite difference the paper uses for the
    freeway case; larger windows average out sensor noise at the cost of lag,
    matching the trade-off described in the paper.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if len(times) < 2:
        return np.zeros(2), 0.0
    t = times - times[-1]
    # Least squares slope per axis: cov(t, x) / var(t).  The sums are written
    # as elementwise products reduced with ``sum`` so that the batched
    # implementation in :func:`estimate_traces` performs bitwise-identical
    # arithmetic row by row.
    t_mean = t.mean()
    t_centered = t - t_mean
    denom = float((t_centered * t_centered).sum())
    if denom == 0.0:
        return np.zeros(2), 0.0
    vx = float((t_centered * (positions[:, 0] - positions[:, 0].mean())).sum()) / denom
    vy = float((t_centered * (positions[:, 1] - positions[:, 1].mean())).sum()) / denom
    velocity = np.array([vx, vy])
    speed = float(np.hypot(vx, vy))
    return velocity, speed


#: Lanes per chunk of :func:`estimate_traces`: bounds the sliding-window
#: temporaries to ~100 MB at typical trace lengths while keeping the NumPy
#: call overhead amortised.
_ESTIMATE_CHUNK = 4096


def estimate_traces(
    times: np.ndarray, positions: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window speed/heading estimates for N lanes sharing one grid.

    ``positions`` has shape ``(n_lanes, n_samples, 2)``; returns
    ``(velocities, speeds)`` of shapes ``(n_lanes, n_samples, 2)`` and
    ``(n_lanes, n_samples)``.  Row ``k`` is exactly what feeding lane
    ``k``'s samples one by one through a :class:`StateEstimator` with the
    same *window* would produce: every window's arithmetic matches
    :func:`estimate_velocity` operation for operation, reduced over the
    last (window) axis, and the shared time grid makes the centred-time
    factors literally the same floats.  The simulation engines rely on that
    bitwise identity to keep their fast paths equivalent to the
    per-sighting protocol API.  Lanes are processed in fixed-size chunks so
    the windowed temporaries stay bounded at mega-fleet widths.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    n_lanes, n = positions.shape[0], positions.shape[1]
    velocities = np.zeros((n_lanes, n, 2))
    speeds = np.zeros((n_lanes, n))
    if n < 2:
        return velocities, speeds
    w = int(window)
    # Ramp-up: growing prefix windows of size 2 .. w - 1, one vectorised
    # pass per prefix length across all lanes.  The time factors are
    # scalars shared by every lane (one common grid), computed exactly as
    # estimate_velocity computes them.
    for i in range(1, min(w - 1, n)):
        t = times[: i + 1]
        t_rel = t - t[-1]
        t_mean = t_rel.mean()
        t_centered = t_rel - t_mean
        denom = float((t_centered * t_centered).sum())
        if denom == 0.0:
            continue
        # ascontiguousarray keeps the per-row reductions on the same pairwise
        # summation path as the streaming estimator's contiguous prefixes.
        x = np.ascontiguousarray(positions[:, : i + 1, 0])
        y = np.ascontiguousarray(positions[:, : i + 1, 1])
        vx = (t_centered * (x - x.mean(axis=1, keepdims=True))).sum(axis=1) / denom
        vy = (t_centered * (y - y.mean(axis=1, keepdims=True))).sum(axis=1) / denom
        velocities[:, i, 0] = vx
        velocities[:, i, 1] = vy
        speeds[:, i] = np.hypot(vx, vy)
    if n < w:
        return velocities, speeds
    from numpy.lib.stride_tricks import sliding_window_view

    tw = np.ascontiguousarray(sliding_window_view(times, w))
    t_rel = tw - tw[:, -1:]
    t_centered = t_rel - t_rel.mean(axis=1, keepdims=True)
    denom = (t_centered * t_centered).sum(axis=1)
    ok = denom != 0.0
    denom_safe = np.where(ok, denom, 1.0)
    for lo in range(0, n_lanes, _ESTIMATE_CHUNK):
        hi = min(lo + _ESTIMATE_CHUNK, n_lanes)
        xw = np.ascontiguousarray(
            sliding_window_view(positions[lo:hi, :, 0], w, axis=1)
        )
        yw = np.ascontiguousarray(
            sliding_window_view(positions[lo:hi, :, 1], w, axis=1)
        )
        vx = (t_centered * (xw - xw.mean(axis=2, keepdims=True))).sum(axis=2) / denom_safe
        vy = (t_centered * (yw - yw.mean(axis=2, keepdims=True))).sum(axis=2) / denom_safe
        vx = np.where(ok, vx, 0.0)
        vy = np.where(ok, vy, 0.0)
        velocities[lo:hi, w - 1 :, 0] = vx
        velocities[lo:hi, w - 1 :, 1] = vy
        speeds[lo:hi, w - 1 :] = np.hypot(vx, vy)
    return velocities, speeds


def estimate_trace(
    times: np.ndarray, positions: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window estimates for every sample of one trace at once.

    Returns ``(velocities, speeds)`` with shapes ``(n, 2)`` and ``(n,)``:
    row 0 of :func:`estimate_traces` over the one-lane fleet *positions*,
    hence bitwise identical to the streaming :class:`StateEstimator`.
    """
    velocities, speeds = estimate_traces(
        times, np.asarray(positions, dtype=float)[None], window
    )
    return velocities[0], speeds[0]


class StateEstimator:
    """Sliding-window speed/heading estimator fed one sighting at a time.

    Parameters
    ----------
    window:
        Number of most recent sightings used for the estimate (the paper's
        *n*).  ``window = 2`` reproduces a simple finite difference.
    """

    def __init__(self, window: int = 4):
        if window < 2:
            raise ValueError("window must be at least 2")
        self.window = int(window)
        self._times: Deque[float] = deque(maxlen=window)
        self._positions: Deque[np.ndarray] = deque(maxlen=window)

    def reset(self) -> None:
        """Forget all past sightings."""
        self._times.clear()
        self._positions.clear()

    def update(self, time: float, position: Vec2) -> Tuple[np.ndarray, float]:
        """Add a sighting and return the current ``(velocity, speed)`` estimate.

        Until two sightings have been seen the estimate is zero velocity,
        which is also what a receiver reports before it has a fix history.
        """
        self._times.append(float(time))
        self._positions.append(as_vec(position))
        if len(self._times) < 2:
            return np.zeros(2), 0.0
        return estimate_velocity(
            np.array(self._times), np.array(self._positions)
        )

    @property
    def n_samples(self) -> int:
        """Number of sightings currently inside the window."""
        return len(self._times)

    def current_direction(self) -> np.ndarray:
        """Unit direction of the current velocity estimate (zero if unknown)."""
        velocity, speed = estimate_velocity(
            np.array(self._times), np.array(self._positions)
        ) if len(self._times) >= 2 else (np.zeros(2), 0.0)
        if speed == 0.0:
            return np.zeros(2)
        return velocity / speed


def recommended_window(mean_speed: float) -> int:
    """The paper's recommended estimation window for a given mean speed.

    Sec. 4: 2 positions for freeway traffic, 4 for city or inter-urban
    traffic, 8 for a walking person.  The thresholds interpolate those
    choices by mean speed (m/s).
    """
    if mean_speed >= 22.0:  # ~80 km/h and above: freeway-like
        return 2
    if mean_speed >= 5.0:  # between ~18 and ~80 km/h: urban / inter-urban
        return 4
    return 8
