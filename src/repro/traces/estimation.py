"""Speed and heading estimation from position sightings.

The object state reported to the location server contains the current speed
and direction of movement.  Footnote 1 of the paper notes that "if speed and
direction are not directly available, they can be inferred from the last *n*
position sightings", and Sec. 4 reports the window sizes that worked best:
n = 2 for freeway traffic, 4 for city and inter-urban traffic and 8 for a
walking person.  The estimate is a least-squares line fitted per axis to
the window (a finite difference for n = 2).  :func:`estimate_traces` (and
its one-trace form :func:`estimate_trace`) slides it over whole traces at
once, and :func:`estimate_at` evaluates it at one instant for many lanes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def estimate_at(
    times: np.ndarray, positions: np.ndarray, window: int
) -> np.ndarray:
    """Speed/heading estimate at the last sample of N lanes sharing one grid.

    ``positions`` has shape ``(n_lanes, m, 2)`` over the ``m`` sightings
    ``times``; returns the ``(n_lanes, 2)`` velocities at sample ``m - 1``
    — exactly row ``m - 1`` of :func:`estimate_traces` over the same
    arrays.  Only the last ``min(m, window)`` sightings are read, so a
    caller may pass just that slice.  The window's arithmetic is
    the one-window least-squares fit's, reduced over the sample axis of every
    lane at once; fewer than two sightings, or a degenerate time spread,
    give zero velocity.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    velocities = np.zeros((positions.shape[0], 2))
    m = len(times)
    if m < 2:
        return velocities
    lo = m - min(m, int(window))
    t = times[lo:]
    t_rel = t - t[-1]
    t_centered = t_rel - t_rel.mean()
    denom = float((t_centered * t_centered).sum())
    if denom == 0.0:
        return velocities
    for axis in (0, 1):
        # ascontiguousarray keeps the per-row reductions on the same pairwise
        # summation path as a one-window fit over contiguous arrays.
        x = np.ascontiguousarray(positions[:, lo:, axis])
        velocities[:, axis] = (
            t_centered * (x - x.mean(axis=1, keepdims=True))
        ).sum(axis=1) / denom
    return velocities


def estimate_traces(
    times: np.ndarray, positions: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window speed/heading estimates for N lanes sharing one grid.

    ``positions`` has shape ``(n_lanes, n_samples, 2)``; returns
    ``(velocities, speeds)`` of shapes ``(n_lanes, n_samples, 2)`` and
    ``(n_lanes, n_samples)``.  Row ``k``, sample ``i`` is exactly
    the least-squares fit over lane ``k``'s last ``min(i + 1, window)``
    sightings up to ``i`` (zero before the second sighting): every window's
    arithmetic matches it operation for operation, reduced over the last
    (window) axis, and the shared time grid makes the centred-time factors
    literally the same floats.  The simulation engines rely on that
    bitwise identity to keep their fast paths equivalent to the
    per-sighting estimate.  The windowed temporaries hold ``window``
    copies of *positions*; a wide fleet that needs the estimate only at a
    few samples calls :func:`estimate_at` there instead.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    n_lanes, n = positions.shape[0], positions.shape[1]
    velocities = np.zeros((n_lanes, n, 2))
    speeds = np.zeros((n_lanes, n))
    w = int(window)
    # Ramp-up: growing prefix windows of size 2 .. w - 1.
    for i in range(1, min(w - 1, n)):
        v = estimate_at(times[: i + 1], positions[:, : i + 1], w)
        velocities[:, i] = v
        speeds[:, i] = np.hypot(v[:, 0], v[:, 1])
    if n < w:
        return velocities, speeds
    from numpy.lib.stride_tricks import sliding_window_view

    tw = np.ascontiguousarray(sliding_window_view(times, w))
    t_rel = tw - tw[:, -1:]
    t_centered = t_rel - t_rel.mean(axis=1, keepdims=True)
    denom = (t_centered * t_centered).sum(axis=1)
    ok = denom != 0.0
    denom_safe = np.where(ok, denom, 1.0)
    xw = np.ascontiguousarray(sliding_window_view(positions[:, :, 0], w, axis=1))
    yw = np.ascontiguousarray(sliding_window_view(positions[:, :, 1], w, axis=1))
    vx = (t_centered * (xw - xw.mean(axis=2, keepdims=True))).sum(axis=2) / denom_safe
    vy = (t_centered * (yw - yw.mean(axis=2, keepdims=True))).sum(axis=2) / denom_safe
    vx = np.where(ok, vx, 0.0)
    vy = np.where(ok, vy, 0.0)
    velocities[:, w - 1 :, 0] = vx
    velocities[:, w - 1 :, 1] = vy
    speeds[:, w - 1 :] = np.hypot(vx, vy)
    return velocities, speeds


def estimate_trace(
    times: np.ndarray, positions: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window estimates for every sample of one trace at once.

    Returns ``(velocities, speeds)`` with shapes ``(n, 2)`` and ``(n,)``:
    row 0 of :func:`estimate_traces` over the one-lane fleet *positions*,
    hence bitwise identical to estimating sighting by sighting.
    """
    velocities, speeds = estimate_traces(
        times, np.asarray(positions, dtype=float)[None], window
    )
    return velocities[0], speeds[0]
