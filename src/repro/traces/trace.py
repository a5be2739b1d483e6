"""Trace containers.

:class:`Trace` stores a time-ordered sequence of position sightings in the
local planar frame.  It is deliberately a thin, array-backed container —
NumPy arrays for times and positions — because the simulation loops iterate
over traces with hour-long, 1 Hz data (thousands of samples) and per-sample
object allocation would dominate the run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from repro.geo.vec import as_vec


@dataclass(frozen=True)
class TraceSample:
    """A single position sighting.

    Attributes
    ----------
    time:
        Timestamp in seconds (simulation time or seconds since trace start).
    position:
        Position in local planar metres.
    """

    time: float
    position: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_vec(self.position))
        object.__setattr__(self, "time", float(self.time))


class Trace:
    """A time-ordered sequence of position sightings.

    Parameters
    ----------
    times:
        Strictly increasing timestamps in seconds.
    positions:
        ``(n, 2)`` array of positions in metres, parallel to *times*.
    name:
        Optional label used in reports ("car, freeway", ...).
    """

    __slots__ = ("_times", "_positions", "name")

    def __init__(self, times: Sequence[float], positions, name: str = ""):
        t = np.asarray(times, dtype=float)
        p = np.asarray(positions, dtype=float)
        if t.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if p.shape != (len(t), 2):
            raise ValueError(
                f"positions must have shape ({len(t)}, 2), got {p.shape!r}"
            )
        if len(t) == 0:
            raise ValueError("a trace needs at least one sample")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(p)):
            raise ValueError("times and positions must be finite")
        self._times = t
        self._positions = p
        self.name = name

    # ------------------------------------------------------------------ #
    # array access
    # ------------------------------------------------------------------ #
    @property
    def times(self) -> np.ndarray:
        """Timestamps in seconds (read-only view)."""
        view = self._times.view()
        view.flags.writeable = False
        return view

    @property
    def positions(self) -> np.ndarray:
        """Positions as an ``(n, 2)`` array in metres (read-only view)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceSample, "Trace"]:
        if isinstance(index, slice):
            return Trace(self._times[index], self._positions[index], name=self.name)
        return TraceSample(float(self._times[index]), self._positions[index].copy())

    def __iter__(self) -> Iterator[TraceSample]:
        for i in range(len(self)):
            yield TraceSample(float(self._times[i]), self._positions[i].copy())

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> float:
        """Trace duration in seconds."""
        return float(self._times[-1] - self._times[0])

    @property
    def sampling_interval(self) -> float:
        """Median spacing between consecutive samples, in seconds."""
        if len(self) < 2:
            return 0.0
        return float(np.median(np.diff(self._times)))

    def path_length(self) -> float:
        """Total travelled distance in metres (sum of sample-to-sample steps)."""
        if len(self) < 2:
            return 0.0
        deltas = np.diff(self._positions, axis=0)
        return float(np.hypot(deltas[:, 0], deltas[:, 1]).sum())

    def speeds(self) -> np.ndarray:
        """Instantaneous speeds (m/s) between consecutive samples.

        The returned array has ``len(self) - 1`` entries; entry ``i`` is the
        mean speed between samples ``i`` and ``i + 1``.
        """
        if len(self) < 2:
            return np.zeros(0)
        deltas = np.diff(self._positions, axis=0)
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        dts = np.diff(self._times)
        return dists / dts

    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounds of the positions ``(min_x, min_y, max_x, max_y)``."""
        mins = self._positions.min(axis=0)
        maxs = self._positions.max(axis=0)
        return (float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #

    def with_positions(self, positions: np.ndarray) -> "Trace":
        """A copy with the same timestamps but different positions.

        Used by the noise models, which perturb positions sample by sample.
        """
        return Trace(self._times.copy(), positions, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name or 'unnamed'}: {len(self)} samples, "
            f"{self.duration / 3600.0:.2f} h, {self.path_length() / 1000.0:.1f} km)"
        )
