"""Non-dead-reckoning reporting protocols.

These are the baselines of the paper's earlier work ([6], also [1] for PCS
location management): the server performs no prediction at all, so the
source must report whenever the *reported* (static) position could be off by
more than the requested accuracy.

* :class:`DistanceBasedReporting` — the baseline used in the paper's
  evaluation: update when the actual position deviates from the last
  reported one by more than the threshold.
* :class:`TimeBasedReporting` — update every fixed interval.
* :class:`MovementBasedReporting` — update after a fixed amount of movement
  (travelled path length), regardless of where it led.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.protocols.base import UpdateProtocol, UpdateReason
from repro.protocols.prediction import PredictionFunction, StaticPrediction


class DistanceBasedReporting(UpdateProtocol):
    """Send an update when the object moved more than ``us`` from the last report.

    "The distance-based protocol sends an update whenever the actual
    position deviates from the last reported position by more than a given
    threshold." (paper Sec. 4)
    """

    name = "distance-based reporting"

    def __init__(
        self,
        accuracy: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        self._prediction = StaticPrediction()

    def prediction_function(self) -> PredictionFunction:
        return self._prediction


class TimeBasedReporting(UpdateProtocol):
    """Send an update every ``interval`` seconds.

    The accuracy delivered by this protocol depends entirely on the object
    speed, which is why the paper's earlier work found it inferior to
    distance-based reporting for accuracy-bounded tracking; it is included
    as a baseline for the ablation benchmarks.
    """

    name = "time-based reporting"

    def __init__(
        self,
        accuracy: float,
        interval: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        self._prediction = StaticPrediction()

    @classmethod
    def for_speed(
        cls,
        accuracy: float,
        expected_speed: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ) -> "TimeBasedReporting":
        """Choose the interval so that accuracy holds at the expected speed.

        ``interval = us / v``: an object moving at *expected_speed* covers at
        most ``us`` metres between two updates.
        """
        if expected_speed <= 0:
            raise ValueError("expected_speed must be positive")
        return cls(
            accuracy,
            interval=accuracy / expected_speed,
            sensor_uncertainty=sensor_uncertainty,
            estimation_window=estimation_window,
        )

    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def clone_for(self, accuracy=None) -> "TimeBasedReporting":
        """Clone with the interval rescaled to the new accuracy.

        The interval encodes ``us / v`` (see :meth:`for_speed`), so a clone
        requested for a different accuracy keeps the implied object speed.
        """
        clone = super().clone_for(accuracy)
        if accuracy is not None:
            clone.interval = self.interval * (clone.accuracy / self.accuracy)
        return clone

    def _trigger(self, lo, hi):
        """A sighting at least ``interval`` after the last report sends."""
        elapsed = self._times[lo:hi] - self._last_reported.time
        return [(elapsed >= self.interval, UpdateReason.TIMER)]

    def next_deadline(self) -> Optional[float]:
        """The exact instant of the next periodic report.

        ``last_reported.time + interval``, that very float: the report
        fires there, between sightings, carrying the latest sighting, so
        reports go out at exactly ``t0 + k * interval``.  It is never
        compared against a re-derived ``time - last`` difference, which
        rounds differently for non-representable intervals (e.g. any
        :meth:`for_speed` ratio).  The server performs no prediction for
        this protocol, so holding the latest position is exactly what
        reporting does.
        """
        if self.last_reported is None:
            return None
        return self.last_reported.time + self.interval

    def _on_deadline(self, time: float) -> UpdateReason:
        return UpdateReason.TIMER


class MovementBasedReporting(UpdateProtocol):
    """Send an update after the object travelled ``us`` metres of path.

    Tracks the accumulated travelled distance since the last update (rather
    than the straight-line displacement the distance-based protocol uses),
    the movement-based strategy known from PCS location management [1].
    """

    name = "movement-based reporting"

    def __init__(
        self,
        accuracy: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        self._prediction = StaticPrediction()

    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def prepare_trace(self, times, positions, velocities, speeds) -> None:
        super().prepare_trace(times, positions, velocities, speeds)
        # Step m is the path from sighting m - 1 to sighting m.
        d = np.diff(self._positions, axis=0)
        d *= d
        self._steps = np.concatenate(([0.0], np.sqrt(d[:, 0] + d[:, 1])))

    def _forget_trace(self) -> None:
        super()._forget_trace()
        self._steps = None

    def _trigger(self, lo, hi):
        """The path travelled since the last report's sighting exceeds ``us``.

        ``np.add.accumulate`` adds the steps one after another from the
        report's row, so every row's path is the same left-to-right sum a
        running total would hold.
        """
        start = self._reported_row + 1
        travelled = np.add.accumulate(self._steps[start:hi])[lo - start:]
        return [(travelled + self.sensor_uncertainty > self.accuracy, UpdateReason.THRESHOLD)]
