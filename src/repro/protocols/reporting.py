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

from repro.geo.vec import distance
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

    def _should_update(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateReason]:
        if self._threshold_exceeded(time, position):
            return UpdateReason.THRESHOLD
        return None


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
        # The most recent sighting, replayed by timer-fired reports (only
        # this protocol pays the bookkeeping; see _pre_decision_hook).
        self._last_seen: Optional[tuple] = None

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

    def _should_update(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateReason]:
        assert self.last_reported is not None
        if time - self.last_reported.time >= self.interval:
            return UpdateReason.TIMER
        return None

    def _pre_decision_hook(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> None:
        self._last_seen = (time, position, velocity, speed)

    def reset(self) -> None:
        super().reset()
        self._last_seen = None

    # ------------------------------------------------------------------ #
    # timer contract (the fleet's send schedule)
    # ------------------------------------------------------------------ #
    def next_deadline(self) -> Optional[float]:
        """The exact instant of the next periodic report.

        In the fleet simulation the report fires at exactly
        ``t0 + k * interval`` (``t0`` being the initial report), carrying
        the most recent sighting's state; a caller that only feeds
        sightings polls the protocol, which then reports at the first
        sighting past the deadline.
        """
        if self.last_reported is None:
            return None
        return self.last_reported.time + self.interval

    def on_timer(self, time: float):
        """Emit the periodic report at the exact deadline.

        Stale fires (a sighting at the same instant already reported, so
        the deadline moved) are ignored.  The staleness check compares
        against :meth:`next_deadline` itself — the very float the schedule
        armed — never against a re-derived ``time - last`` difference,
        which rounds differently for non-representable intervals (e.g. any
        :meth:`for_speed` ratio) and would reject the legitimate fire
        forever.  The transmitted state holds the last observed position —
        the server performs no prediction for this protocol, so holding is
        exactly what reporting does.
        """
        deadline = self.next_deadline()
        if deadline is None or self._last_seen is None or time < deadline:
            return None
        _, position, velocity, speed = self._last_seen
        return self._emit_update(time, position, velocity, speed, UpdateReason.TIMER)


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
        self._travelled_since_update = 0.0
        self._last_position: Optional[np.ndarray] = None

    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def _pre_decision_hook(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> None:
        if self._last_position is not None:
            self._travelled_since_update += distance(position, self._last_position)
        self._last_position = position.copy()

    def _should_update(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateReason]:
        if self._travelled_since_update + self.sensor_uncertainty > self.accuracy:
            return UpdateReason.THRESHOLD
        return None

    def _post_update_hook(self, message) -> None:
        self._travelled_since_update = 0.0

    def reset(self) -> None:
        super().reset()
        self._travelled_since_update = 0.0
        self._last_position = None
