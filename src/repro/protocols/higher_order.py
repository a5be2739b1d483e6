"""Higher-order (constant-acceleration) prediction dead reckoning.

The paper lists prediction with higher-order functions as a variant
(Sec. 2) but chooses not to evaluate it, arguing that the map-based protocol
already predicts the geometry better.  The implementation here completes the
protocol family so that the ablation benchmark can quantify that argument:
the acceleration estimate helps during speed changes but hurts whenever the
noisy second derivative is extrapolated too far.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.protocols.base import ObjectState, UpdateProtocol, UpdateReason
from repro.protocols.prediction import PredictionFunction, QuadraticPrediction


class HigherOrderPredictionProtocol(UpdateProtocol):
    """Dead reckoning with constant-acceleration (quadratic) prediction.

    Parameters
    ----------
    accuracy, sensor_uncertainty, estimation_window:
        As for every protocol (see :class:`~repro.protocols.base.UpdateProtocol`).
    acceleration_window:
        Number of recent velocity estimates used to estimate the
        acceleration vector by finite differences.
    max_horizon:
        Prediction horizon (seconds) beyond which the acceleration term is
        frozen to avoid divergence.
    """

    name = "higher-order prediction dead reckoning"

    def __init__(
        self,
        accuracy: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
        acceleration_window: int = 4,
        max_horizon: float = 30.0,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        if acceleration_window < 2:
            raise ValueError("acceleration_window must be at least 2")
        self._prediction = QuadraticPrediction(max_horizon=max_horizon)
        self._velocities: Deque[tuple[float, np.ndarray]] = deque(maxlen=acceleration_window)

    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def _pre_decision_hook(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> None:
        self._velocities.append((time, velocity.copy()))

    def _current_acceleration(self) -> Optional[np.ndarray]:
        if len(self._velocities) < 2:
            return None
        (t0, v0), (t1, v1) = self._velocities[0], self._velocities[-1]
        dt = t1 - t0
        if dt <= 0:
            return None
        return (v1 - v0) / dt

    def _build_state(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> ObjectState:
        return ObjectState(
            time=time,
            position=position,
            velocity=velocity,
            speed=speed,
            uncertainty=self.sensor_uncertainty,
            acceleration=self._current_acceleration(),
        )

    def _should_update(
        self, time: float, position: np.ndarray, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateReason]:
        if self._threshold_exceeded(time, position):
            return UpdateReason.THRESHOLD
        return None

    def reset(self) -> None:
        super().reset()
        self._velocities = deque(maxlen=self._velocities.maxlen)
