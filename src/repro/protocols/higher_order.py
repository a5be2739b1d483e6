"""Higher-order (constant-acceleration) prediction dead reckoning.

The paper lists prediction with higher-order functions as a variant
(Sec. 2) but chooses not to evaluate it, arguing that the map-based protocol
already predicts the geometry better.  The implementation here completes the
protocol family so that the ablation benchmark can quantify that argument:
the acceleration estimate helps during speed changes but hurts whenever the
noisy second derivative is extrapolated too far.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.protocols.base import ObjectState, UpdateProtocol
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
        self.acceleration_window = int(acceleration_window)
        self._prediction = QuadraticPrediction(max_horizon=max_horizon)

    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def _acceleration_at(self, row: int) -> Optional[np.ndarray]:
        """Finite difference over the velocity estimates of the last
        ``acceleration_window`` sightings up to *row*."""
        first = max(0, row - self.acceleration_window + 1)
        if first == row:
            return None
        dt = self._times[row] - self._times[first]
        if dt <= 0:
            return None
        return (self._velocities[row] - self._velocities[first]) / dt

    def _build_state(self, time: float, row: int) -> ObjectState:
        return ObjectState(
            time=time,
            position=self._positions[row],
            velocity=self._velocities[row],
            speed=float(self._speeds[row]),
            uncertainty=self.sensor_uncertainty,
            acceleration=self._acceleration_at(row),
        )
