"""Linear-prediction dead reckoning.

"This simple dead-reckoning protocol assumes that the mobile object keeps on
moving along a line given by the reported position and direction and with
the reported speed." (paper Sec. 2)

The source estimates speed and heading from the last *n* sightings
(:mod:`repro.traces.estimation`), predicts with the same linear function the
server uses and transmits a new state whenever the deviation plus the sensor
uncertainty exceeds the requested accuracy.
"""

from __future__ import annotations

from repro.protocols.base import UpdateProtocol
from repro.protocols.prediction import LinearPrediction, PredictionFunction


class LinearPredictionProtocol(UpdateProtocol):
    """Dead reckoning with constant-velocity (linear) prediction."""

    name = "linear-prediction dead reckoning"

    def __init__(
        self,
        accuracy: float,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        self._prediction = LinearPrediction()

    def prediction_function(self) -> PredictionFunction:
        return self._prediction
