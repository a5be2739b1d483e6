"""Dead reckoning with a pre-known route.

"If the route of the mobile object is known beforehand, the protocol only
needs to consider the object's speed and not the direction of its movement."
(paper Sec. 2, following Wolfson et al. [12]).  The paper uses it as the
upper bound for the map-based protocol: with a known route the prediction is
equivalent to a map-based prediction that chooses correctly at every
intersection.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import UpdateProtocol
from repro.protocols.prediction import PredictionFunction, RoutePrediction
from repro.roadmap.routing import Route


class KnownRouteProtocol(UpdateProtocol):
    """Dead reckoning along a route known to both source and server.

    The source tracks its progress (arc-length offset) along the known route
    monotonically — a fresh global projection every second could jump to a
    different pass of a self-intersecting route — and transmits that offset
    in the ``link_offset`` field of the update, which the shared
    :class:`~repro.protocols.prediction.RoutePrediction` then advances at the
    reported speed.
    """

    name = "known-route dead reckoning"

    def __init__(
        self,
        accuracy: float,
        route: Route,
        sensor_uncertainty: float = 0.0,
        estimation_window: int = 4,
    ):
        super().__init__(accuracy, sensor_uncertainty, estimation_window)
        self.route = route
        self._prediction = RoutePrediction(route)

    def prediction_function(self) -> PredictionFunction:
        return self._prediction

    def prepare_trace(self, times, positions, velocities, speeds) -> None:
        """Track the route offset of every sighting: a global projection
        for the first, then each one projected near the one before."""
        super().prepare_trace(times, positions, velocities, speeds)
        offsets = np.empty(len(self._positions))
        offset = None
        for i, position in enumerate(self._positions):
            if offset is None:
                offset = self.route.project(position)[1]
            else:
                offset = self.route.project_near(position, offset)[1]
            offsets[i] = offset
        self._route_offsets = offsets

    def _forget_trace(self) -> None:
        super()._forget_trace()
        self._route_offsets = None

    def _build_state(self, time, row):
        state = super()._build_state(time, row)
        return state.with_link(None, float(self._route_offsets[row]))
