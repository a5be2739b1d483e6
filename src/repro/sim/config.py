"""Declarative simulation configuration.

:class:`SimulationConfig` captures everything needed to reproduce one
protocol-versus-scenario run (protocol name and parameters, requested
accuracy, scenario, seed, scale) and builds the protocol instance for a
given scenario.  The benchmark harness and the examples use it so their
parameters are explicit and greppable rather than buried in code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.mobility.scenarios import Scenario
from repro.protocols.base import UpdateProtocol
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.higher_order import HigherOrderPredictionProtocol
from repro.protocols.known_route import KnownRouteProtocol
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.probabilistic import ProbabilisticMapBasedProtocol
from repro.protocols.reporting import (
    DistanceBasedReporting,
    MovementBasedReporting,
    TimeBasedReporting,
)
from repro.roadmap.probability import TurnProbabilityTable

#: Registry of protocol identifiers accepted by :class:`SimulationConfig`.
PROTOCOL_IDS = (
    "distance",
    "movement",
    "time",
    "linear",
    "higher_order",
    "map",
    "map_probabilistic",
    "known_route",
)


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    Attributes
    ----------
    protocol_id:
        One of :data:`PROTOCOL_IDS`.
    accuracy:
        Requested accuracy ``us`` in metres.
    use_sensor_uncertainty:
        Whether the protocol adds the scenario's sensor sigma as ``up``.
    estimation_window:
        Speed/heading estimation window; ``None`` uses the scenario default.
    matching_tolerance:
        Map-matching tolerance ``um``; ``None`` uses the scenario default.
    extra:
        Free-form protocol-specific parameters (e.g. the time interval of
        time-based reporting).
    """

    protocol_id: str
    accuracy: float
    use_sensor_uncertainty: bool = True
    estimation_window: Optional[int] = None
    matching_tolerance: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.protocol_id not in PROTOCOL_IDS:
            raise ValueError(
                f"unknown protocol id {self.protocol_id!r}; expected one of {PROTOCOL_IDS}"
            )
        if self.accuracy <= 0:
            raise ValueError("accuracy must be positive")

    # ------------------------------------------------------------------ #
    # protocol construction
    # ------------------------------------------------------------------ #
    def build_protocol(
        self,
        scenario: Scenario,
        turn_probabilities: Optional[TurnProbabilityTable] = None,
    ) -> UpdateProtocol:
        """Instantiate the configured protocol for *scenario*."""
        up = scenario.sensor_sigma if self.use_sensor_uncertainty else 0.0
        window = self.estimation_window or scenario.estimation_window
        um = self.matching_tolerance or scenario.matching_tolerance

        if self.protocol_id == "distance":
            return DistanceBasedReporting(self.accuracy, up, window)
        if self.protocol_id == "movement":
            return MovementBasedReporting(self.accuracy, up, window)
        if self.protocol_id == "time":
            interval = self.extra.get("interval")
            if interval is None:
                summary = scenario.summary()
                speed = max(0.5, summary["average_speed_kmh"] / 3.6)
                return TimeBasedReporting.for_speed(self.accuracy, speed, up, window)
            return TimeBasedReporting(self.accuracy, float(interval), up, window)
        if self.protocol_id == "linear":
            return LinearPredictionProtocol(self.accuracy, up, window)
        if self.protocol_id == "higher_order":
            return HigherOrderPredictionProtocol(self.accuracy, up, window)
        if self.protocol_id == "map":
            return MapBasedProtocol(
                self.accuracy,
                scenario.roadmap,
                sensor_uncertainty=up,
                estimation_window=window,
                config=MapBasedConfig(matching_tolerance=um),
            )
        if self.protocol_id == "map_probabilistic":
            if turn_probabilities is None:
                raise ValueError(
                    "map_probabilistic requires a turn-probability table"
                )
            return ProbabilisticMapBasedProtocol(
                self.accuracy,
                scenario.roadmap,
                turn_probabilities,
                sensor_uncertainty=up,
                estimation_window=window,
                config=MapBasedConfig(matching_tolerance=um),
            )
        if self.protocol_id == "known_route":
            return KnownRouteProtocol(
                self.accuracy, scenario.route, sensor_uncertainty=up, estimation_window=window
            )
        raise AssertionError(f"unhandled protocol id {self.protocol_id!r}")
