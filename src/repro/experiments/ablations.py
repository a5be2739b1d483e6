"""Ablation experiments around the design choices of the map-based protocol.

The paper motivates several design choices without quantifying them; the
ablations here fill those gaps (they correspond to experiments A1-A4 of
DESIGN.md):

* matching tolerance ``um`` (A1),
* heading/speed estimation window *n* (A2),
* intersection turn policy: smallest angle vs main road vs learned
  probabilities vs the known-route upper bound (A3),
* the Wolfson-style adaptive threshold strategies sdr/adr/dtdr (A4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.scenarios import get_scenario
from repro.mapmatching.offline import match_trace, matching_accuracy
from repro.mapmatching.matcher import MatcherConfig
from repro.mobility.scenarios import ScenarioName
from repro.protocols.adaptive import (
    AdaptiveDeadReckoning,
    DisconnectionDetectionDeadReckoning,
    SpeedDeadReckoning,
)
from repro.protocols.higher_order import HigherOrderPredictionProtocol
from repro.protocols.known_route import KnownRouteProtocol
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.prediction import (
    MainRoadTurnPolicy,
    SmallestAngleTurnPolicy,
)
from repro.protocols.probabilistic import ProbabilisticMapBasedProtocol
from repro.roadmap.probability import TurnProbabilityTable
from repro.sim.fleet import run_simulation


# --------------------------------------------------------------------------- #
# A6: robustness against message loss / disconnections
# --------------------------------------------------------------------------- #
def message_loss_robustness(
    scenario_name: ScenarioName | str = ScenarioName.FREEWAY,
    loss_probabilities: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    accuracy: float = 100.0,
    scale: float = 1.0,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Server-side error of linear DR and dtdr under lossy channels.

    The paper's related work motivates Wolfson's *disconnection detection*
    variant (dtdr) with exactly this failure mode: if update messages can be
    lost, a silent source is indistinguishable from a perfectly predicted
    one, and the server's error is unbounded.  dtdr shrinks its threshold
    while silent so the source keeps refreshing the server.  This experiment
    measures how the delivered accuracy of plain linear DR and of dtdr
    degrades as the loss probability grows.
    """
    from repro.service.channel import MessageChannel

    scenario = get_scenario(scenario_name, scale=scale)
    up = scenario.sensor_sigma
    window = scenario.estimation_window
    rows: List[Dict[str, object]] = []
    for loss in loss_probabilities:
        for label, protocol in (
            ("linear dr", LinearPredictionProtocol(accuracy, up, window)),
            (
                "dtdr",
                DisconnectionDetectionDeadReckoning(
                    accuracy, decay_time=120.0, floor_fraction=0.2,
                    sensor_uncertainty=up, estimation_window=window,
                ),
            ),
        ):
            channel = MessageChannel(loss_probability=float(loss), seed=seed)
            result = run_simulation(
                protocol, scenario.sensor_trace, scenario.true_trace, channel
            )
            rows.append(
                {
                    "loss": float(loss),
                    "protocol": label,
                    "updates_per_hour": round(result.updates_per_hour, 2),
                    "mean_error_m": round(result.metrics.mean_error, 2),
                    "p95_error_m": round(result.metrics.percentile(95.0), 2),
                    "max_error_m": round(result.metrics.max_error, 2),
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# A1: matching tolerance um
# --------------------------------------------------------------------------- #
def matching_tolerance_ablation(
    scenario_name: ScenarioName | str = ScenarioName.FREEWAY,
    tolerances: Sequence[float] = (5.0, 10.0, 20.0, 30.0, 50.0),
    accuracy: float = 100.0,
    scale: float = 1.0,
) -> List[Dict[str, float]]:
    """Update rate and matching accuracy as a function of ``um``.

    A tolerance below the sensor noise loses the map frequently (more
    updates, linear fallback); a very large tolerance risks matching onto
    the wrong road.
    """
    scenario = get_scenario(scenario_name, scale=scale)
    rows: List[Dict[str, float]] = []
    for um in tolerances:
        protocol = MapBasedProtocol(
            accuracy,
            scenario.roadmap,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
            config=MapBasedConfig(matching_tolerance=float(um)),
        )
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        matched = match_trace(
            scenario.sensor_trace,
            scenario.roadmap,
            MatcherConfig(tolerance=float(um)),
        )
        accuracy_fraction = matching_accuracy(
            matched, scenario.journey.link_ids, scenario.roadmap
        )
        rows.append(
            {
                "um [m]": float(um),
                "updates_per_hour": round(result.updates_per_hour, 2),
                "off_map_events": float(result.matcher_stats.get("off_map_events", 0)),
                "match_accuracy": round(accuracy_fraction, 3),
                "mean_error_m": round(result.metrics.mean_error, 2),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# A2: estimation window n
# --------------------------------------------------------------------------- #
def estimation_window_ablation(
    scenario_name: ScenarioName | str,
    windows: Sequence[int] = (2, 4, 8, 16),
    accuracy: float = 100.0,
    scale: float = 1.0,
) -> List[Dict[str, float]]:
    """Effect of the speed/heading estimation window on the linear protocol.

    The paper (Sec. 4) interpolates speed and direction from 2, 4 or 8
    consecutive sightings depending on the movement pattern; this ablation
    reproduces that tuning.
    """
    scenario = get_scenario(scenario_name, scale=scale)
    rows: List[Dict[str, float]] = []
    for window in windows:
        protocol = LinearPredictionProtocol(
            accuracy,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=int(window),
        )
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        rows.append(
            {
                "window": float(window),
                "updates_per_hour": round(result.updates_per_hour, 2),
                "mean_error_m": round(result.metrics.mean_error, 2),
                "p95_error_m": round(result.metrics.percentile(95.0), 2),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# A3: turn policy at intersections
# --------------------------------------------------------------------------- #
def turn_policy_ablation(
    scenario_name: ScenarioName | str = ScenarioName.CITY,
    accuracy: float = 100.0,
    scale: float = 1.0,
) -> List[Dict[str, object]]:
    """Compare intersection-choice policies for the map-based prediction.

    * smallest angle (the paper's implementation),
    * main road first (the paper's "ideal" policy),
    * learned turn probabilities (the map-based-with-probabilities variant,
      trained here on the scenario's own ground-truth route — the
      user-specific best case),
    * known route (upper bound: always the right choice).
    """
    scenario = get_scenario(scenario_name, scale=scale)
    config = MapBasedConfig(matching_tolerance=scenario.matching_tolerance)
    up = scenario.sensor_sigma
    window = scenario.estimation_window

    table = TurnProbabilityTable(scenario.roadmap, laplace_smoothing=0.0)
    table.record_route(scenario.route)

    protocols = [
        (
            "smallest angle",
            MapBasedProtocol(
                accuracy,
                scenario.roadmap,
                sensor_uncertainty=up,
                estimation_window=window,
                turn_policy=SmallestAngleTurnPolicy(),
                config=config,
            ),
        ),
        (
            "main road",
            MapBasedProtocol(
                accuracy,
                scenario.roadmap,
                sensor_uncertainty=up,
                estimation_window=window,
                turn_policy=MainRoadTurnPolicy(),
                config=config,
            ),
        ),
        (
            "turn probabilities",
            ProbabilisticMapBasedProtocol(
                accuracy,
                scenario.roadmap,
                table,
                sensor_uncertainty=up,
                estimation_window=window,
                config=config,
            ),
        ),
        (
            "known route",
            KnownRouteProtocol(
                accuracy, scenario.route, sensor_uncertainty=up, estimation_window=window
            ),
        ),
    ]
    rows: List[Dict[str, object]] = []
    for label, protocol in protocols:
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        rows.append(
            {
                "policy": label,
                "updates_per_hour": round(result.updates_per_hour, 2),
                "mean_error_m": round(result.metrics.mean_error, 2),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# A5: speed-limit-aware prediction (the paper's future-work extension)
# --------------------------------------------------------------------------- #
def speed_limit_prediction_ablation(
    scenario_name: ScenarioName | str = ScenarioName.CITY,
    factors: Sequence[Optional[float]] = (None, 1.2, 1.0, 0.9),
    accuracy: float = 100.0,
    scale: float = 1.0,
) -> List[Dict[str, object]]:
    """Effect of capping the assumed speed at the link speed limit.

    The paper's future-work section proposes using "knowledge about the speed
    limits for the roads to appropriately change the mobile object's assumed
    speed".  ``None`` is the evaluated protocol (always the reported speed);
    the other entries cap the assumed speed at ``factor * speed_limit`` of
    the link the object is predicted to be on.
    """
    scenario = get_scenario(scenario_name, scale=scale)
    rows: List[Dict[str, object]] = []
    for factor in factors:
        protocol = MapBasedProtocol(
            accuracy,
            scenario.roadmap,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
            config=MapBasedConfig(
                matching_tolerance=scenario.matching_tolerance,
                speed_limit_factor=factor,
            ),
        )
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        rows.append(
            {
                "speed_limit_factor": "none (paper)" if factor is None else factor,
                "updates_per_hour": round(result.updates_per_hour, 2),
                "mean_error_m": round(result.metrics.mean_error, 2),
                "max_error_m": round(result.metrics.max_error, 2),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# A4: Wolfson adaptive strategies
# --------------------------------------------------------------------------- #
def adaptive_strategy_comparison(
    scenario_name: ScenarioName | str = ScenarioName.FREEWAY,
    threshold: float = 100.0,
    scale: float = 1.0,
) -> List[Dict[str, object]]:
    """Compare sdr, adr and dtdr against plain linear-prediction DR.

    The adaptive strategies do not guarantee a fixed accuracy, so both the
    update rate and the resulting mean/maximum error are reported.
    """
    scenario = get_scenario(scenario_name, scale=scale)
    up = scenario.sensor_sigma
    window = scenario.estimation_window
    protocols = [
        ("linear dr", LinearPredictionProtocol(threshold, up, window)),
        ("sdr", SpeedDeadReckoning(threshold, up, window)),
        (
            "adr",
            AdaptiveDeadReckoning(
                threshold, update_cost=1.0, deviation_cost=0.0002,
                sensor_uncertainty=up, estimation_window=window,
            ),
        ),
        (
            "dtdr",
            DisconnectionDetectionDeadReckoning(
                threshold, decay_time=600.0, floor_fraction=0.25,
                sensor_uncertainty=up, estimation_window=window,
            ),
        ),
        (
            "higher-order dr",
            HigherOrderPredictionProtocol(threshold, up, window),
        ),
    ]
    rows: List[Dict[str, object]] = []
    for label, protocol in protocols:
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        rows.append(
            {
                "strategy": label,
                "updates_per_hour": round(result.updates_per_hour, 2),
                "mean_error_m": round(result.metrics.mean_error, 2),
                "max_error_m": round(result.metrics.max_error, 2),
            }
        )
    return rows
