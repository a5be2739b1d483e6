#!/usr/bin/env python
"""Tracking a walking person (the paper's fourth movement pattern).

Pedestrians are the hardest case for dead reckoning: the movement per second
is comparable to the sensor noise, direction changes are frequent, and the
paper finds that the advantage of the map-based protocol over plain linear
prediction shrinks (and can invert at the tightest accuracy).  This example
reproduces that comparison and also shows the effect of the heading
estimation window (the paper uses n=8 for pedestrians).

Run with::

    python examples/walking_tracking.py
"""

from repro.experiments.report import format_table
from repro.mobility.scenarios import walking_scenario
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.reporting import DistanceBasedReporting
from repro.sim.fleet import run_simulation


def run(protocol, scenario):
    return run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)


def main() -> None:
    scenario = walking_scenario(scale=0.5)  # ~5 km walk, about an hour
    summary = scenario.summary()
    print(
        f"Walking {summary['length_km']:.1f} km at "
        f"{summary['average_speed_kmh']:.1f} km/h "
        f"({summary['duration_h'] * 60.0:.0f} minutes)."
    )

    # --- protocol comparison over the walking accuracy sweep -----------------
    rows = []
    for us in scenario.us_values:
        row = {"us [m]": us}
        for label, protocol in (
            ("distance", DistanceBasedReporting(us, scenario.sensor_sigma, 8)),
            ("linear dr", LinearPredictionProtocol(us, scenario.sensor_sigma, 8)),
            (
                "map dr",
                MapBasedProtocol(
                    us, scenario.roadmap, scenario.sensor_sigma, 8,
                    config=MapBasedConfig(matching_tolerance=scenario.matching_tolerance),
                ),
            ),
        ):
            row[f"{label} [upd/h]"] = round(run(protocol, scenario).updates_per_hour, 1)
        rows.append(row)
    print()
    print(format_table(rows, title="Walking person: updates per hour (cf. Fig. 10)"))

    # --- the estimation window matters for slow, noisy movement --------------
    rows = []
    for window in (2, 4, 8, 16):
        protocol = LinearPredictionProtocol(
            accuracy=50.0, sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=window,
        )
        result = run(protocol, scenario)
        rows.append(
            {
                "estimation window n": window,
                "updates/h": round(result.updates_per_hour, 1),
                "mean error [m]": round(result.metrics.mean_error, 1),
            }
        )
    print()
    print(
        format_table(
            rows,
            title="Effect of the heading-estimation window at us = 50 m "
            "(the paper uses n = 8 for pedestrians)",
        )
    )


if __name__ == "__main__":
    main()
