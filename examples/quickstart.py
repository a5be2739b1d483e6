#!/usr/bin/env python
"""Quickstart: compare three update protocols on a short freeway drive.

This is the smallest end-to-end use of the library:

1. build a synthetic freeway scenario (road map + simulated drive + GPS noise),
2. run the distance-based reporting baseline, linear-prediction dead
   reckoning and the paper's map-based dead reckoning over the same trace,
3. print how many update messages each protocol needed and how accurate the
   location server's view of the object actually was.

Run with::

    python examples/quickstart.py
"""

from repro.experiments.report import format_table
from repro.mobility.scenarios import freeway_scenario
from repro.sim.config import SimulationConfig
from repro.sim.fleet import run_simulation


def main() -> None:
    # A 10%-length freeway scenario (~16 km of driving) keeps this example fast.
    scenario = freeway_scenario(scale=0.1)
    print(f"Scenario: {scenario.description}")
    print({k: round(v, 2) for k, v in scenario.summary().items()})
    print()

    requested_accuracy = 100.0  # metres, the "us" of the paper
    rows = []
    for protocol_id in ("distance", "linear", "map"):
        protocol = SimulationConfig(
            protocol_id=protocol_id, accuracy=requested_accuracy
        ).build_protocol(scenario)
        result = run_simulation(
            protocol,
            scenario.sensor_trace,  # what the GPS reports
            scenario.true_trace,    # what the object really did
        )
        rows.append(
            {
                "protocol": result.protocol_name,
                "updates": result.updates,
                "updates/h": round(result.updates_per_hour, 1),
                "mean error [m]": round(result.metrics.mean_error, 1),
                "max error [m]": round(result.metrics.max_error, 1),
            }
        )

    print(format_table(rows, title=f"Requested accuracy us = {requested_accuracy:.0f} m"))
    print()
    baseline, linear, mapped = (row["updates"] for row in rows)
    print(
        f"Linear-prediction dead reckoning removes "
        f"{100.0 * (1 - linear / baseline):.0f}% of the updates; "
        f"the map-based protocol removes another "
        f"{100.0 * (1 - mapped / max(linear, 1)):.0f}% of what is left."
    )


if __name__ == "__main__":
    main()
