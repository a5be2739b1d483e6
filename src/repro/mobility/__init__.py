"""Mobility simulation: generating realistic movement traces.

The paper evaluates its protocols on four recorded GPS traces (car on a
freeway, car in inter-urban traffic, car in city traffic, walking person).
Those recordings are not available, so this package simulates the movement
of vehicles and pedestrians over the synthetic road networks of
:mod:`repro.roadmap.generators` and produces :class:`~repro.traces.Trace`
objects with the same sampling (1 Hz) and comparable movement
characteristics (Table 1).  The simulators also record the ground-truth link
occupied at every instant, which the evaluation uses to compute map-matching
accuracy and to train turn-probability tables.
"""

from repro.mobility.kinematics import DriverProfile, SpeedController
from repro.mobility.vehicle import VehicleSimulator, SimulatedJourney
from repro.mobility.pedestrian import PedestrianProfile, PedestrianSimulator
from repro.mobility.scenarios import (
    Scenario,
    ScenarioName,
    build_scenario,
    freeway_scenario,
    interurban_scenario,
    city_scenario,
    walking_scenario,
)
from repro.mobility.generator import (
    REGIMES,
    AgentSpec,
    Degradation,
    GeneratorSpec,
    Topology,
    TrafficRegime,
    generate_scenario,
)

__all__ = [
    "DriverProfile",
    "SpeedController",
    "VehicleSimulator",
    "SimulatedJourney",
    "PedestrianProfile",
    "PedestrianSimulator",
    "Scenario",
    "ScenarioName",
    "build_scenario",
    "freeway_scenario",
    "interurban_scenario",
    "city_scenario",
    "walking_scenario",
    "REGIMES",
    "AgentSpec",
    "Degradation",
    "GeneratorSpec",
    "Topology",
    "TrafficRegime",
    "generate_scenario",
]
