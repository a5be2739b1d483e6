"""Pedestrian simulation.

A walking person differs from a vehicle mainly in scale: speeds around
1.3 m/s, frequent short pauses, many direction changes on a fine-grained
footpath network, and — crucially for the protocols — a much lower ratio of
movement per second to sensor noise, which is why the paper uses a longer
heading-estimation window (n = 8) and a smaller maximum requested
uncertainty (250 m) in the walking scenario.

The simulator reuses the longitudinal :class:`~repro.mobility.kinematics.SpeedController`
with a pedestrian-specific parameterisation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.mobility.kinematics import DriverProfile
from repro.mobility.vehicle import SimulatedJourney, VehicleSimulator
from repro.roadmap.elements import RoadClass
from repro.roadmap.routing import Route


@dataclass(frozen=True)
class PedestrianProfile:
    """Walking-behaviour parameters.

    Attributes
    ----------
    walking_speed_factor:
        Fraction of the footpath "speed limit" (typically 5.5 km/h) actually
        walked.
    pause_probability:
        Probability of pausing at a node (shop window, traffic light, ...).
    pause_duration_range:
        ``(min, max)`` pause duration in seconds.
    speed_noise_sigma:
        Relative variability of the walking speed.
    """

    walking_speed_factor: float = 0.9
    pause_probability: float = 0.12
    pause_duration_range: tuple[float, float] = (5.0, 60.0)
    speed_noise_sigma: float = 0.1

    def as_driver_profile(self) -> DriverProfile:
        """Translate into the generic longitudinal-controller profile.

        The ``speed_cap`` pins the pace to walking speed regardless of the
        link's legal limit: on dedicated footpath networks the two coincide
        (the cap equals the footpath class limit, so nothing changes), but
        a pedestrian on an imported street map must not inherit the
        street's 50 km/h.
        """
        return DriverProfile(
            speed_factor=self.walking_speed_factor,
            max_acceleration=0.8,
            max_deceleration=1.0,
            lateral_acceleration=1.0,
            stop_probability=self.pause_probability,
            stop_duration_range=self.pause_duration_range,
            speed_noise_sigma=self.speed_noise_sigma,
            speed_cap=RoadClass.FOOTPATH.default_speed_limit,
        )


class PedestrianSimulator:
    """Walks a pedestrian along a route on a footpath network."""

    def __init__(
        self,
        route: Route,
        profile: Optional[PedestrianProfile] = None,
        sample_interval: float = 1.0,
        rng: Optional[random.Random] = None,
        extra_stops: Optional[Sequence[Tuple[float, float]]] = None,
    ):
        self.profile = profile or PedestrianProfile()
        self._vehicle = VehicleSimulator(
            route,
            self.profile.as_driver_profile(),
            sample_interval=sample_interval,
            rng=rng,
            extra_stops=extra_stops,
        )

    def run(self, name: str = "walking person") -> SimulatedJourney:
        """Simulate the walk and return the recorded journey."""
        return self._vehicle.run(name=name)
