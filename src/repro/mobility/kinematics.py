"""Longitudinal driver kinematics.

The movement characteristics that matter for dead-reckoning update rates are
speed level, speed variability (acceleration / braking / stops) and the
curvature of the driven geometry.  :class:`SpeedController` produces a
physically plausible speed profile along a route:

* it respects the link speed limits (scaled by a driver-specific factor),
* it slows down for curves using a lateral-acceleration comfort limit,
* it brakes to a stop at intersections that are "red" (a per-intersection
  random event whose probability is part of the driver profile, modelling
  traffic lights, stop signs and congestion), and
* it accelerates and brakes with bounded longitudinal acceleration.

The controller is deliberately simple — an IDM-style car-following model
would add nothing here because the object drives alone — but it produces the
stop-and-go city profile and the steady freeway profile the paper's traces
exhibit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.geo.angles import angle_difference
from repro.roadmap.routing import Route


@dataclass(frozen=True)
class DriverProfile:
    """Parameters describing driving style and traffic conditions.

    Attributes
    ----------
    speed_factor:
        Multiplier applied to link speed limits to obtain the desired cruise
        speed (0.9 = slightly below the limit, 1.05 = slightly above).
    max_acceleration:
        Maximum longitudinal acceleration in m/s^2.
    max_deceleration:
        Maximum (comfortable) braking deceleration in m/s^2 (positive value).
    lateral_acceleration:
        Comfort limit for lateral acceleration in curves, m/s^2; lower values
        mean stronger slow-down in curves.
    stop_probability:
        Probability of having to stop at an intersection (traffic light /
        stop sign / congestion).
    stop_duration_range:
        ``(min, max)`` stop duration in seconds, drawn uniformly.
    speed_noise_sigma:
        Standard deviation of a slowly varying multiplicative perturbation of
        the desired speed, modelling traffic-induced speed fluctuation.
    speed_cap:
        Absolute ceiling on the assumed legal speed in m/s, applied *before*
        ``speed_factor``.  Agents whose pace is physical rather than legal
        (pedestrians) use it so that a high link speed limit — a street of
        an imported real map — does not translate into running at car
        speed.  ``None`` (the default) leaves link limits untouched.
    """

    speed_factor: float = 0.95
    max_acceleration: float = 1.8
    max_deceleration: float = 2.5
    lateral_acceleration: float = 2.0
    stop_probability: float = 0.0
    stop_duration_range: tuple[float, float] = (5.0, 45.0)
    speed_noise_sigma: float = 0.03
    speed_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.speed_cap is not None and self.speed_cap <= 0:
            raise ValueError("speed_cap must be positive")
        if self.max_acceleration <= 0 or self.max_deceleration <= 0:
            raise ValueError("accelerations must be positive")
        if self.lateral_acceleration <= 0:
            raise ValueError("lateral_acceleration must be positive")
        if not (0.0 <= self.stop_probability <= 1.0):
            raise ValueError("stop_probability must be in [0, 1]")


#: A stop-and-go city driver (the examples' taxi and commuter fleets).
CITY_DRIVER = DriverProfile(
    speed_factor=0.9,
    max_acceleration=1.8,
    max_deceleration=2.5,
    lateral_acceleration=2.0,
    stop_probability=0.35,
    stop_duration_range=(8.0, 50.0),
    speed_noise_sigma=0.08,
)


class SpeedController:
    """Computes a speed profile along a route for a given driver profile.

    The controller works on a discretised route (samples every ``ds`` metres
    of arc length): it first computes a per-sample *target* speed from the
    speed limit, the local curvature and the planned stops, and then enforces
    acceleration limits with a forward pass (acceleration) and a backward
    pass (braking), the standard technique for generating feasible speed
    profiles.
    """

    def __init__(
        self,
        route: Route,
        profile: DriverProfile,
        ds: float = 10.0,
        rng: Optional[random.Random] = None,
    ):
        if ds <= 0:
            raise ValueError("ds must be positive")
        self.route = route
        self.profile = profile
        self.ds = float(ds)
        self.rng = rng or random.Random()
        self._offsets = np.arange(0.0, route.length + ds, ds)
        self._offsets[-1] = route.length
        self._feasible = self._enforce_acceleration_limits(self._compute_target_speeds())
        self._stops = self._plan_stops()

    # ------------------------------------------------------------------ #
    # target speed construction
    # ------------------------------------------------------------------ #
    def _curvature_at(self, offset: float, probe: float = 25.0) -> float:
        """Approximate path curvature (1/m) at a route offset.

        Estimated from the heading change between two probes ``probe`` metres
        before and after the offset.
        """
        before = max(0.0, offset - probe)
        after = min(self.route.length, offset + probe)
        if after - before < 1e-6:
            return 0.0
        bearing_before = self.route.bearing_at(before)
        bearing_after = self.route.bearing_at(after)
        return angle_difference(bearing_after, bearing_before) / (after - before)

    def _compute_target_speeds(self) -> np.ndarray:
        profile = self.profile
        targets = np.empty(len(self._offsets))
        noise = 1.0
        for i, offset in enumerate(self._offsets):
            limit = self.route.speed_limit_at(offset)
            if profile.speed_cap is not None:
                limit = min(limit, profile.speed_cap)
            legal = limit * profile.speed_factor
            curvature = self._curvature_at(offset)
            if curvature > 1e-9:
                curve_speed = math.sqrt(profile.lateral_acceleration / curvature)
            else:
                curve_speed = float("inf")
            # Slowly varying traffic noise (random walk clamped to +-3 sigma).
            noise += self.rng.gauss(0.0, profile.speed_noise_sigma * 0.1)
            noise = min(1.0 + 3 * profile.speed_noise_sigma,
                        max(1.0 - 3 * profile.speed_noise_sigma, noise))
            targets[i] = max(1.0, min(legal, curve_speed) * noise)
        return targets

    def _plan_stops(self) -> List[tuple[float, float]]:
        """Choose the intersections where the vehicle stops: (offset, duration)."""
        stops: List[tuple[float, float]] = []
        if self.profile.stop_probability <= 0.0:
            return stops
        for index in range(len(self.route.links) - 1):
            if self.rng.random() < self.profile.stop_probability:
                offset = self.route.link_start_offset(index + 1)
                duration = self.rng.uniform(*self.profile.stop_duration_range)
                stops.append((offset, duration))
        return stops

    def _enforce_acceleration_limits(self, targets: np.ndarray) -> np.ndarray:
        """Limit speed changes using v' <= sqrt(v^2 + 2*a*ds) passes."""
        profile = self.profile
        ds = np.diff(self._offsets, prepend=self._offsets[0])
        ds[0] = 0.0
        feasible = targets.copy()
        # forward pass: acceleration limit
        for i in range(1, len(feasible)):
            vmax = math.sqrt(
                feasible[i - 1] ** 2 + 2.0 * profile.max_acceleration * ds[i]
            )
            feasible[i] = min(feasible[i], vmax)
        # backward pass: braking limit
        for i in range(len(feasible) - 2, -1, -1):
            vmax = math.sqrt(
                feasible[i + 1] ** 2 + 2.0 * profile.max_deceleration * ds[i + 1]
            )
            feasible[i] = min(feasible[i], vmax)
        return feasible

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def stops(self) -> List[tuple[float, float]]:
        """Planned stops as ``(route_offset, duration_s)`` pairs."""
        return list(self._stops)

    def speed_at(self, offset: float) -> float:
        """Feasible speed (m/s) at a route offset (linear interpolation)."""
        return float(np.interp(offset, self._offsets, self._feasible))
