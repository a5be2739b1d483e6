"""Vehicle simulation along a route.

:class:`VehicleSimulator` integrates the speed profile produced by
:class:`~repro.mobility.kinematics.SpeedController` over a route and samples
the resulting position once per sampling interval (the paper's receiver logs
one fix per second).  The result is a :class:`SimulatedJourney`: the
ground-truth trace, the ground-truth link occupied at every sample (used for
map-matching accuracy evaluation and for learning turn probabilities) and
bookkeeping about the planned stops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.kinematics import DriverProfile, SpeedController
from repro.roadmap.routing import Route
from repro.traces.trace import Trace


@dataclass
class SimulatedJourney:
    """Result of a mobility simulation.

    Attributes
    ----------
    trace:
        Ground-truth positions sampled at the requested interval.
    link_ids:
        Ground-truth link id occupied at each sample (parallel to the trace).
    route:
        The route that was driven.
    stop_count:
        Number of full stops that occurred during the journey.
    """

    trace: Trace
    link_ids: List[int]
    route: Route
    stop_count: int = 0


class VehicleSimulator:
    """Drives a vehicle along a route and records its trace.

    Parameters
    ----------
    route:
        The route to drive.
    profile:
        Driver profile (speed factor, acceleration limits, stop behaviour).
    sample_interval:
        Spacing of recorded samples in seconds (1 s in the paper).
    rng:
        Random generator controlling stop placement and speed noise.
    extra_stops:
        Additional planned halts as ``(route_offset_m, duration_s)`` pairs,
        merged with the controller's random intersection stops.  Used for
        scheduled dwell times (delivery drop-offs, bus stops) that are part
        of the trip plan rather than of the traffic model.  A stop at the
        route end is ignored: the journey ends on arrival there.
    """

    def __init__(
        self,
        route: Route,
        profile: DriverProfile,
        sample_interval: float = 1.0,
        rng: Optional[random.Random] = None,
        extra_stops: Optional[Sequence[Tuple[float, float]]] = None,
    ):
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.route = route
        self.profile = profile
        self.sample_interval = float(sample_interval)
        self.rng = rng or random.Random()
        self.controller = SpeedController(route, profile, rng=self.rng)
        self.extra_stops: List[Tuple[float, float]] = []
        for offset, duration in extra_stops or ():
            if not (0.0 <= offset <= route.length):
                raise ValueError("extra stop offsets must lie on the route")
            if duration < 0:
                raise ValueError("extra stop durations must be non-negative")
            self.extra_stops.append((float(offset), float(duration)))

    def run(self, name: str = "", max_duration: Optional[float] = None) -> SimulatedJourney:
        """Simulate the whole journey and return the recorded data.

        Parameters
        ----------
        name:
            Name given to the produced trace.
        max_duration:
            Optional hard cap on the simulated time in seconds; the journey
            is truncated if it takes longer (safety valve for degenerate
            routes).
        """
        dt = self.sample_interval
        # Merge the controller's random stops with the scheduled extra
        # stops.  Stops sharing one offset are folded into a single halt of
        # summed duration — a stop whose offset the vehicle already occupies
        # could otherwise never satisfy the strict crossing check below and
        # would block every stop behind it in the queue.
        stops: List[tuple] = []
        for offset_s, duration in sorted(self.controller.stops + self.extra_stops):
            if offset_s >= self.route.length - 1e-6:
                # The journey ends on arrival at the route end; a dwell
                # there would never be simulated, so don't count it either.
                continue
            if stops and offset_s <= stops[-1][0]:
                stops[-1] = (stops[-1][0], stops[-1][1] + duration)
            else:
                stops.append((offset_s, duration))
        stop_index = 0
        remaining_stop = 0.0
        stop_count = 0
        # A stop at the very start is a dwell before departure.
        if stops and stops[0][0] <= 0.0:
            remaining_stop = stops[0][1]
            stop_index = 1
            stop_count = 1

        time = 0.0
        offset = 0.0
        times: List[float] = [0.0]
        positions: List[np.ndarray] = [self.route.point_at(0.0)]
        link_ids: List[int] = [self.route.link_at(0.0)[0].id]

        while offset < self.route.length - 1e-6:
            time += dt
            if max_duration is not None and time > max_duration:
                break
            if remaining_stop > 0.0:
                remaining_stop -= dt
            else:
                speed = self.controller.speed_at(offset)
                new_offset = offset + speed * dt
                if (
                    stop_index < len(stops)
                    and offset < stops[stop_index][0] <= new_offset
                ):
                    new_offset, stop_duration = stops[stop_index]
                    remaining_stop = stop_duration
                    stop_index += 1
                    stop_count += 1
                offset = min(new_offset, self.route.length)
            times.append(time)
            positions.append(self.route.point_at(offset))
            link_ids.append(self.route.link_at(offset)[0].id)

        trace = Trace(times, np.array(positions), name=name)
        return SimulatedJourney(
            trace=trace, link_ids=link_ids, route=self.route, stop_count=stop_count
        )
