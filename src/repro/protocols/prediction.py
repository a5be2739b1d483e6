"""Prediction functions and turn policies.

A prediction function maps the last reported object state and the current
time to an assumed position; the same instance (same parameters) is used by
the source and by the location server, which is what makes the deviation
guarantee possible (paper Sec. 2).

Turn policies encapsulate how the map-based prediction chooses an outgoing
link at an intersection:

* :class:`SmallestAngleTurnPolicy` — the paper's implementation ("the link
  with the smallest angle to the previous link is selected");
* :class:`MainRoadTurnPolicy` — the alternative the paper calls ideal
  ("ideally, the function would select the main road") using the road class;
* :class:`ProbabilisticTurnPolicy` — the *map-based with probability
  information* variant, selecting the most probable successor.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.geo.angles import angle_between
from repro.geo.vec import as_vec
from repro.roadmap.elements import Link
from repro.roadmap.graph import RoadMap
from repro.roadmap.probability import TurnProbabilityTable
from repro.roadmap.routing import Route


class PredictionFunction(abc.ABC):
    """Maps ``(last reported state, current time)`` to an assumed position."""

    @abc.abstractmethod
    def predict(self, state, time: float) -> np.ndarray:
        """Predicted position of the object at *time*, in metres."""

    def predict_many(self, state, times: np.ndarray) -> np.ndarray:
        """:meth:`predict` of one state at each of *times*, as an ``(n, 2)`` array.

        Row for row bit-identical to :meth:`predict`; this default calls it
        once per time, and the concrete predictions do the same arithmetic
        on arrays.
        """
        return np.array(
            [self.predict(state, t) for t in np.asarray(times, dtype=float).tolist()]
        ).reshape(-1, 2)


class StaticPrediction(PredictionFunction):
    """The object is assumed to stay at its last reported position.

    This is the prediction implicit in the non-dead-reckoning reporting
    protocols of the paper's earlier work [6].
    """

    def predict(self, state, time: float) -> np.ndarray:
        return state.position.copy()

    def predict_many(self, state, times: np.ndarray) -> np.ndarray:
        """:meth:`predict` at each of *times*, as an ``(n, 2)`` array."""
        predicted = np.empty((len(times), 2))
        predicted[:] = state.position
        return predicted


class LinearPrediction(PredictionFunction):
    """Constant-velocity extrapolation (the paper's linear prediction).

    ``pred(o, t) = o.pos + o.dir * o.v * (t - o.t)``
    """

    def predict(self, state, time: float) -> np.ndarray:
        dt = time - state.time
        return state.position + state.velocity * dt

    def predict_many(self, state, times: np.ndarray) -> np.ndarray:
        """:meth:`predict` at each of *times*, as an ``(n, 2)`` array.

        The same IEEE operations per element, so every row is bit-identical.
        """
        dt = np.asarray(times, dtype=float) - state.time
        return state.position + state.velocity * dt[:, None]


class QuadraticPrediction(PredictionFunction):
    """Constant-acceleration extrapolation (a higher-order prediction function).

    The paper mentions higher-order prediction functions as a variant
    (Sec. 2) but does not evaluate them; they are provided here for the
    ablation benchmarks.  States without an acceleration estimate degrade to
    linear prediction.
    """

    def __init__(self, max_horizon: float = 60.0):
        #: Beyond this many seconds the acceleration term is frozen, because
        #: extrapolating a quadratic far into the future diverges quickly.
        self.max_horizon = float(max_horizon)

    def predict(self, state, time: float) -> np.ndarray:
        dt = min(time - state.time, self.max_horizon)
        position = state.position + state.velocity * dt
        acceleration = getattr(state, "acceleration", None)
        if acceleration is not None:
            position = position + 0.5 * as_vec(acceleration) * dt * dt
        return position

    def predict_many(self, state, times: np.ndarray) -> np.ndarray:
        dt = np.minimum(np.asarray(times, dtype=float) - state.time, self.max_horizon)[:, None]
        position = state.position + state.velocity * dt
        acceleration = getattr(state, "acceleration", None)
        if acceleration is not None:
            position = position + 0.5 * as_vec(acceleration) * dt * dt
        return position


# --------------------------------------------------------------------------- #
# turn policies
# --------------------------------------------------------------------------- #
class TurnPolicy(abc.ABC):
    """Chooses the outgoing link the object is assumed to follow at an intersection."""

    #: Whether the choice depends only on the immutable map geometry.  When
    #: ``True``, :class:`MapPrediction` memoises the chosen successor per
    #: link, which turns the repeated link-walks of a simulation run into
    #: dictionary lookups.  Policies whose choice can change between queries
    #: (e.g. a turn-probability table that keeps learning) must leave this
    #: ``False``.
    stateless: bool = False

    @abc.abstractmethod
    def choose(self, roadmap: RoadMap, current: Link) -> Optional[Link]:
        """The successor of *current* the prediction should follow (or ``None``)."""


class SmallestAngleTurnPolicy(TurnPolicy):
    """Select the outgoing link with the smallest angle to the previous link.

    Ties are broken by link id so that source and server always make the
    same, deterministic choice.
    """

    stateless = True

    def choose(self, roadmap: RoadMap, current: Link) -> Optional[Link]:
        successors = roadmap.successors(current)
        if not successors:
            return None
        exit_direction = current.direction_at(current.length)
        return min(
            successors,
            key=lambda link: (angle_between(exit_direction, link.direction_at(0.0)), link.id),
        )


class MainRoadTurnPolicy(TurnPolicy):
    """Prefer the most important road class; break ties by smallest angle.

    The paper notes that ideally the prediction "would select the main
    road"; this policy implements that using the road-class priority stored
    in the map.
    """

    stateless = True

    def choose(self, roadmap: RoadMap, current: Link) -> Optional[Link]:
        successors = roadmap.successors(current)
        if not successors:
            return None
        exit_direction = current.direction_at(current.length)
        return min(
            successors,
            key=lambda link: (
                -link.road_class.priority,
                angle_between(exit_direction, link.direction_at(0.0)),
                link.id,
            ),
        )


class ProbabilisticTurnPolicy(TurnPolicy):
    """Select the most probable successor according to a turn-probability table.

    Falls back to the smallest-angle policy when the table has no
    observations for an intersection (uniform probabilities), because in
    that situation geometry is the better prior.
    """

    def __init__(self, table: TurnProbabilityTable):
        self.table = table
        self._fallback = SmallestAngleTurnPolicy()

    def choose(self, roadmap: RoadMap, current: Link) -> Optional[Link]:
        probabilities = self.table.transition_probabilities(current)
        if not probabilities:
            return None
        values = sorted(probabilities.values())
        if len(values) > 1 and abs(values[-1] - values[0]) < 1e-12:
            # No information recorded (uniform); use geometry instead.
            return self._fallback.choose(roadmap, current)
        return self.table.most_probable_successor(current)


# --------------------------------------------------------------------------- #
# map-based prediction
# --------------------------------------------------------------------------- #
class MapPrediction(PredictionFunction):
    """Advance the object along the road network at its reported speed.

    From the reported (corrected) position on the reported link, the object
    is assumed to keep following the link geometry; when it reaches the end
    of a link the turn policy selects the next link, "which it assumes the
    object to keep on following in the same manner" (paper Sec. 3).  States
    without link information (off-map fallback) degrade to linear prediction.

    Parameters
    ----------
    roadmap:
        The shared map (the ``param`` of ``pred(o, param, t)``).
    turn_policy:
        Intersection choice policy; the paper's default is smallest angle.
    max_links_ahead:
        Safety bound on how many links a single prediction may walk past,
        protecting against degenerate maps with very short links.
    speed_limit_factor:
        When set, the assumed speed on every link is capped at
        ``speed_limit_factor * link.speed_limit``.  This implements the
        paper's future-work idea of using "knowledge about the speed limits
        for the roads to appropriately change the mobile object's assumed
        speed" — e.g. a car predicted to leave the motorway onto an exit ramp
        is no longer assumed to keep doing 120 km/h on it.  ``None`` (the
        paper's evaluated protocol) always uses the reported speed.
    """

    def __init__(
        self,
        roadmap: RoadMap,
        turn_policy: Optional[TurnPolicy] = None,
        max_links_ahead: int = 64,
        speed_limit_factor: Optional[float] = None,
    ):
        if speed_limit_factor is not None and speed_limit_factor <= 0:
            raise ValueError("speed_limit_factor must be positive (or None)")
        self.roadmap = roadmap
        self.turn_policy = turn_policy or SmallestAngleTurnPolicy()
        self.max_links_ahead = int(max_links_ahead)
        self.speed_limit_factor = speed_limit_factor
        self._linear = LinearPrediction()
        self._turn_cache: Dict[int, Optional[Link]] = {}

    def _next_link(self, link: Link) -> Optional[Link]:
        """The successor chosen by the turn policy, memoised when safe.

        Stateless policies depend only on the (immutable) map, so the answer
        per link never changes within a prediction function's lifetime.
        """
        if not self.turn_policy.stateless:
            return self.turn_policy.choose(self.roadmap, link)
        try:
            return self._turn_cache[link.id]
        except KeyError:
            nxt = self.turn_policy.choose(self.roadmap, link)
            self._turn_cache[link.id] = nxt
            return nxt

    def _assumed_speed(self, state, link: Link) -> float:
        """Speed the object is assumed to travel at on *link*."""
        if self.speed_limit_factor is None:
            return state.speed
        return min(state.speed, self.speed_limit_factor * link.speed_limit)

    def predict(self, state, time: float) -> np.ndarray:
        if state.link_id is None or not self.roadmap.has_link(state.link_id):
            return self._linear.predict(state, time)
        link = self.roadmap.link(state.link_id)
        offset = float(state.link_offset if state.link_offset is not None else 0.0)
        if self.speed_limit_factor is None:
            # Constant assumed speed: walk a distance budget along the links.
            remaining = state.speed * max(0.0, time - state.time)
            for _ in range(self.max_links_ahead):
                available = link.length - offset
                if remaining <= available:
                    return link.point_at(offset + remaining)
                remaining -= available
                nxt = self._next_link(link)
                if nxt is None:
                    # Dead end: the object is assumed to stop at the end of the link.
                    return link.point_at(link.length)
                link = nxt
                offset = 0.0
            return link.point_at(link.length)

        # Speed-limit-aware variant: the assumed speed changes per link, so a
        # time budget is walked instead of a distance budget.
        remaining_time = max(0.0, time - state.time)
        for _ in range(self.max_links_ahead):
            speed = self._assumed_speed(state, link)
            if speed <= 0.0:
                return link.point_at(offset)
            time_to_end = (link.length - offset) / speed
            if remaining_time <= time_to_end:
                return link.point_at(offset + speed * remaining_time)
            remaining_time -= time_to_end
            nxt = self._next_link(link)
            if nxt is None:
                return link.point_at(link.length)
            link = nxt
            offset = 0.0
        return link.point_at(link.length)

    def predict_many(self, state, times: np.ndarray) -> np.ndarray:
        """:meth:`predict` of one state at each of *times*, as an ``(n, 2)`` array.

        Row for row bit-identical to :meth:`predict`: the distance-budget
        walk runs once for all times, each budget reduced by the same
        sequential ``remaining -= available`` per link, and the points are
        :meth:`~repro.geo.polyline.Polyline.points_at` of each link's own
        geometry.  Budgets only grow with time, so after sorting them the
        ones that end on a link are a run of the pending ones.  The
        speed-limit variant's time-budget walk runs once per time.
        """
        times = np.asarray(times, dtype=float)
        if state.link_id is None or not self.roadmap.has_link(state.link_id):
            return self._linear.predict_many(state, times)
        if self.speed_limit_factor is not None:
            return super().predict_many(state, times)
        link = self.roadmap.link(state.link_id)
        offset = float(state.link_offset if state.link_offset is not None else 0.0)
        dt = times - state.time
        remaining = state.speed * np.where(dt > 0.0, dt, 0.0)
        order = None
        if not (remaining[:-1] <= remaining[1:]).all():
            order = np.argsort(remaining, kind="stable")
            remaining = remaining[order]
        out = np.empty((len(remaining), 2))
        done = 0
        for _ in range(self.max_links_ahead):
            available = link.length - offset
            here = int(np.count_nonzero(remaining <= available))
            if here:
                out[done:done + here] = link.geometry.points_at(offset + remaining[:here])
                done += here
                remaining = remaining[here:]
            if not len(remaining):
                break
            remaining = remaining - available
            nxt = self._next_link(link)
            if nxt is None:
                break
            link = nxt
            offset = 0.0
        if len(remaining):
            out[done:] = link.point_at(link.length)
        if order is None:
            return out
        unsorted = np.empty_like(out)
        unsorted[order] = out
        return unsorted


class RoutePrediction(PredictionFunction):
    """Advance the object along a pre-known route at its reported speed.

    Implements the *dead-reckoning with known route* variant (paper Sec. 2,
    following Wolfson et al. [12]): only the speed matters because the
    geometry is fixed.  The starting offset along the route is taken from the
    reported state's ``link_offset`` field when present (the known-route
    source tracks its route offset monotonically and transmits it); states
    without it fall back to a global projection of the reported position,
    which is only safe for routes that do not self-intersect.
    """

    def __init__(self, route: Route):
        self.route = route

    def _start_offset(self, state) -> float:
        if state.link_offset is not None:
            return float(state.link_offset)
        return self.route.project(state.position)[1]

    def predict(self, state, time: float) -> np.ndarray:
        offset = self._start_offset(state) + state.speed * max(0.0, time - state.time)
        return self.route.point_at(min(offset, self.route.length))

    def predict_many(self, state, times: np.ndarray) -> np.ndarray:
        dt = np.asarray(times, dtype=float) - state.time
        offsets = self._start_offset(state) + state.speed * np.where(dt > 0.0, dt, 0.0)
        return self.route.points_at(np.minimum(offsets, self.route.length))
