"""Linear-scan application queries, kept as a test oracle.

The paper motivates the location service with queries such as "find the
nearest taxi cab depending on the user's current location" and "address all
users that are currently inside a department of a store" (Sec. 1).  These
helpers implement the standard flavours as linear scans over a plain
:class:`~repro.service.server.LocationServer`'s predicted positions.

They are the *reference* implementations: exact, easy to audit, O(fleet)
per query.  The sharded service tier
(:class:`~repro.service.facade.LocationService`) answers the same queries
through its columnar query engines and is asserted bit-identical to these
scans by the test-suite.  :class:`LinearScans` puts the service's query
surface over a plain server, so :func:`~repro.sim.workload.execute_call`
(and with it a replayed :class:`~repro.service.loadgen.ReplayPlan`) runs a
workload against the scans exactly as against the service.

Edge cases are well-defined rather than exceptional: a position query for
an unknown object, and range / nearest / geofence queries against an empty
server (or before any update has arrived) return empty / ``None`` results.
Nearest-object answers are deterministically tie-broken by
``(distance, object_id)`` so that sharded and single-server answers are
reproducible and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec, distance
from repro.service.server import LocationServer


@dataclass(frozen=True)
class PositionQueryResult:
    """Answer to a position query."""

    object_id: str
    position: Optional[np.ndarray]
    accuracy: float
    last_update_time: Optional[float]


def position_query(server: LocationServer, object_id: str, time: float) -> PositionQueryResult:
    """Where is *object_id* (assumed to be) at *time*?

    The answer carries the accuracy the source guarantees, so applications
    can reason about the uncertainty of the returned position.  An unknown
    object id yields a well-defined empty answer (``position=None``,
    infinite accuracy, no update time) instead of an exception — mirroring
    an object that has never reported.
    """
    if not server.is_registered(object_id):
        return PositionQueryResult(
            object_id=object_id,
            position=None,
            accuracy=float("inf"),
            last_update_time=None,
        )
    record = server.tracked_object(object_id)
    return PositionQueryResult(
        object_id=object_id,
        position=record.predict(time),
        accuracy=record.accuracy,
        last_update_time=record.last_update_time,
    )


def range_query(
    server: LocationServer, area: BoundingBox, time: float, margin: float = 0.0
) -> List[str]:
    """All objects whose predicted position lies inside *area* at *time*.

    *margin* grows the area by the per-object accuracy bound when positive
    multiples of it are desired (e.g. ``margin=1.0`` adds one accuracy radius),
    so that the query never misses an object that could actually be inside.
    An empty server — or one where no object has reported yet — yields an
    empty list.
    """
    hits: List[str] = []
    for object_id in server.object_ids():
        record = server.tracked_object(object_id)
        predicted = record.predict(time)
        if predicted is None:
            continue
        effective_area = area
        if margin > 0.0 and record.accuracy != float("inf"):
            effective_area = area.expanded(margin * record.accuracy)
        if effective_area.contains_point(predicted):
            hits.append(object_id)
    return sorted(hits)


def nearest_object_query(
    server: LocationServer, point: Vec2, time: float, k: int = 1
) -> List[Tuple[str, float]]:
    """The *k* objects predicted to be closest to *point* at *time*.

    Returns ``(object_id, distance)`` pairs sorted by distance, with exact
    ties broken by object id — so the answer is independent of registration
    order and identical between the sharded and single-server paths.
    Objects that have never reported are ignored; an empty server yields an
    empty list.
    """
    p = as_vec(point)
    scored: List[Tuple[str, float]] = []
    for object_id, predicted in server.all_positions(time).items():
        scored.append((object_id, distance(predicted, p)))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored[: max(0, k)]


def geofence_query(
    server: LocationServer, point: Vec2, radius: float, time: float
) -> List[Tuple[str, float]]:
    """All objects predicted within *radius* metres of *point* at *time*.

    The "address all users currently inside an area" query (paper Sec. 1)
    for circular areas.  Returns ``(object_id, distance)`` pairs sorted by
    ``(distance, object_id)``; a negative radius, an empty server, or a
    server where nothing has reported yet all yield an empty list.
    """
    if radius < 0:
        return []
    p = as_vec(point)
    scored: List[Tuple[str, float]] = []
    for object_id, predicted in server.all_positions(time).items():
        d = distance(predicted, p)
        if d <= radius:
            scored.append((object_id, d))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored


class LinearScans:
    """The :class:`LocationService` query surface, answered by linear scans.

    Wraps a plain :class:`LocationServer` (not a copy: updates applied to
    the server are seen by the next query).
    """

    def __init__(self, server: LocationServer):
        self.server = server

    def range_query(
        self, area: BoundingBox, time: float, margin: float = 0.0
    ) -> List[str]:
        return range_query(self.server, area, time, margin=margin)

    def nearest_objects(
        self, point: Vec2, time: float, k: int = 1
    ) -> List[Tuple[str, float]]:
        return nearest_object_query(self.server, point, time, k=k)

    def geofence_query(
        self, point: Vec2, radius: float, time: float
    ) -> List[Tuple[str, float]]:
        return geofence_query(self.server, point, radius, time)
