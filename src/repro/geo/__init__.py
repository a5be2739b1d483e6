"""Planar geometry substrate used by the road-map model and the protocols.

All geometric computation in the library happens in a local, planar Cartesian
frame whose coordinates are expressed in metres (x grows towards the east,
y towards the north).  The :mod:`repro.geo.geodesy` module converts between
this frame and WGS-84 latitude/longitude for importing or exporting real GPS
data.

The module deliberately avoids any dependency on ``shapely``: only a handful
of primitives are required by the dead-reckoning protocols (point-to-segment
projection, polyline arc-length parameterisation, bearings), and implementing
them directly on top of NumPy keeps the hot loops of the simulator fast and
easy to vectorise.
"""

from repro.geo.vec import (
    Vec2,
    as_vec,
    distance,
    distance_sq,
)
from repro.geo.angles import (
    normalize_angle,
    normalize_bearing,
    angle_between,
    bearing,
    angle_difference,
    TWO_PI,
)
from repro.geo.polyline import Polyline
from repro.geo.bbox import BoundingBox
from repro.geo.geodesy import EARTH_RADIUS_M, LocalProjection

__all__ = [
    "Vec2",
    "as_vec",
    "distance",
    "distance_sq",
    "normalize_angle",
    "normalize_bearing",
    "angle_between",
    "bearing",
    "angle_difference",
    "TWO_PI",
    "Polyline",
    "BoundingBox",
    "EARTH_RADIUS_M",
    "LocalProjection",
]
