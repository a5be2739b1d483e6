"""Geodetic helpers: WGS-84 latitude/longitude to local planar metres.

The simulation runs entirely in a local Cartesian frame, but real GPS traces
(such as the paper's Differential-GPS recordings, had we access to them) come
as latitude/longitude pairs.  :class:`LocalProjection` implements the simple
equirectangular projection around a reference point that is accurate to well
under a metre over the tens-of-kilometres extents the protocols deal with,
which is far below the 2-5 m sensor noise the paper assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.vec import Vec2, as_vec

#: Mean Earth radius, in metres.
EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular projection centred on a reference latitude/longitude.

    ``to_local_array`` maps (lat, lon) degrees to (x, y) metres east/north
    of the reference point; ``to_geodetic`` is the inverse.  The projection is its
    own documentation of accuracy: for extents below ~100 km the distortion
    is negligible compared to GPS noise.
    """

    ref_lat: float
    ref_lon: float

    def _scale(self) -> tuple[float, float]:
        lat_rad = math.radians(self.ref_lat)
        meters_per_deg_lat = math.pi * EARTH_RADIUS_M / 180.0
        meters_per_deg_lon = meters_per_deg_lat * math.cos(lat_rad)
        return meters_per_deg_lon, meters_per_deg_lat

    def to_geodetic(self, point: Vec2) -> tuple[float, float]:
        """Convert local planar metres back to ``(lat, lon)`` degrees."""
        p = as_vec(point)
        sx, sy = self._scale()
        return (self.ref_lat + p[1] / sy, self.ref_lon + p[0] / sx)

    def to_local_array(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Vectorised conversion of parallel lat/lon arrays to an ``(n, 2)`` array."""
        sx, sy = self._scale()
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        return np.column_stack(((lons - self.ref_lon) * sx, (lats - self.ref_lat) * sy))
