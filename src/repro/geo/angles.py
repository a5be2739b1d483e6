"""Angle and bearing utilities.

Two angle conventions appear in the code base:

* *mathematical angles* measured counter-clockwise from the positive x axis
  (east), in radians, used internally for vector math, and
* *compass bearings* measured clockwise from north, in radians, which is the
  convention used by GPS receivers and by the paper's description of the
  object state (``o.dir``).

The helpers here convert between the two and provide the angular-difference
primitives needed by the map-based protocol's "smallest angle to the previous
link" turn policy.
"""

from __future__ import annotations

import math


from repro.geo.vec import Vec2, as_vec

TWO_PI = 2.0 * math.pi


def normalize_angle(angle: float) -> float:
    """Normalise an angle to the half-open interval ``(-pi, pi]``."""
    a = math.fmod(angle, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def normalize_bearing(bearing_rad: float) -> float:
    """Normalise a compass bearing to ``[0, 2*pi)``."""
    b = math.fmod(bearing_rad, TWO_PI)
    if b < 0.0:
        b += TWO_PI
    return b


def angle_difference(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in ``[0, pi]``.

    Works for both mathematical angles and compass bearings because the
    difference is invariant under the choice of reference direction.
    """
    return abs(normalize_angle(a - b))


def bearing(origin: Vec2, target: Vec2) -> float:
    """Compass bearing (radians clockwise from north) from *origin* to *target*."""
    o = as_vec(origin)
    t = as_vec(target)
    dx = t[0] - o[0]
    dy = t[1] - o[1]
    return normalize_bearing(math.atan2(dx, dy))


def angle_between(u: Vec2, v: Vec2) -> float:
    """Unsigned angle between two vectors, in ``[0, pi]``.

    Returns 0 if either vector has zero length, which matches the behaviour
    the map-based predictor needs when the object is momentarily stationary.
    """
    uv = as_vec(u)
    vv = as_vec(v)
    nu = math.hypot(uv[0], uv[1])
    nv = math.hypot(vv[0], vv[1])
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # Normalise each vector separately: multiplying the two norms first can
    # underflow to zero for very small (subnormal) inputs.
    cosine = (uv[0] / nu) * (vv[0] / nv) + (uv[1] / nu) * (vv[1] / nv)
    cosine = min(1.0, max(-1.0, cosine))
    return math.acos(cosine)
