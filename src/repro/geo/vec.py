"""Small 2-D vector helpers.

Positions are represented throughout the library as NumPy arrays of shape
``(2,)`` holding ``float64`` metres.  The helpers below are thin, allocation
conscious wrappers around NumPy operations; they accept anything array-like
(tuples, lists, arrays) and always return plain ``numpy`` objects so that the
rest of the code can freely mix literals and computed values.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

#: Type alias accepted by every function that expects a 2-D point or vector.
Vec2 = Union[np.ndarray, Sequence[float], Iterable[float]]


def as_vec(value: Vec2) -> np.ndarray:
    """Coerce *value* into a ``float64`` NumPy array of shape ``(2,)``.

    The function is the single normalisation point for user supplied
    coordinates; every public API that accepts positions funnels its input
    through it.

    Raises
    ------
    ValueError
        If *value* does not describe exactly two finite coordinates.
    """
    if type(value) is np.ndarray and value.shape == (2,) and value.dtype == np.float64:
        # Fast path for the simulation hot loops: already-normalised arrays
        # skip the asarray dispatch, and the finiteness check degenerates to
        # two scalar tests.
        if math.isfinite(value[0]) and math.isfinite(value[1]):
            return value
        raise ValueError(f"coordinates must be finite, got {value!r}")
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"expected a 2-D point, got shape {arr.shape!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"coordinates must be finite, got {arr!r}")
    return arr


def distance_sq(a: Vec2, b: Vec2) -> float:
    """Squared Euclidean distance between two points (avoids the sqrt)."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy


def distance(a: Vec2, b: Vec2) -> float:
    """Euclidean distance between two points in metres."""
    return math.sqrt(distance_sq(a, b))
