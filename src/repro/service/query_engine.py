"""Columnar (struct-of-arrays) query kernels over one shard's predicted positions.

Linear scans answer every range or nearest-object query by visiting all
tracked objects — O(fleet) per query.  An incremental grid index per shard
prunes that, but its read path is per-object Python: a dict probe and a
closure allocation per registered object, and per-item refinement loops
per query.  Both are kept as test oracles
(``tests/reference/linear_queries.py``,
``tests/reference/scalar_query_engine.py``).

:class:`QueryEngine` holds no per-object state of its own.  The
:class:`~repro.service.facade.LocationService` row table predicts every row
in one pass and :meth:`~QueryEngine.sync` hands each shard two arrays, the
slices of that table for the shard's members::

    row      0        1        2      ...   N-1
    ids      "amb-3"  "bus-0"  "taxi-17"    '<U' array (the facade's id column)
    pos      [x, y]   [x, y]   [x, y]       float64, shape (N, 2)

:meth:`~QueryEngine.ids_in_box` / :meth:`~QueryEngine.k_nearest` /
:meth:`~QueryEngine.within_radius` are vectorised kernels over them
(boolean mask / ``argpartition`` + boundary expansion / mask, the last two
finished by a ``lexsort`` on ``(distance, id)``).

This is the only query engine: every served range, k-nearest and geofence
query runs through it.  All answers are **bit-identical** to the linear
scans in ``tests/reference/linear_queries.py``: the vectorised distance kernel
replicates the exact scalar arithmetic order of
:func:`repro.geo.vec.distance` (``sqrt(dx*dx + dy*dy)``, *not*
``np.hypot``), and ``lexsort`` on a ``'<U'`` id column matches Python's
``(distance, object_id)`` tuple ordering code point for code point.  The
test-suite asserts this across the whole scenario library, against the
linear scans and against the incremental grid-index engine kept as an
oracle in ``tests/reference/scalar_query_engine.py``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec


class QueryEngine:
    """Columnar query answering over one shard's predicted positions."""

    def __init__(self) -> None:
        self._id_col: np.ndarray = np.empty(0, dtype="<U1")
        self._pos: np.ndarray = np.empty((0, 2), dtype=float)

    def __len__(self) -> int:
        return len(self._id_col)

    def sync(self, ids: np.ndarray, positions: np.ndarray, time: float) -> None:
        """Answer from now on over *ids* (``'<U'`` array) at *positions* (``(n, 2)``).

        *positions* are the members' predictions at *time*.  Both arrays are
        kept as they are, not copied.
        """
        self._id_col = ids
        self._pos = positions

    # ------------------------------------------------------------------ #
    # vectorised query kernels
    # ------------------------------------------------------------------ #
    def ids_in_box(self, box: BoundingBox) -> List[str]:
        """Ids whose exact position lies inside *box*, in row order."""
        x = self._pos[:, 0]
        y = self._pos[:, 1]
        mask = (x >= box.min_x) & (x <= box.max_x) & (y >= box.min_y) & (y <= box.max_y)
        return self._id_col[mask].tolist()

    def k_nearest(self, point: Vec2, k: int) -> List[Tuple[str, float]]:
        """The *k* objects closest to *point*, tie-broken by ``(d, id)``.

        ``argpartition`` alone resolves ties at the k-th place arbitrarily,
        so the kernel expands the candidate set to *every* row at the
        boundary distance before the ``(distance, id)`` lexsort — the
        answer is independent of row order.
        """
        n = len(self._id_col)
        if k <= 0 or n == 0:
            return []
        d = self._distances(as_vec(point))
        if k < n:
            part = np.argpartition(d, k - 1)[:k]
            boundary = d[part].max()
            candidates = np.nonzero(d <= boundary)[0]
        else:
            candidates = np.arange(n)
        return self._sorted_pairs(candidates, d, k)

    def within_radius(self, point: Vec2, radius: float) -> List[Tuple[str, float]]:
        """Objects within *radius* of *point* (geofence), sorted by ``(d, id)``."""
        if radius < 0 or not len(self._id_col):
            return []
        d = self._distances(as_vec(point))
        return self._sorted_pairs(np.nonzero(d <= radius)[0], d, None)

    def _sorted_pairs(
        self, rows: np.ndarray, d: np.ndarray, k: Optional[int]
    ) -> List[Tuple[str, float]]:
        """``(id, distance)`` of *rows* sorted by ``(distance, id)``, the first *k*."""
        order = rows[np.lexsort((self._id_col[rows], d[rows]))[:k]]
        return list(zip(self._id_col[order].tolist(), d[order].tolist()))

    def _distances(self, p: np.ndarray) -> np.ndarray:
        # Exact replica of repro.geo.vec.distance's arithmetic order
        # (sqrt(dx*dx + dy*dy)); np.hypot would NOT be bit-identical.
        dx = self._pos[:, 0] - p[0]
        dy = self._pos[:, 1] - p[1]
        return np.sqrt(dx * dx + dy * dy)
