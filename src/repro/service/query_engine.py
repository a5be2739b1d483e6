"""Columnar (struct-of-arrays) query engine over predicted positions.

Linear scans answer every range or nearest-object query by visiting all
tracked objects — O(fleet) per query.  An incremental grid index per shard
prunes that, but its read path is per-object Python: a dict probe and a
closure allocation per registered object, and per-item refinement loops
per query.  Both are kept as test oracles
(``tests/reference/linear_queries.py``,
``tests/reference/scalar_query_engine.py``).

:class:`QueryEngine` stores one shard's predicted state in three contiguous
NumPy columns instead::

    row      0        1        2      ...   N-1
    _ids     "amb-3"  "bus-0"  "taxi-17"    (Python list + _id_col '<U' array)
    _pos     [x, y]   [x, y]   [x, y]       float64, shape (N, 2)
    _cells   [cx,cy]  [cx,cy]  [cx,cy]      int64,   shape (N, 2)

* :meth:`sync` takes the shard's id list plus an ``(N, 2)`` position
  array (the :class:`~repro.service.facade.LocationService` row table
  predicts every row in one pass and hands each shard its slice).  One
  floor-divide computes every object's cell; when the caller hands back the
  same id list (membership unchanged, the steady state) the moved count is
  a single boolean-mask reduction and the id table is kept as it is.  Only
  a membership change rebuilds the id table, with one dict probe per id
  to count the objects that are new or changed cell.
* :meth:`range_query` / :meth:`k_nearest` / :meth:`within_radius` are
  vectorised kernels (boolean mask / ``argpartition`` + boundary expansion /
  mask, each finished by a ``lexsort`` on ``(distance, id)``).

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

from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec

_EMPTY_POS = np.empty((0, 2), dtype=float)
_EMPTY_CELLS = np.empty((0, 2), dtype=np.int64)
_EMPTY_IDS = np.empty(0, dtype="<U1")


class QueryEngine:
    """Columnar query answering over one shard's predicted positions.

    Parameters
    ----------
    cell_size:
        Edge length of a routing/pruning cell in metres.  Cells somewhat
        smaller than typical query extents give the best pruning; 500 m
        works well across the scenario library.
    """

    def __init__(self, cell_size: float = 500.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._ids: List[str] = []
        self._rows: Dict[str, int] = {}
        self._id_col: np.ndarray = _EMPTY_IDS
        self._pos: np.ndarray = _EMPTY_POS
        self._cells: np.ndarray = _EMPTY_CELLS
        #: Simulation time of the last :meth:`sync` (``None`` before the first).
        self.synced_time: Optional[float] = None
        #: Cumulative sync statistics (diagnostics / load counters).
        self.syncs = 0
        self.moves = 0
        self.drops = 0

    def __len__(self) -> int:
        return len(self._ids)

    def object_ids(self) -> List[str]:
        """Ids currently held by the engine (insertion order)."""
        return list(self._ids)

    def position_of(self, object_id: str) -> np.ndarray:
        """The exact position of *object_id* as of the last sync.

        Returned as a **read-only view** into the position column: callers
        may not mutate it (doing so would silently corrupt the index).
        """
        view = self._pos[self._rows[object_id]]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------ #
    # columnar maintenance
    # ------------------------------------------------------------------ #
    def sync(self, object_ids: List[str], positions: np.ndarray, time: float) -> int:
        """Replace the columns with *object_ids* at *positions* (``(n, 2)``).

        Ids absent from *object_ids* are dropped; the return value counts
        re-homed rows (new objects plus objects whose position moved into a
        different cell), matching the scalar oracle engine's
        re-registration count bit for bit.

        The caller hands the same id list object back while the membership
        is unchanged (the steady state): then a sync is one floor-divide
        and one boolean-mask reduction, and the id table is not rebuilt.
        *positions* is kept as the position column, not copied.
        """
        n = len(object_ids)
        if n == 0:
            self.drops += len(self._ids)
            self._ids = []
            self._rows = {}
            self._id_col = _EMPTY_IDS
            self._pos = _EMPTY_POS
            self._cells = _EMPTY_CELLS
            self.synced_time = float(time)
            self.syncs += 1
            return 0
        positions = np.asarray(positions, dtype=float)
        cells = np.floor(positions / self.cell_size).astype(np.int64)
        if object_ids is self._ids or object_ids == self._ids:
            moved = int(np.count_nonzero((cells != self._cells).any(axis=1)))
        elif not self._ids:
            moved = n
            self._install_rows(object_ids)
        else:
            old_rows = self._rows
            old = np.fromiter(
                map(old_rows.get, object_ids, repeat(-1)), dtype=np.intp, count=n
            )
            kept = old >= 0
            retained = int(np.count_nonzero(kept))
            changed = (cells[kept] != self._cells[old[kept]]).any(axis=1)
            moved = n - retained + int(np.count_nonzero(changed))
            self.drops += len(self._ids) - retained
            self._install_rows(object_ids)
        self._pos = positions
        self._cells = cells
        self.synced_time = float(time)
        self.syncs += 1
        self.moves += moved
        return moved

    def _install_rows(self, object_ids: List[str]) -> None:
        self._ids = object_ids
        self._rows = dict(zip(object_ids, range(len(object_ids))))
        self._id_col = np.array(object_ids)

    # ------------------------------------------------------------------ #
    # vectorised query kernels
    # ------------------------------------------------------------------ #
    def candidates_in_box(self, box: BoundingBox) -> List[str]:
        """Ids whose routing *cell* intersects *box* (cheap superset).

        Callers that refine per object (e.g. accuracy-margin range queries)
        use this; everyone else wants :meth:`range_query`.
        """
        if not self._ids:
            return []
        size = self.cell_size
        cx = self._cells[:, 0]
        cy = self._cells[:, 1]
        mask = (
            (cx * size <= box.max_x)
            & ((cx + 1) * size >= box.min_x)
            & (cy * size <= box.max_y)
            & ((cy + 1) * size >= box.min_y)
        )
        ids = self._ids
        return [ids[row] for row in np.nonzero(mask)[0]]

    def ids_in_box(self, box: BoundingBox) -> List[str]:
        """Ids whose exact position lies inside *box*, in row order."""
        if not self._ids:
            return []
        x = self._pos[:, 0]
        y = self._pos[:, 1]
        mask = (x >= box.min_x) & (x <= box.max_x) & (y >= box.min_y) & (y <= box.max_y)
        ids = self._ids
        return [ids[row] for row in np.nonzero(mask)[0]]

    def range_query(self, box: BoundingBox) -> List[str]:
        """Ids whose exact position lies inside *box*, sorted."""
        return sorted(self.ids_in_box(box))

    def k_nearest(self, point: Vec2, k: int) -> List[Tuple[str, float]]:
        """The *k* objects closest to *point*, tie-broken by ``(d, id)``.

        ``argpartition`` alone resolves ties at the k-th place arbitrarily,
        so the kernel expands the candidate set to *every* row at the
        boundary distance before the ``(distance, id)`` lexsort — the
        answer is independent of row order.
        """
        n = len(self._ids)
        if k <= 0 or n == 0:
            return []
        d = self._distances(as_vec(point))
        if k < n:
            part = np.argpartition(d, k - 1)[:k]
            boundary = d[part].max()
            candidates = np.nonzero(d <= boundary)[0]
        else:
            candidates = np.arange(n)
        order = np.lexsort((self._id_col[candidates], d[candidates]))
        ids = self._ids
        return [(ids[row], float(d[row])) for row in candidates[order[:k]]]

    def within_radius(self, point: Vec2, radius: float) -> List[Tuple[str, float]]:
        """Objects within *radius* of *point* (geofence), sorted by ``(d, id)``."""
        if radius < 0 or not self._ids:
            return []
        d = self._distances(as_vec(point))
        hits = np.nonzero(d <= radius)[0]
        order = np.lexsort((self._id_col[hits], d[hits]))
        ids = self._ids
        return [(ids[row], float(d[row])) for row in hits[order]]

    def _distances(self, p: np.ndarray) -> np.ndarray:
        # Exact replica of repro.geo.vec.distance's arithmetic order
        # (sqrt(dx*dx + dy*dy)); np.hypot would NOT be bit-identical.
        dx = self._pos[:, 0] - p[0]
        dy = self._pos[:, 1] - p[1]
        return np.sqrt(dx * dx + dy * dy)
