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

* :meth:`sync` is a vectorised diff: one stack + one floor-divide pass
  computes every object's cell, and when the membership is unchanged (the
  steady state) the moved count is a single boolean-mask reduction — no
  per-object dict probes, no closures, no drop-list scan.
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

from typing import Dict, List, Mapping, Optional, Tuple

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
    def sync(self, positions: Mapping[str, np.ndarray], time: float) -> int:
        """Bring the columns up to date with *positions* at *time*.

        Objects absent from *positions* are dropped; the return value
        counts re-homed rows (new objects plus objects whose position moved
        into a different cell), matching the scalar oracle engine's
        re-registration count bit for bit.

        The steady state — same object ids in the same order, only the
        positions moved — is one stacked array build, one floor-divide and
        one boolean-mask reduction; the drop scan and the row-table rebuild
        are skipped entirely.
        """
        object_ids = list(positions.keys())
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
        stacked = np.array(list(positions.values()), dtype=float)
        cells = np.floor(stacked / self.cell_size).astype(np.int64)
        if object_ids == self._ids:
            # Fast path: unchanged membership.  Nothing can have been
            # dropped, so the drop scan is skipped; moved rows fall out of
            # one vectorised cell comparison.
            moved = int(np.count_nonzero((cells != self._cells).any(axis=1)))
        elif not self._ids:
            moved = n
            self._install_rows(object_ids)
        else:
            moved = 0
            retained = 0
            old_rows = self._rows
            old_cells = self._cells
            for row, object_id in enumerate(object_ids):
                old = old_rows.get(object_id)
                if old is None:
                    moved += 1
                else:
                    retained += 1
                    if (
                        old_cells[old, 0] != cells[row, 0]
                        or old_cells[old, 1] != cells[row, 1]
                    ):
                        moved += 1
            self.drops += len(self._ids) - retained
            self._install_rows(object_ids)
        self._pos = stacked
        self._cells = cells
        self.synced_time = float(time)
        self.syncs += 1
        self.moves += moved
        return moved

    def _install_rows(self, object_ids: List[str]) -> None:
        self._ids = object_ids
        self._rows = {object_id: row for row, object_id in enumerate(object_ids)}
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
