"""Spatial sharding policies for the location-service tier.

A sharding policy maps positions to shard indices so that a
:class:`~repro.service.facade.LocationService` can partition its tracked
objects across several shards (one query engine each).
Policies are pluggable; the default :class:`GridHashPolicy` hashes a coarse
spatial grid cell onto the shard ring, which spreads load evenly without
requiring any knowledge of the covered area.

Every mapping is deterministic (no process-randomised hashes), so shard
assignments — and with them per-shard load counters and query routes — are
reproducible across runs and across processes.

:class:`RebalancePolicy` makes the tier *load-adaptive*: when the per-shard
object-count skew (the ``service.shard.skew`` gauge, max/mean) exceeds a
threshold, it re-homes the hottest routing cells of the hottest shard onto
the least-loaded shard via :meth:`GridHashPolicy.override_cell` and sweeps
the affected records across with
:meth:`~repro.service.facade.LocationService.rebalance`.  Placement never
affects query answers — a handoff only rewrites an object's home shard —
so rebalancing is free to run under live traffic.
"""

from __future__ import annotations

import abc
import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec

#: Cell counts above this threshold make per-cell shard routing pointless:
#: a hash-distributed box that large touches (nearly) every shard anyway.
_DENSE_BOX_CELLS = 64

#: The two primes of the grid-cell hash.
_HASH_X = 73856093
_HASH_Y = 19349663
#: Largest ``|cell coordinate|`` whose hash products fit in int64.  Beyond
#: it NumPy's ``cx * _HASH_X`` would wrap where Python's int does not, so
#: :meth:`GridHashPolicy.shards_for_points` routes such cells one by one.
_WRAP_SAFE_CELL = (2**63 - 1) // max(_HASH_X, _HASH_Y)


class ShardingPolicy(abc.ABC):
    """Maps object positions (and ids) to shard indices in ``[0, n_shards)``."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = int(n_shards)
        #: Bumped whenever the point-to-shard mapping changes, so a service
        #: that prepared its shards for a query time knows to re-home before
        #: answering again at that time.
        self.version = 0

    @abc.abstractmethod
    def shard_for_point(self, point: Vec2) -> int:
        """The shard responsible for an object predicted at *point*."""

    def shards_for_points(self, points: np.ndarray) -> np.ndarray:
        """:meth:`shard_for_point` of every row of an ``(n, 2)`` array.

        Raises :class:`ValueError` when a row is not finite, like the scalar
        method.  This default loops; policies override it with one
        vectorised pass that must give the same shards.
        """
        return np.array([self.shard_for_point(p) for p in points], dtype=np.int64)

    def shard_for_id(self, object_id: str) -> int:
        """Stable fallback shard for objects that have not reported yet.

        Uses CRC32 rather than :func:`hash` so the assignment is identical
        in every process (``PYTHONHASHSEED`` randomises string hashes).
        """
        return zlib.crc32(object_id.encode("utf-8")) % self.n_shards

    @abc.abstractmethod
    def shards_for_box(self, box: BoundingBox) -> List[int]:
        """Every shard that may hold an object positioned inside *box*.

        The result may be a superset of the shards actually holding matching
        objects (routing is conservative), but must never miss one.
        """

    def all_shards(self) -> List[int]:
        """All shard indices (the trivially correct routing answer)."""
        return list(range(self.n_shards))


class GridHashPolicy(ShardingPolicy):
    """Hash a coarse spatial grid cell onto the shard ring.

    Parameters
    ----------
    n_shards:
        Number of shards to spread objects over.
    region_size:
        Edge length of a routing cell in metres.  Cells should be comparable
        to (or larger than) typical query extents so that a range query only
        touches a few shards.
    """

    def __init__(self, n_shards: int, region_size: float = 2000.0):
        super().__init__(n_shards)
        if region_size <= 0:
            raise ValueError("region_size must be positive")
        self.region_size = float(region_size)
        #: Per-cell overrides installed by :class:`RebalancePolicy` (or by
        #: hand): routing cells whose objects were re-homed away from their
        #: hash shard.  Deterministic like everything else.
        self.overrides: Dict[Tuple[int, int], int] = {}

    def cell_for_point(self, point: Vec2) -> tuple[int, int]:
        """The routing cell containing *point*."""
        p = as_vec(point)
        return (
            int(math.floor(p[0] / self.region_size)),
            int(math.floor(p[1] / self.region_size)),
        )

    def shard_for_cell(self, cell: tuple[int, int]) -> int:
        """Deterministic spatial hash of a routing cell onto the shard ring."""
        override = self.overrides.get(cell)
        if override is not None:
            return override
        return self.hash_shard_for_cell(cell)

    def hash_shard_for_cell(self, cell: tuple[int, int]) -> int:
        """The un-overridden hash assignment of *cell* (diagnostics)."""
        cx, cy = cell
        # Classic two-prime spatial hash; Python's % keeps the result
        # non-negative for negative cell coordinates.
        return ((cx * _HASH_X) ^ (cy * _HASH_Y)) % self.n_shards

    def override_cell(self, cell: tuple[int, int], shard: int) -> int:
        """Pin *cell* to *shard*; returns the previous effective shard.

        Overriding back to the cell's natural hash shard removes the table
        entry instead of storing a redundant one.
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.n_shards})")
        cell = (int(cell[0]), int(cell[1]))
        previous = self.shard_for_cell(cell)
        if shard == self.hash_shard_for_cell(cell):
            self.overrides.pop(cell, None)
        else:
            self.overrides[cell] = int(shard)
        self.version += 1
        return previous

    def shard_for_point(self, point: Vec2) -> int:
        return self.shard_for_cell(self.cell_for_point(point))

    def shards_for_points(self, points: np.ndarray) -> np.ndarray:
        """One floor-divide and one hash over every row (overrides honoured).

        Equal to :meth:`shard_for_point` row by row: the division and the
        floor are the scalar ones, and NumPy's int64 ``^`` and ``%`` agree
        with Python's ints while the products cannot wrap.  Rows whose cell
        lies beyond that range (or is not finite) take the scalar path, which
        also raises for a non-finite row.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = np.floor(pts / self.region_size)
        bounded = np.abs(cells) <= _WRAP_SAFE_CELL
        exact = np.flatnonzero(~(bounded[:, 0] & bounded[:, 1]))
        if len(exact):
            cells[exact] = 0.0
        cx = cells[:, 0].astype(np.int64)
        cy = cells[:, 1].astype(np.int64)
        shards = ((cx * _HASH_X) ^ (cy * _HASH_Y)) % self.n_shards
        for (ox, oy), shard in self.overrides.items():
            if abs(ox) <= _WRAP_SAFE_CELL and abs(oy) <= _WRAP_SAFE_CELL:
                shards[(cx == ox) & (cy == oy)] = shard
        for row in exact.tolist():
            shards[row] = self.shard_for_point(pts[row])
        return shards

    def shards_for_box(self, box: BoundingBox) -> List[int]:
        if self.n_shards == 1:
            return [0]
        if not all(map(math.isfinite, (box.min_x, box.min_y, box.max_x, box.max_y))):
            return self.all_shards()
        min_cx, min_cy = self.cell_for_point((box.min_x, box.min_y))
        max_cx, max_cy = self.cell_for_point((box.max_x, box.max_y))
        n_cells = (max_cx - min_cx + 1) * (max_cy - min_cy + 1)
        if n_cells >= max(_DENSE_BOX_CELLS, 8 * self.n_shards):
            return self.all_shards()
        shards = set()
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                shards.add(self.shard_for_cell((cx, cy)))
                if len(shards) == self.n_shards:
                    return self.all_shards()
        return sorted(shards)


# --------------------------------------------------------------------- #
# load-adaptive rebalancing
# --------------------------------------------------------------------- #
def shard_skew(object_counts: List[int]) -> float:
    """Per-shard object-count skew: max/mean (1.0 = perfectly balanced)."""
    if not object_counts:
        return 0.0
    mean = sum(object_counts) / len(object_counts)
    return (max(object_counts) / mean) if mean else 0.0


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`RebalancePolicy.maybe_rebalance` pass did."""

    time: float
    hot_shard: int
    skew_before: float
    skew_after: float
    handoffs: int
    #: ``(cell, from_shard, to_shard)`` per re-homed routing cell.
    moves: List[Tuple[Tuple[int, int], int, int]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "hot_shard": self.hot_shard,
            "skew_before": self.skew_before,
            "skew_after": self.skew_after,
            "cells_moved": len(self.moves),
            "handoffs": self.handoffs,
            "moves": [
                {"cell": list(cell), "from": src, "to": dst}
                for cell, src, dst in self.moves
            ],
        }


class RebalancePolicy:
    """Threshold-triggered re-homing of hot routing cells.

    Watches the per-shard object-count skew (max/mean — the same number the
    obs layer exports as the ``service.shard.skew`` gauge) and, when it
    exceeds *skew_threshold*, moves the hottest shard's most crowded routing
    cells onto the least-loaded shard by installing
    :meth:`GridHashPolicy.override_cell` entries and sweeping the affected
    records across with the service's ``rebalance``.  Every step is
    deterministic: ties are broken by cell coordinates and shard index.

    Placement changes never change query answers (a handoff only rewrites
    an object's home shard and queries route through the same policy that
    placed it),
    so the live server can run this between ingest batches under traffic.

    Parameters
    ----------
    skew_threshold:
        Trigger when ``max/mean`` object count exceeds this (> 1.0).
    max_cells_per_pass:
        At most this many routing cells are re-homed per pass — rebalancing
        converges over several passes instead of stalling the writer.
    min_objects:
        Skip while the service tracks fewer objects than this (skew over a
        handful of objects is noise).
    """

    def __init__(
        self,
        skew_threshold: float = 1.5,
        max_cells_per_pass: int = 4,
        min_objects: int = 64,
    ):
        if skew_threshold <= 1.0:
            raise ValueError("skew_threshold must be > 1.0 (1.0 = balanced)")
        if max_cells_per_pass < 1:
            raise ValueError("max_cells_per_pass must be at least 1")
        self.skew_threshold = float(skew_threshold)
        self.max_cells_per_pass = int(max_cells_per_pass)
        self.min_objects = int(min_objects)
        #: Cumulative diagnostics.
        self.checks = 0
        self.passes = 0
        self.cells_moved = 0
        self.objects_moved = 0
        self.last_report: Optional[RebalanceReport] = None

    def maybe_rebalance(self, service, time: float) -> Optional[RebalanceReport]:
        """Run one rebalance pass against *service* if the skew warrants it.

        *service* is a :class:`~repro.service.facade.LocationService` (duck
        typed to avoid the circular import); its policy must support cell
        overrides (:class:`GridHashPolicy` does).  Returns a report when a
        pass ran, else ``None``.
        """
        self.checks += 1
        policy = service.policy
        if service.n_shards <= 1 or not hasattr(policy, "override_cell"):
            return None
        counts = service.shard_sizes()
        total = sum(counts)
        if total < self.min_objects:
            return None
        skew_before = shard_skew(counts)
        if skew_before <= self.skew_threshold:
            return None
        hot = counts.index(max(counts))
        pts = service.shard_positions(hot, time)
        if not len(pts):
            return None
        cells = np.floor(pts / policy.region_size).astype(np.int64)
        unique, cell_counts = np.unique(cells, axis=0, return_counts=True)
        # Hottest cells first; coordinate order breaks count ties.
        order = np.lexsort((unique[:, 1], unique[:, 0], -cell_counts))
        projected = list(counts)
        mean = total / len(counts)
        moves: List[Tuple[Tuple[int, int], int, int]] = []
        for row in order:
            if len(moves) >= self.max_cells_per_pass:
                break
            if projected[hot] / mean <= self.skew_threshold:
                break
            count = int(cell_counts[row])
            target = min(
                (s for s in range(service.n_shards) if s != hot),
                key=lambda s: (projected[s], s),
            )
            # Only move a cell that actually narrows the hot/target gap;
            # smaller cells later in the order may still fit.
            if count >= projected[hot] - projected[target]:
                continue
            cell = (int(unique[row, 0]), int(unique[row, 1]))
            policy.override_cell(cell, target)
            projected[hot] -= count
            projected[target] += count
            moves.append((cell, hot, target))
        if not moves:
            return None
        handoffs = service.rebalance(time)
        counts_after = service.shard_sizes()
        report = RebalanceReport(
            time=float(time),
            hot_shard=hot,
            skew_before=skew_before,
            skew_after=shard_skew(counts_after),
            handoffs=handoffs,
            moves=moves,
        )
        self.passes += 1
        self.cells_moved += len(moves)
        self.objects_moved += handoffs
        self.last_report = report
        return report
