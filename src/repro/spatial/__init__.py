"""Spatial index over geometric items.

The map-based protocol queries "a spatial index for the map information with
the mobile object's current position" (paper Sec. 3) when it initialises the
map matcher and whenever it has lost its current link and needs to
re-acquire one.  :class:`repro.spatial.grid.GridIndex`, a uniform grid hash,
is that index: links are distributed fairly evenly, so fixed cells prune
well.  It is a static index — built once per road map by ``insert`` and
then only queried (``query_bbox`` / ``query_radius`` / ``nearest``).  It
stores :class:`repro.spatial.index.IndexedItem` records;
:func:`repro.spatial.index.brute_force_nearest` is the exhaustive scan its
nearest-item search falls back to and the tests check it against.  The
moving-object variant with keyed removal, bulk rebuild and k-nearest search
is a test oracle (``tests/reference/scalar_query_engine.py``).
"""

from repro.spatial.index import IndexedItem, brute_force_nearest
from repro.spatial.grid import GridIndex

__all__ = [
    "IndexedItem",
    "brute_force_nearest",
    "GridIndex",
]
