"""The synthetic big-map region fixture, written to disk as spatial tiles.

``benchmarks/bench_bigmap.py`` exercises the contraction-hierarchy engine
on a ~1M-node road network, which is too big to build as one
:class:`~repro.roadmap.graph.RoadMap`.  This module writes that network
straight to disk and streams it back:

* :func:`write_region_tiles` generates the deterministic region (a jittered
  grid with a motorway/primary/secondary/residential speed hierarchy) and
  appends its segments through a :class:`TileWriter`, whose bounded
  buffers flush to per-tile JSONL files — the full map never exists in
  memory.
* :class:`TileStore` opens the result (an ``index.json`` plus one
  ``tile_<tx>_<ty>.jsonl`` per occupied tile) and streams it back:
  :meth:`TileStore.iter_segments` yields every segment, and
  :meth:`TileStore.routing_links` yields the ``(link_id, from, to,
  weight)`` rows a :class:`~repro.roadmap.hierarchy.RoutingGraph` is built
  from, with the link ids the merged road map would assign.

Real OSM extracts take the one import path in :mod:`repro.ingest.cache`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.ingest.compact import Segment
from repro.roadmap.elements import RoadClass
from repro.roadmap.hierarchy import link_tie_key

#: Bump when the on-disk tile layout or record schema changes; a store
#: written under another version is rejected on open.
TILE_FORMAT_VERSION = 2

_INDEX_NAME = "index.json"


def _tile_of(x: float, y: float, tile_size: float) -> Tuple[int, int]:
    """The ``(tx, ty)`` tile containing a planar point."""
    return (int(math.floor(x / tile_size)), int(math.floor(y / tile_size)))


def _segment_record(segment: Segment) -> list:
    """The JSONL row for one segment (coordinates rounded to centimetres)."""
    points = [[round(float(x), 2), round(float(y), 2)] for x, y in segment.points]
    return [
        segment.a,
        segment.b,
        points,
        segment.road_class.value,
        segment.speed_limit,
        segment.oneway,
        segment.name,
    ]


def _record_segment(row: list) -> Segment:
    """Rebuild a :class:`Segment` from its JSONL row."""
    return Segment(
        a=row[0],
        b=row[1],
        points=np.asarray(row[2], dtype=float),
        road_class=RoadClass(row[3]),
        speed_limit=row[4],
        oneway=row[5],
        name=row[6],
    )


# --------------------------------------------------------------------------- #
# writer
# --------------------------------------------------------------------------- #
class TileWriter:
    """Append segments into spatially keyed tile files with bounded buffers.

    Segments are keyed by the tile containing their midpoint (tiles are
    storage buckets, not graph partitions: the merged graph glues on shared
    node ids, so a segment crossing a tile boundary needs no special
    handling).  Buffers flush to per-tile JSONL files whenever the total
    buffered row count reaches ``buffer_segments``, so peak memory is
    independent of the input size.
    """

    def __init__(self, root: Union[str, Path], tile_size_m: float, buffer_segments: int):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tile_size_m = float(tile_size_m)
        self.buffer_segments = int(buffer_segments)
        self._buffers: Dict[Tuple[int, int], List[str]] = {}
        self._buffered = 0
        self._counts: Dict[Tuple[int, int], int] = {}
        self._total = 0

    def add(self, segment: Segment) -> None:
        """Buffer one segment for its midpoint tile."""
        points = segment.points
        mx = float(points[0][0] + points[-1][0]) / 2.0
        my = float(points[0][1] + points[-1][1]) / 2.0
        key = _tile_of(mx, my, self.tile_size_m)
        row = json.dumps(_segment_record(segment), separators=(",", ":"))
        self._buffers.setdefault(key, []).append(row)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._buffered += 1
        self._total += 1
        if self._buffered >= self.buffer_segments:
            self._flush()

    def _flush(self) -> None:
        for key, rows in self._buffers.items():
            path = self.root / tile_file_name(*key)
            with path.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(rows))
                handle.write("\n")
        self._buffers.clear()
        self._buffered = 0

    def close(
        self, kind: str, nodes: int, extra: Optional[Dict[str, object]] = None
    ) -> Path:
        """Flush remaining buffers and write ``index.json``; returns its path.

        *nodes* is the store's junction count, recorded in the index: the
        caller knows it, and the writer keeps no per-node state.
        """
        self._flush()
        tiles = {
            f"{tx},{ty}": {"file": tile_file_name(tx, ty), "segments": count}
            for (tx, ty), count in sorted(self._counts.items())
        }
        index = {
            "format": "repro-tiles",
            "version": TILE_FORMAT_VERSION,
            "kind": kind,
            "tile_size_m": self.tile_size_m,
            "segments": self._total,
            "nodes": int(nodes),
            "tiles": tiles,
        }
        if extra:
            index.update(extra)
        path = self.root / _INDEX_NAME
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(index, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
        return path


def tile_file_name(tx: int, ty: int) -> str:
    """File name of the tile at grid coordinates ``(tx, ty)``."""
    return f"tile_{tx}_{ty}.jsonl"


# --------------------------------------------------------------------------- #
# store
# --------------------------------------------------------------------------- #
class TileStore:
    """A finished tile directory, streamed tile by tile in sorted order."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        index_path = self.root / _INDEX_NAME
        if not index_path.exists():
            raise FileNotFoundError(f"not a tile store (no {_INDEX_NAME}): {self.root}")
        self.index = json.loads(index_path.read_text(encoding="utf-8"))
        if self.index.get("format") != "repro-tiles":
            raise ValueError(f"unrecognised tile index format in {index_path}")
        if self.index.get("version") != TILE_FORMAT_VERSION:
            raise ValueError(
                f"tile format version {self.index.get('version')} != {TILE_FORMAT_VERSION}"
            )

    def tile_keys(self) -> List[Tuple[int, int]]:
        """All occupied tiles, sorted (the canonical iteration order)."""
        keys = []
        for token in self.index["tiles"]:
            tx, ty = token.split(",")
            keys.append((int(tx), int(ty)))
        keys.sort()
        return keys

    def iter_segments(self) -> Iterator[Segment]:
        """Every segment, streamed in sorted-tile order (deterministic)."""
        for tx, ty in self.tile_keys():
            path = self.root / self.index["tiles"][f"{tx},{ty}"]["file"]
            with path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        yield _record_segment(json.loads(line))

    def routing_links(self, weight: str = "length") -> Iterator[Tuple[int, int, int, float]]:
        """Stream ``(link_id, from, to, weight)`` rows for the whole store.

        Link ids follow the
        :func:`~repro.ingest.compact.segments_to_roadmap` assignment rule —
        segment order, forward link then reverse link — so paths found on a
        :class:`~repro.roadmap.hierarchy.RoutingGraph` built from this
        stream quote the same link ids as the merged road map, without the
        store ever being merged.
        """
        if weight not in ("length", "travel_time"):
            raise ValueError(f"unknown weight {weight!r}")
        link_id = 0
        for segment in self.iter_segments():
            points = segment.points
            if len(points) == 2:
                # np.hypot, not math.hypot: Polyline computes lengths with
                # the C-library hypot, and the two can differ by one ULP —
                # enough to break bit-identity with the merged road map.
                w = float(
                    np.hypot(
                        float(points[1][0]) - float(points[0][0]),
                        float(points[1][1]) - float(points[0][1]),
                    )
                )
            else:
                w = segment.length
            if weight == "travel_time":
                speed = segment.speed_limit
                if speed is None:
                    speed = segment.road_class.default_speed_limit
                w = w / speed
            yield (link_id, segment.a, segment.b, w)
            link_id += 1
            if not segment.oneway:
                yield (link_id, segment.b, segment.a, w)
                link_id += 1


# --------------------------------------------------------------------------- #
# synthetic big-region fixture
# --------------------------------------------------------------------------- #
#: Speed (m/s) per road class in the synthetic region.  The spread is what
#: gives the region a usable hierarchy: long trips climb onto primaries and
#: motorways quickly, which is exactly the structure contraction
#: hierarchies exploit.
REGION_SPEEDS = {
    RoadClass.MOTORWAY: 33.0,
    RoadClass.PRIMARY: 22.0,
    RoadClass.SECONDARY: 14.0,
    RoadClass.RESIDENTIAL: 8.0,
}

#: Grid line *i* carries a motorway every 64 lines, a primary every 16, a
#: secondary every 4, residential otherwise.
def _region_line_class(i: int) -> RoadClass:
    if i % 64 == 0:
        return RoadClass.MOTORWAY
    if i % 16 == 0:
        return RoadClass.PRIMARY
    if i % 4 == 0:
        return RoadClass.SECONDARY
    return RoadClass.RESIDENTIAL


def region_node_id(row: int, col: int, ncols: int) -> int:
    """Node id of grid position ``(row, col)`` — row-major."""
    return row * ncols + col


def region_node_position(node_id: int, ncols: int, spacing_m: float = 100.0) -> Tuple[float, float]:
    """Deterministic jittered planar position of a region node.

    The jitter (±15 m from a hash of the node id) makes every link length
    unique, which keeps shortest paths unique and the contraction
    hierarchy lean; it is recomputed here rather than stored so callers can
    pick query endpoints on the 1M-node region without loading any tile.
    """
    row, col = divmod(node_id, ncols)
    h = link_tie_key(node_id, 0x5EED)
    jx = ((h & 0xFFFFF) / float(0xFFFFF) - 0.5) * 30.0
    jy = (((h >> 20) & 0xFFFFF) / float(0xFFFFF) - 0.5) * 30.0
    return (col * spacing_m + jx, row * spacing_m + jy)


def write_region_tiles(
    out_dir: Union[str, Path],
    nrows: int,
    ncols: int,
    spacing_m: float = 100.0,
    tile_nodes: int = 128,
    buffer_segments: int = 50000,
) -> TileStore:
    """Generate the synthetic region fixture directly as a tile store.

    The region is an ``nrows × ncols`` jittered grid (two-way everywhere)
    with the :data:`REGION_SPEEDS` road hierarchy on lines chosen by
    :func:`_region_line_class`.  Generation is fully deterministic (hash
    jitter, no RNG) and streaming: segments go straight into bounded
    :class:`TileWriter` buffers, so a 1M-node region is written in a few
    hundred MB of resident memory regardless of size.
    """
    if nrows < 2 or ncols < 2:
        raise ValueError("a region needs at least a 2x2 grid")
    writer = TileWriter(
        out_dir,
        tile_size_m=tile_nodes * spacing_m,
        buffer_segments=buffer_segments,
    )

    def _segment(na: int, nb: int, road_class: RoadClass) -> Segment:
        pa = region_node_position(na, ncols, spacing_m)
        pb = region_node_position(nb, ncols, spacing_m)
        return Segment(
            a=na,
            b=nb,
            points=np.array([pa, pb], dtype=float),
            road_class=road_class,
            speed_limit=REGION_SPEEDS[road_class],
            oneway=False,
            name="",
        )

    for row in range(nrows):
        row_class = _region_line_class(row)
        for col in range(ncols):
            nid = region_node_id(row, col, ncols)
            if col + 1 < ncols:
                writer.add(_segment(nid, nid + 1, row_class))
            if row + 1 < nrows:
                col_class = _region_line_class(col)
                writer.add(_segment(nid, nid + ncols, col_class))
    writer.close(
        kind="synthetic-region",
        nodes=nrows * ncols,
        extra={
            "region": {
                "nrows": nrows,
                "ncols": ncols,
                "spacing_m": spacing_m,
                "tile_nodes": tile_nodes,
            }
        },
    )
    return TileStore(out_dir)
