"""Deterministic synthetic OSM extracts for tests, benchmarks and demos.

Real OSM extracts cannot be fetched in CI (no network) and are too big to
commit, so the test suite and the ingest benchmark run the pipeline on
*synthetic* extracts: :func:`synthetic_town_xml` renders a small town —
with everything that makes real OSM data awkward — as a valid ``.osm``
document, byte-identical for a given seed and parameter set:

* an avenue grid whose edges are bead chains of short segments (degree-2
  nodes every ~``chain_step_m``, with curvature and jitter), the fodder for
  the contraction pass;
* border avenues tagged ``secondary``, a ``primary`` south bypass with
  ``maxspeed=none``, inner streets mixing ``maxspeed`` unit spellings
  (``30``, ``30 mph``) and untagged defaults;
* a one-way pair (``oneway=yes`` and ``oneway=-1``) among the north-south
  streets;
* diagonal ``footway`` shortcuts (road class ``footpath``);
* cul-de-sac stubs (``highway=service``, shorter than the default stub
  threshold), a disconnected road island, a ``highway=proposed`` way, a
  tagless building way, a relation, a duplicated ``nd`` ref and a dangling
  ref to a missing node — every parser/conditioning stat gets exercised.

The committed fixture ``tests/data/miniville.osm`` is exactly
``synthetic_town_xml(seed=7)`` (asserted by a test), so the bundled file
can never drift from the generator.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.geo.geodesy import LocalProjection

#: Geodesic anchor of every fixture town (Stuttgart, the paper's home).
DEFAULT_ORIGIN = (48.783, 9.183)

_Node = Tuple[int, float, float]  # id, lat, lon
_Way = Tuple[int, List[int], Dict[str, str]]


def _town_elements(
    seed: int = 0,
    rows: int = 6,
    cols: int = 6,
    spacing_m: float = 220.0,
    chain_step_m: float = 70.0,
    include_clutter: bool = True,
    origin: Tuple[float, float] = DEFAULT_ORIGIN,
) -> Tuple[List[_Node], List[_Way], List[int]]:
    """The town as raw OSM elements: ``(nodes, ways, relation member ids)``."""
    if rows < 3 or cols < 3:
        raise ValueError("the town needs at least a 3x3 junction grid")
    if spacing_m <= 0 or chain_step_m <= 0:
        raise ValueError("spacing_m and chain_step_m must be positive")
    rng = random.Random(seed)
    projection = LocalProjection(*origin)
    nodes: List[_Node] = []
    ways: List[_Way] = []

    def add_node(node_id: int, x: float, y: float) -> int:
        lat, lon = projection.to_geodetic((x, y))
        nodes.append((node_id, float(lat), float(lon)))
        return node_id

    # ------------------------------------------------------------------ #
    # junction grid (jittered so no two streets meet at an exact angle)
    # ------------------------------------------------------------------ #
    junction: Dict[Tuple[int, int], int] = {}
    junction_xy: Dict[int, Tuple[float, float]] = {}
    for r in range(rows):
        for c in range(cols):
            node_id = 1000 + r * cols + c
            x = (c - (cols - 1) / 2.0) * spacing_m + rng.uniform(-8.0, 8.0)
            y = (r - (rows - 1) / 2.0) * spacing_m + rng.uniform(-8.0, 8.0)
            junction[(r, c)] = add_node(node_id, x, y)
            junction_xy[node_id] = (x, y)

    chain_id = 10_000

    def chain_between(a: int, b: int) -> List[int]:
        """Bead-chain node ids strictly between two junctions (bowed)."""
        nonlocal chain_id
        ax, ay = junction_xy[a]
        bx, by = junction_xy[b]
        dist = math.hypot(bx - ax, by - ay)
        steps = max(1, round(dist / chain_step_m))
        if steps < 2:
            return []
        ux, uy = (bx - ax) / dist, (by - ay) / dist
        px, py = -uy, ux  # unit perpendicular
        bow = rng.uniform(-10.0, 10.0)
        out: List[int] = []
        for i in range(1, steps):
            t = i / steps
            wobble = bow * math.sin(math.pi * t) + rng.uniform(-3.0, 3.0)
            x = ax + (bx - ax) * t + px * wobble
            y = ay + (by - ay) * t + py * wobble
            chain_id += 1
            out.append(add_node(chain_id, x, y))
        return out

    way_id = 100

    def add_way(refs: List[int], tags: Dict[str, str]) -> int:
        nonlocal way_id
        way_id += 1
        ways.append((way_id, refs, tags))
        return way_id

    def street_refs(points: List[int]) -> List[int]:
        refs = [points[0]]
        for a, b in zip(points, points[1:]):
            refs.extend(chain_between(a, b))
            refs.append(b)
        return refs

    # ------------------------------------------------------------------ #
    # east-west avenues (one way per row, junctions as through nodes)
    # ------------------------------------------------------------------ #
    for r in range(rows):
        refs = street_refs([junction[(r, c)] for c in range(cols)])
        if r == 0:
            tags = {"highway": "primary", "maxspeed": "none", "name": "South Bypass"}
        elif r == rows - 1:
            tags = {"highway": "secondary", "maxspeed": "60", "name": "North Avenue"}
        elif r % 3 == 1:
            tags = {"highway": "residential", "maxspeed": "30", "name": f"Row {r} Street"}
        else:
            tags = {"highway": "residential", "name": f"Row {r} Street"}
        add_way(refs, tags)

    # ------------------------------------------------------------------ #
    # north-south streets, including the one-way pair
    # ------------------------------------------------------------------ #
    for c in range(cols):
        refs = street_refs([junction[(r, c)] for r in range(rows)])
        if c in (0, cols - 1):
            tags = {"highway": "secondary", "maxspeed": "60 km/h", "name": f"Ring {c}"}
        elif c == 1:
            tags = {"highway": "residential", "oneway": "yes", "name": "Uphill Lane"}
        elif c == cols - 2:
            tags = {"highway": "residential", "oneway": "-1", "name": "Downhill Lane"}
        elif c % 4 == 1:
            tags = {"highway": "residential", "maxspeed": "30 mph", "name": f"Col {c} Street"}
        else:
            tags = {"highway": "unclassified", "name": f"Col {c} Street"}
        add_way(refs, tags)

    # ------------------------------------------------------------------ #
    # footpath shortcuts across two central blocks
    # ------------------------------------------------------------------ #
    mid_r, mid_c = rows // 2, cols // 2
    for (a, b) in (
        ((mid_r - 1, mid_c - 1), (mid_r, mid_c)),
        ((mid_r, mid_c), (mid_r - 1, mid_c + 1)),
    ):
        refs = street_refs([junction[a], junction[b]])
        add_way(refs, {"highway": "footway", "name": "Park Path"})

    relation_members: List[int] = []
    if include_clutter:
        # Cul-de-sac stubs: below the default prune threshold.
        stub_id = 95_000
        for k in range(3):
            r = 1 + (k * 2) % (rows - 2)
            c = 1 + (k * 3) % (cols - 2)
            jx, jy = junction_xy[junction[(r, c)]]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            stub_id += 1
            end = add_node(
                stub_id, jx + 25.0 * math.cos(angle), jy + 25.0 * math.sin(angle)
            )
            add_way([junction[(r, c)], end], {"highway": "service", "name": f"Yard {k}"})

        # A disconnected island far east of town: dropped by the
        # largest-component pass.
        east = (cols / 2.0 + 3.0) * spacing_m
        island = [
            add_node(90_001, east, 0.0),
            add_node(90_002, east + 150.0, 40.0),
            add_node(90_003, east + 70.0, 130.0),
        ]
        add_way(island + [island[0]], {"highway": "residential", "name": "Island Loop"})

        # Parser clutter: an unknown highway value, a tagless building, a
        # duplicated nd ref, a dangling ref, and a relation.
        add_way(
            [junction[(0, 0)], junction[(1, 1)]],
            {"highway": "proposed", "name": "Never Built"},
        )
        bx, by = junction_xy[junction[(0, 0)]]
        b1 = add_node(91_001, bx + 30.0, by + 30.0)
        b2 = add_node(91_002, bx + 45.0, by + 30.0)
        b3 = add_node(91_003, bx + 45.0, by + 45.0)
        add_way([b1, b2, b3, b1], {"building": "yes"})
        doubled = junction[(2, 0)]
        add_way(
            [junction[(1, 0)], doubled, doubled, 999_999_999],
            {"highway": "service", "name": "Glitch Alley"},
        )
        relation_members = [ways[0][0], ways[1][0]]

    return nodes, ways, relation_members


def _render_xml(
    nodes: List[_Node], ways: List[_Way], relation_members: List[int]
) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<osm version="0.6" generator="repro-fixture">',
    ]
    lats = [lat for _, lat, _ in nodes]
    lons = [lon for _, _, lon in nodes]
    lines.append(
        f'  <bounds minlat="{min(lats)!r}" minlon="{min(lons)!r}" '
        f'maxlat="{max(lats)!r}" maxlon="{max(lons)!r}"/>'
    )
    for node_id, lat, lon in nodes:
        lines.append(f'  <node id="{node_id}" lat="{lat!r}" lon="{lon!r}"/>')
    for wid, refs, tags in ways:
        lines.append(f'  <way id="{wid}">')
        for ref in refs:
            lines.append(f'    <nd ref="{ref}"/>')
        for key, value in tags.items():
            lines.append(f'    <tag k="{key}" v="{value}"/>')
        lines.append("  </way>")
    if relation_members:
        lines.append('  <relation id="1">')
        for member in relation_members:
            lines.append(f'    <member type="way" ref="{member}" role=""/>')
        lines.append('    <tag k="type" v="route"/>')
        lines.append("  </relation>")
    lines.append("</osm>")
    return "\n".join(lines) + "\n"


def synthetic_town_xml(
    seed: int = 0,
    rows: int = 6,
    cols: int = 6,
    spacing_m: float = 220.0,
    chain_step_m: float = 70.0,
    include_clutter: bool = True,
    origin: Tuple[float, float] = DEFAULT_ORIGIN,
) -> str:
    """A synthetic town as an OSM XML document (deterministic per seed)."""
    nodes, ways, relation_members = _town_elements(
        seed, rows, cols, spacing_m, chain_step_m, include_clutter, origin
    )
    return _render_xml(nodes, ways, relation_members)


def write_fixture_xml(path, seed: int = 0, **params) -> None:
    """Write :func:`synthetic_town_xml` output to *path*."""
    from pathlib import Path

    Path(path).write_text(synthetic_town_xml(seed=seed, **params), encoding="utf-8")


#: Named fixtures usable as ``RealMapTopology(fixture=...)``; values are the
#: generator parameters (the topology's ``seed`` is passed at build time).
FIXTURES: Dict[str, Dict[str, object]] = {
    "town": {},
    "town_dense": {"rows": 8, "cols": 8, "spacing_m": 180.0, "chain_step_m": 45.0},
}


def build_fixture_xml(fixture: str, seed: int, overrides: Optional[Dict] = None) -> str:
    """Render a named fixture (used by ``RealMapTopology``)."""
    if fixture not in FIXTURES:
        raise ValueError(
            f"unknown fixture {fixture!r}; known fixtures: {sorted(FIXTURES)}"
        )
    params = dict(FIXTURES[fixture])
    if overrides:
        params.update(overrides)
    return synthetic_town_xml(seed=seed, **params)
