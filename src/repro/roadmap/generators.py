"""Synthetic road-network generators.

The paper's evaluation uses a commercial car-navigation map of the Stuttgart
area together with four recorded GPS traces (freeway, inter-urban, city,
walking).  Neither the map nor the traces are redistributable, so this module
generates networks with the same *structural* characteristics:

* :func:`freeway_map` — a long, gently curving motorway corridor with
  interchanges (exit ramps) every few kilometres;
* :func:`interurban_map` — a network of moderately curving primary and
  secondary roads connecting towns, with side roads at intermediate nodes;
* :func:`city_grid_map` — a dense, Manhattan-like street grid with arterial
  avenues, slight geometric jitter and frequent intersections;
* :func:`pedestrian_map` — a fine-grained footpath network with diagonal
  shortcuts for the walking scenario.

All generators are deterministic for a given ``seed``.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.geo.vec import Vec2, as_vec
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.elements import RoadClass
from repro.roadmap.graph import RoadMap


# --------------------------------------------------------------------------- #
# geometry helpers
# --------------------------------------------------------------------------- #
def curved_path(
    length: float,
    step: float = 50.0,
    start: Vec2 = (0.0, 0.0),
    initial_heading: float = 0.0,
    curvature_sigma: float = 1e-4,
    max_curvature: float = 1.5e-3,
    curvature_decay: float = 0.95,
    rng: Optional[random.Random] = None,
) -> np.ndarray:
    """Generate a smoothly curving path of a given length.

    The path is produced by integrating a heading whose curvature performs a
    mean-reverting random walk, which yields the long sweeping curves typical
    of motorways (small ``curvature_sigma``) or the tighter winding of rural
    roads (larger values).

    Parameters
    ----------
    length:
        Total arc length of the path in metres.
    step:
        Distance between generated vertices in metres.
    start:
        First vertex.
    initial_heading:
        Initial heading in radians (mathematical convention, from +x).
    curvature_sigma:
        Standard deviation of the per-step curvature innovation (1/m).
    max_curvature:
        Hard clamp on curvature magnitude (1/m).
    curvature_decay:
        Mean-reversion factor applied to the curvature each step.
    rng:
        Random generator; a fresh one is created when omitted.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n, 2)`` with the path vertices.
    """
    if length <= 0 or step <= 0:
        raise ValueError("length and step must be positive")
    rng = rng or random.Random()
    n_steps = max(1, int(math.ceil(length / step)))
    points = [as_vec(start)]
    heading = float(initial_heading)
    curvature = 0.0
    for _ in range(n_steps):
        curvature = curvature * curvature_decay + rng.gauss(0.0, curvature_sigma)
        curvature = max(-max_curvature, min(max_curvature, curvature))
        heading += curvature * step
        prev = points[-1]
        points.append(
            np.array([prev[0] + step * math.cos(heading), prev[1] + step * math.sin(heading)])
        )
    return np.array(points)


def _split_indices(n_points: int, n_pieces: int) -> List[Tuple[int, int]]:
    """Split ``range(n_points)`` into *n_pieces* contiguous (start, end) index pairs."""
    n_pieces = max(1, min(n_pieces, n_points - 1))
    boundaries = np.linspace(0, n_points - 1, n_pieces + 1).astype(int)
    out = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        if b > a:
            out.append((int(a), int(b)))
    return out


def _corridor(
    builder: RoadMapBuilder,
    path: np.ndarray,
    node_spacing: float,
    road_class: RoadClass,
    speed_limit: float,
    name: str,
    two_way: bool = True,
) -> List[int]:
    """Add a corridor following *path* to *builder*, splitting it into links.

    Nodes (intersections) are placed roughly every *node_spacing* metres along
    the path; the vertices in between become shape points.  Returns the ids of
    the created intersections, in order.
    """
    seg_lengths = np.hypot(*np.diff(path, axis=0).T)
    total = float(seg_lengths.sum())
    n_links = max(1, int(round(total / node_spacing)))
    pieces = _split_indices(len(path), n_links)

    node_ids: List[int] = []
    first_node = builder.get_or_create_intersection(path[pieces[0][0]])
    node_ids.append(first_node.id)
    for start_idx, end_idx in pieces:
        end_node = builder.get_or_create_intersection(path[end_idx])
        shape = [path[i] for i in range(start_idx + 1, end_idx)]
        if two_way:
            builder.add_two_way_link(
                node_ids[-1],
                end_node.id,
                shape_points=shape,
                road_class=road_class,
                speed_limit=speed_limit,
                name=name,
            )
        else:
            builder.add_link(
                node_ids[-1],
                end_node.id,
                shape_points=shape,
                road_class=road_class,
                speed_limit=speed_limit,
                name=name,
            )
        node_ids.append(end_node.id)
    return node_ids


# --------------------------------------------------------------------------- #
# freeway
# --------------------------------------------------------------------------- #
def freeway_map(
    length_km: float = 180.0,
    interchange_spacing_km: float = 4.0,
    ramp_length_m: float = 400.0,
    speed_limit_kmh: float = 120.0,
    seed: int = 0,
) -> RoadMap:
    """A motorway corridor with exit ramps at every interchange.

    The corridor curves gently (long radii), matching the geometry that makes
    the map-based protocol shine in the paper's freeway scenario: a linear
    predictor drifts off in every curve while the map follows it.  Each
    interchange node has an exit ramp so the prediction function has a real
    choice to make when the object passes an intersection.
    """
    rng = random.Random(seed)
    builder = RoadMapBuilder()
    path = curved_path(
        length=length_km * 1000.0,
        step=100.0,
        curvature_sigma=4e-5,
        max_curvature=8e-4,
        curvature_decay=0.97,
        rng=rng,
    )
    node_ids = _corridor(
        builder,
        path,
        node_spacing=interchange_spacing_km * 1000.0,
        road_class=RoadClass.MOTORWAY,
        speed_limit=speed_limit_kmh / 3.6,
        name="A-repro",
    )
    # Exit ramps: a short secondary road leaving every interior interchange at
    # a pronounced angle, ending in a dead-end local node.
    roadmap_nodes = {nid: builder._intersections[nid] for nid in node_ids}
    for nid in node_ids[1:-1]:
        node = roadmap_nodes[nid]
        angle = rng.uniform(0.35, 0.9) * (1 if rng.random() < 0.5 else -1)
        # Ramp direction: rotate the local corridor direction by `angle`.
        idx = node_ids.index(nid)
        nxt = roadmap_nodes[node_ids[min(idx + 1, len(node_ids) - 1)]]
        prv = roadmap_nodes[node_ids[max(idx - 1, 0)]]
        corridor_dir = nxt.position - prv.position
        norm = math.hypot(*corridor_dir)
        if norm == 0:
            continue
        corridor_dir = corridor_dir / norm
        c, s = math.cos(angle), math.sin(angle)
        ramp_dir = np.array(
            [c * corridor_dir[0] - s * corridor_dir[1], s * corridor_dir[0] + c * corridor_dir[1]]
        )
        ramp_end = builder.add_intersection(node.position + ramp_dir * ramp_length_m)
        builder.add_two_way_link(
            nid,
            ramp_end.id,
            shape_points=[node.position + ramp_dir * (ramp_length_m * 0.5)],
            road_class=RoadClass.SECONDARY,
            speed_limit=60.0 / 3.6,
            name=f"exit-{nid}",
        )
    return builder.build()


# --------------------------------------------------------------------------- #
# inter-urban
# --------------------------------------------------------------------------- #
def interurban_map(
    n_towns: int = 6,
    town_spacing_km: float = 18.0,
    side_road_probability: float = 0.45,
    speed_limit_kmh: float = 90.0,
    seed: int = 1,
) -> RoadMap:
    """A network of winding primary roads connecting a chain of towns.

    Each pair of consecutive towns is connected by a moderately curving
    corridor whose intermediate nodes occasionally sprout side roads, giving
    the intersection density typical of inter-urban driving.
    """
    rng = random.Random(seed)
    builder = RoadMapBuilder()

    # Town centres arranged along a meandering macro-path so that the overall
    # trip (used by the scenario) is long enough.
    heading = rng.uniform(-0.4, 0.4)
    towns: List[np.ndarray] = [np.zeros(2)]
    for _ in range(n_towns - 1):
        heading += rng.uniform(-0.7, 0.7)
        step = town_spacing_km * 1000.0 * rng.uniform(0.8, 1.2)
        towns.append(
            towns[-1] + np.array([math.cos(heading), math.sin(heading)]) * step
        )

    all_corridor_nodes: List[int] = []
    for a, b in zip(towns[:-1], towns[1:]):
        direction = b - a
        dist = math.hypot(*direction)
        base_heading = math.atan2(direction[1], direction[0])
        path = curved_path(
            length=dist * 1.15,
            step=60.0,
            start=a,
            initial_heading=base_heading,
            curvature_sigma=3e-4,
            max_curvature=4e-3,
            curvature_decay=0.92,
            rng=rng,
        )
        # Straighten the generated path so that it actually ends near town b:
        # blend the curved offsets onto the straight chord.
        chord = np.linspace(0.0, 1.0, len(path))[:, None] * (b - a)[None, :] + a[None, :]
        wander = path - (
            np.linspace(0.0, 1.0, len(path))[:, None] * (path[-1] - path[0])[None, :]
            + path[0][None, :]
        )
        path = chord + wander
        node_ids = _corridor(
            builder,
            path,
            node_spacing=1800.0,
            road_class=RoadClass.PRIMARY,
            speed_limit=speed_limit_kmh / 3.6,
            name="B-repro",
        )
        all_corridor_nodes.extend(node_ids)

        # Side roads off some intermediate nodes.
        for nid in node_ids[1:-1]:
            if rng.random() > side_road_probability:
                continue
            node = builder._intersections[nid]
            angle = rng.uniform(0.6, 1.4) * (1 if rng.random() < 0.5 else -1)
            length = rng.uniform(400.0, 1500.0)
            direction = rng.uniform(0, 2 * math.pi)
            side_path = curved_path(
                length=length,
                step=50.0,
                start=node.position,
                initial_heading=direction + angle,
                curvature_sigma=5e-4,
                max_curvature=5e-3,
                rng=rng,
            )
            end_node = builder.add_intersection(side_path[-1])
            builder.add_two_way_link(
                nid,
                end_node.id,
                shape_points=[side_path[i] for i in range(1, len(side_path) - 1)],
                road_class=RoadClass.SECONDARY,
                speed_limit=70.0 / 3.6,
                name=f"side-{nid}",
            )
    return builder.build()


# --------------------------------------------------------------------------- #
# city grid
# --------------------------------------------------------------------------- #
def city_grid_map(
    rows: int = 16,
    cols: int = 16,
    spacing_m: float = 250.0,
    arterial_every: int = 4,
    jitter_m: float = 12.0,
    seed: int = 2,
) -> RoadMap:
    """A Manhattan-like city street grid with arterial avenues.

    Every ``arterial_every``-th row/column is an arterial (higher class and
    speed limit); the remaining streets are residential.  Node positions are
    jittered slightly so that streets are not perfectly straight, which makes
    the linear predictor's life realistically harder.
    """
    if rows < 2 or cols < 2:
        raise ValueError("rows and cols must be at least 2")
    rng = random.Random(seed)
    builder = RoadMapBuilder()

    node_grid: List[List[int]] = []
    for r in range(rows):
        row_nodes: List[int] = []
        for c in range(cols):
            jitter = np.array(
                [rng.uniform(-jitter_m, jitter_m), rng.uniform(-jitter_m, jitter_m)]
            )
            pos = np.array([c * spacing_m, r * spacing_m]) + jitter
            row_nodes.append(builder.add_intersection(pos).id)
        node_grid.append(row_nodes)

    def street_class(index: int) -> Tuple[RoadClass, float]:
        if arterial_every > 0 and index % arterial_every == 0:
            return RoadClass.SECONDARY, 60.0 / 3.6
        return RoadClass.RESIDENTIAL, 50.0 / 3.6

    # horizontal streets
    for r in range(rows):
        cls, speed = street_class(r)
        for c in range(cols - 1):
            builder.add_two_way_link(
                node_grid[r][c],
                node_grid[r][c + 1],
                road_class=cls,
                speed_limit=speed,
                name=f"street-h{r}",
            )
    # vertical streets
    for c in range(cols):
        cls, speed = street_class(c)
        for r in range(rows - 1):
            builder.add_two_way_link(
                node_grid[r][c],
                node_grid[r + 1][c],
                road_class=cls,
                speed_limit=speed,
                name=f"street-v{c}",
            )
    return builder.build()


# --------------------------------------------------------------------------- #
# pedestrian network
# --------------------------------------------------------------------------- #
def pedestrian_map(
    rows: int = 20,
    cols: int = 20,
    spacing_m: float = 90.0,
    diagonal_probability: float = 0.25,
    jitter_m: float = 8.0,
    seed: int = 3,
) -> RoadMap:
    """A fine-grained footpath network for the walking-person scenario.

    The network is a jittered grid of footpaths with occasional diagonal
    shortcuts across blocks (parks, squares), producing the frequent small
    direction changes characteristic of a pedestrian trace.
    """
    rng = random.Random(seed)
    builder = RoadMapBuilder()
    node_grid: List[List[int]] = []
    for r in range(rows):
        row_nodes: List[int] = []
        for c in range(cols):
            jitter = np.array(
                [rng.uniform(-jitter_m, jitter_m), rng.uniform(-jitter_m, jitter_m)]
            )
            pos = np.array([c * spacing_m, r * spacing_m]) + jitter
            row_nodes.append(builder.add_intersection(pos).id)
        node_grid.append(row_nodes)

    walk_speed = 5.5 / 3.6
    for r in range(rows):
        for c in range(cols - 1):
            builder.add_two_way_link(
                node_grid[r][c],
                node_grid[r][c + 1],
                road_class=RoadClass.FOOTPATH,
                speed_limit=walk_speed,
            )
    for c in range(cols):
        for r in range(rows - 1):
            builder.add_two_way_link(
                node_grid[r][c],
                node_grid[r + 1][c],
                road_class=RoadClass.FOOTPATH,
                speed_limit=walk_speed,
            )
    # Diagonal shortcuts.
    for r in range(rows - 1):
        for c in range(cols - 1):
            if rng.random() < diagonal_probability:
                if rng.random() < 0.5:
                    builder.add_two_way_link(
                        node_grid[r][c],
                        node_grid[r + 1][c + 1],
                        road_class=RoadClass.FOOTPATH,
                        speed_limit=walk_speed,
                    )
                else:
                    builder.add_two_way_link(
                        node_grid[r][c + 1],
                        node_grid[r + 1][c],
                        road_class=RoadClass.FOOTPATH,
                        speed_limit=walk_speed,
                    )
    return builder.build()


# --------------------------------------------------------------------------- #
# radial (ring-and-spoke) city
# --------------------------------------------------------------------------- #
def radial_ring_map(
    n_arms: int = 8,
    n_rings: int = 5,
    ring_spacing_m: float = 450.0,
    jitter_m: float = 10.0,
    arterial_arms: bool = True,
    seed: int = 4,
) -> RoadMap:
    """A ring-and-spoke city: radial arterials crossed by concentric rings.

    Many European cities grow radially rather than as a grid: arterial
    roads leave a centre in every direction and ring roads connect them.
    For the protocols this topology matters because the prediction
    function faces a genuine multi-way choice at every ring/arm crossing,
    and ring driving produces sustained curvature that linear predictors
    handle poorly.

    Parameters
    ----------
    n_arms:
        Number of radial arterials leaving the centre.
    n_rings:
        Number of concentric ring roads.
    ring_spacing_m:
        Radial distance between consecutive rings in metres.
    jitter_m:
        Uniform positional jitter applied to every crossing.
    arterial_arms:
        Whether the arms get a higher road class / speed limit than rings.
    seed:
        Seed for the jitter.
    """
    if n_arms < 3:
        raise ValueError("a radial map needs at least 3 arms")
    if n_rings < 1:
        raise ValueError("a radial map needs at least 1 ring")
    rng = random.Random(seed)
    builder = RoadMapBuilder()
    center = builder.add_intersection((0.0, 0.0))

    arm_class = RoadClass.SECONDARY if arterial_arms else RoadClass.RESIDENTIAL
    arm_speed = (60.0 if arterial_arms else 50.0) / 3.6
    ring_speed = 50.0 / 3.6

    # Crossing nodes: node_ids[arm][ring]
    node_ids: List[List[int]] = []
    for a in range(n_arms):
        angle = 2.0 * math.pi * a / n_arms
        arm_nodes: List[int] = []
        for k in range(1, n_rings + 1):
            radius = k * ring_spacing_m
            jitter = np.array(
                [rng.uniform(-jitter_m, jitter_m), rng.uniform(-jitter_m, jitter_m)]
            )
            pos = np.array([radius * math.cos(angle), radius * math.sin(angle)]) + jitter
            arm_nodes.append(builder.add_intersection(pos).id)
        node_ids.append(arm_nodes)

    # Radial arms: centre -> first ring -> ... -> outer ring.
    for a in range(n_arms):
        chain = [center.id] + node_ids[a]
        for u, v in zip(chain[:-1], chain[1:]):
            builder.add_two_way_link(
                u, v, road_class=arm_class, speed_limit=arm_speed, name=f"arm-{a}"
            )
    # Ring roads: connect consecutive arms at every ring, following the arc.
    for k in range(n_rings):
        radius = (k + 1) * ring_spacing_m
        for a in range(n_arms):
            b = (a + 1) % n_arms
            angle_a = 2.0 * math.pi * a / n_arms
            angle_b = 2.0 * math.pi * b / n_arms
            if b == 0:
                angle_b = 2.0 * math.pi
            mid = 0.5 * (angle_a + angle_b)
            shape = [np.array([radius * math.cos(mid), radius * math.sin(mid)])]
            builder.add_two_way_link(
                node_ids[a][k],
                node_ids[b][k],
                shape_points=shape,
                road_class=RoadClass.RESIDENTIAL,
                speed_limit=ring_speed,
                name=f"ring-{k}",
            )
    return builder.build()


# --------------------------------------------------------------------------- #
# mixed corridor + grid (commuter) network
# --------------------------------------------------------------------------- #
def corridor_city_map(
    corridor_km: float = 12.0,
    rows: int = 10,
    cols: int = 10,
    spacing_m: float = 220.0,
    interchange_spacing_km: float = 2.0,
    corridor_speed_kmh: float = 120.0,
    jitter_m: float = 10.0,
    seed: int = 5,
) -> RoadMap:
    """A motorway corridor feeding into a city street grid (commuter trip).

    The classic commute — freeway approach, then dense urban streets —
    mixes the two movement regimes in one map: long high-speed links where
    map-based prediction excels, followed by frequent low-speed turns.
    The corridor runs west of the grid and is connected to the grid's
    western edge by a short arterial connector.
    """
    if rows < 2 or cols < 2:
        raise ValueError("rows and cols must be at least 2")
    if corridor_km <= 0:
        raise ValueError("corridor_km must be positive")
    rng = random.Random(seed)
    builder = RoadMapBuilder()

    # City grid around the origin (same structure as city_grid_map).
    node_grid: List[List[int]] = []
    for r in range(rows):
        row_nodes: List[int] = []
        for c in range(cols):
            jitter = np.array(
                [rng.uniform(-jitter_m, jitter_m), rng.uniform(-jitter_m, jitter_m)]
            )
            pos = np.array([c * spacing_m, r * spacing_m]) + jitter
            row_nodes.append(builder.add_intersection(pos).id)
        node_grid.append(row_nodes)
    for r in range(rows):
        cls = RoadClass.SECONDARY if r % 3 == 0 else RoadClass.RESIDENTIAL
        speed = (60.0 if cls is RoadClass.SECONDARY else 50.0) / 3.6
        for c in range(cols - 1):
            builder.add_two_way_link(
                node_grid[r][c], node_grid[r][c + 1],
                road_class=cls, speed_limit=speed, name=f"street-h{r}",
            )
    for c in range(cols):
        cls = RoadClass.SECONDARY if c % 3 == 0 else RoadClass.RESIDENTIAL
        speed = (60.0 if cls is RoadClass.SECONDARY else 50.0) / 3.6
        for r in range(rows - 1):
            builder.add_two_way_link(
                node_grid[r][c], node_grid[r + 1][c],
                road_class=cls, speed_limit=speed, name=f"street-v{c}",
            )

    # Motorway corridor approaching the grid from the west, aimed at the
    # middle of the western edge.
    mid_y = (rows - 1) * spacing_m / 2.0
    start = np.array([-(corridor_km * 1000.0) - 800.0, mid_y])
    path = curved_path(
        length=corridor_km * 1000.0,
        step=100.0,
        start=start,
        initial_heading=0.0,
        curvature_sigma=4e-5,
        max_curvature=8e-4,
        curvature_decay=0.97,
        rng=rng,
    )
    corridor_nodes = _corridor(
        builder,
        path,
        node_spacing=interchange_spacing_km * 1000.0,
        road_class=RoadClass.MOTORWAY,
        speed_limit=corridor_speed_kmh / 3.6,
        name="M-commute",
    )

    # Connector: corridor end to the nearest western-edge grid node.
    end_node = builder._intersections[corridor_nodes[-1]]
    west_edge = [node_grid[r][0] for r in range(rows)]
    nearest = min(
        west_edge,
        key=lambda nid: float(
            np.hypot(*(builder._intersections[nid].position - end_node.position))
        ),
    )
    builder.add_two_way_link(
        end_node.id,
        nearest,
        road_class=RoadClass.SECONDARY,
        speed_limit=60.0 / 3.6,
        name="connector",
    )
    return builder.build()
