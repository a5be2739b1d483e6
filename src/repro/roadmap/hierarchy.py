"""Contraction-hierarchy routing: offline preprocessing, sub-ms queries.

``RoutePlanner.shortest_route`` answers one query with one Dijkstra run —
fine for town fixtures, hopeless for metro-scale imports where a single
query visits hundreds of thousands of nodes.  This module adds the classic
two-phase alternative (Geisberger et al.'s contraction hierarchies):

* **offline** — :meth:`ContractionHierarchy.build` contracts nodes in
  importance order (edge difference + deleted-neighbour + hierarchy-depth
  terms, lazily re-evaluated on pop, ties broken by node id), inserting a shortcut
  ``u → w`` with cost ``c(u,v) + c(v,w)`` only when a *witness search*
  proves no better path survives the removal of ``v``;
* **online** — :meth:`ContractionHierarchy.query` runs two upward
  Dijkstra searches (forward from the source, backward over reversed
  edges from the target), meets in the middle, and unpacks every shortcut
  back to the exact original link sequence, so the :class:`Route` handed
  to the mobility layer and the known-route protocol is indistinguishable
  from one planned by plain Dijkstra.

Determinism and bit-identity
----------------------------
Every path cost is a lexicographically compared pair ``(cost, tie)``:
``cost`` is the float sum of link weights and ``tie`` an exact integer sum
of per-link tie keys derived from the link's endpoint node ids
(:func:`link_tie_key`).  The tie component makes the optimum unique, so
equal-cost ties are broken identically — and platform-independently — by
the reference Dijkstra and the hierarchy query, which is what lets the
test suite assert *path* identity, not just cost identity.  Reported costs
are always re-accumulated left-to-right over the unpacked original links
(exactly the association order of Dijkstra's label updates), so the two
engines agree bitwise even though shortcut weights are pre-summed.

The module works on :class:`RoutingGraph`, a compact adjacency-list view
that can be extracted from a :class:`~repro.roadmap.graph.RoadMap` or
built from streamed ``(link_id, from, to, weight)`` rows — the benchmark's
synthetic big-map region (:mod:`repro.ingest.tiles`) takes that route,
since it is too large to materialise as a road map.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "RoutingGraph",
    "ContractionHierarchy",
    "PlannedPath",
    "link_tie_key",
    "dijkstra_path",
]

_M64 = (1 << 64) - 1
#: Tie keys are masked to 40 bits so that the exact integer sum along any
#: realistic path (millions of links) stays below 2**63 — small enough for
#: int64 array serialisation, large enough that two distinct equal-cost
#: paths virtually never share a sum.
_TIE_MASK = (1 << 40) - 1

#: File-format version of :meth:`ContractionHierarchy.to_dict`; part of the
#: cache key story — a bump makes every persisted hierarchy rebuild.
CH_FORMAT_VERSION = 1


def link_tie_key(from_node: int, to_node: int) -> int:
    """Deterministic tie key of a link, derived from its endpoint node ids.

    A splitmix64-style bit mix: stable across platforms and Python builds
    (unlike ``hash``), uniform enough that the integer sum of keys along a
    path is unique among equal-cost alternatives.
    """
    x = (from_node * 0x9E3779B97F4A7C15 + to_node * 0xC2B2AE3D27D4EB4F + 0x165667B19E3779F9) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x & _TIE_MASK


class PlannedPath:
    """The result of one shortest-path query.

    ``cost`` is the left-to-right float sum of link weights along the path
    (bit-identical between engines), ``tie`` the exact integer tie-key sum
    that broke any equal-cost ties and ``links`` the link ids traversed
    (empty for a source == target query).
    """

    __slots__ = ("cost", "tie", "links")

    def __init__(self, cost: float, tie: int, links: List[int]):
        self.cost = cost
        self.tie = tie
        self.links = links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlannedPath(cost={self.cost:.1f}, {len(self.links)} links)"


class RoutingGraph:
    """Compact directed routing graph: dense indices, composite weights.

    Nodes are re-indexed ``0 .. n-1`` in ascending original-id order (the
    deterministic baseline every tie-break builds on).  Parallel links
    between the same node pair are collapsed to the cheapest one by
    ``(weight, link id)`` — the others can never lie on a canonical
    shortest path — and self-loops are dropped entirely.
    """

    __slots__ = ("weight", "node_ids", "index_of", "out_edges", "in_edges", "link_info")

    def __init__(self, weight: str, node_ids: Sequence[int]):
        self.weight = weight
        self.node_ids: List[int] = list(node_ids)
        self.index_of: Dict[int, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        n = len(self.node_ids)
        #: per node: list of ``(w, tie, to_idx, link_id)``
        self.out_edges: List[List[Tuple[float, int, int, int]]] = [[] for _ in range(n)]
        self.in_edges: List[List[Tuple[float, int, int, int]]] = [[] for _ in range(n)]
        #: link id -> ``(w, tie, from_idx, to_idx)``
        self.link_info: Dict[int, Tuple[float, int, int, int]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_links(
        cls,
        weight: str,
        links: Iterable[Tuple[int, int, int, float]],
    ) -> "RoutingGraph":
        """Build from ``(link_id, from_node, to_node, weight)`` tuples.

        Link order does not matter: edges are inserted in sorted
        ``(from, to, link_id)`` order so two producers of the same link set
        build the identical graph.
        """
        rows = sorted(links, key=lambda r: (r[1], r[2], r[0]))
        node_ids = sorted({r[1] for r in rows} | {r[2] for r in rows})
        graph = cls(weight, node_ids)
        index_of = graph.index_of
        best: Dict[Tuple[int, int], Tuple[float, int, int, int]] = {}
        for link_id, a, b, w in rows:
            if a == b:
                continue
            key = (a, b)
            old = best.get(key)
            if old is None or (w, link_id) < (old[0], old[3]):
                best[key] = (float(w), link_tie_key(a, b), index_of[b], link_id)
        for (a, _b), edge in best.items():
            u = index_of[a]
            graph.out_edges[u].append(edge)
            graph.in_edges[edge[2]].append((edge[0], edge[1], u, edge[3]))
            graph.link_info[edge[3]] = (edge[0], edge[1], u, edge[2])
        return graph

    @classmethod
    def from_roadmap(cls, roadmap, weight: str = "length") -> "RoutingGraph":
        """Extract the routing view of a :class:`~repro.roadmap.graph.RoadMap`.

        Weights match the planner's conventions exactly: ``length`` is the
        link arc length in metres, ``travel_time`` the traversal time at
        the speed limit.
        """
        if weight not in ("length", "travel_time"):
            raise ValueError("weight must be 'length' or 'travel_time'")
        rows = []
        for link_id in sorted(roadmap.links):
            link = roadmap.link(link_id)
            w = link.length if weight == "length" else link.travel_time()
            rows.append((link_id, link.from_node, link.to_node, w))
        return cls.from_links(weight, rows)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def num_edges(self) -> int:
        return len(self.link_info)

    def path_cost(self, link_ids: Sequence[int]) -> Tuple[float, int]:
        """Left-to-right accumulated ``(cost, tie)`` over original links.

        This is the association order of Dijkstra's distance labels along
        the final path, so both engines report it bit-identically.
        """
        cost = 0.0
        tie = 0
        for lid in link_ids:
            info = self.link_info[lid]
            cost += info[0]
            tie += info[1]
        return cost, tie


def dijkstra_path(graph: RoutingGraph, source: int, target: int) -> Optional[PlannedPath]:
    """Reference shortest path with deterministic tie-breaking.

    A plain label-setting Dijkstra over composite ``(cost, tie)`` weights;
    the unique optimum under the composite order is what the hierarchy
    query reproduces.  ``source``/``target`` are original node ids; returns
    ``None`` when the target is unreachable.
    """
    index_of = graph.index_of
    if source not in index_of or target not in index_of:
        return None
    s = index_of[source]
    t = index_of[target]
    if s == t:
        return PlannedPath(0.0, 0, [])
    out_edges = graph.out_edges
    dist: Dict[int, Tuple[float, int]] = {s: (0.0, 0)}
    parent: Dict[int, Tuple[int, int]] = {}
    settled = set()
    heap: List[Tuple[float, int, int]] = [(0.0, 0, s)]
    while heap:
        df, dt, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == t:
            break
        for w, tie, v, link in out_edges[u]:
            if v in settled:
                continue
            nf = df + w
            nt = dt + tie
            old = dist.get(v)
            if old is None or (nf, nt) < old:
                dist[v] = (nf, nt)
                parent[v] = (u, link)
                heappush(heap, (nf, nt, v))
    if t not in settled:
        return None
    links: List[int] = []
    node = t
    while node != s:
        prev, link = parent[node]
        links.append(link)
        node = prev
    links.reverse()
    cost, tie = graph.path_cost(links)
    return PlannedPath(cost, tie, links)


class ContractionHierarchy:
    """A preprocessed routing hierarchy over one :class:`RoutingGraph`.

    Build once per (map content, weight) — see
    :func:`repro.ingest.cache.load_or_build_hierarchy` for the persistent
    cache — then answer queries in well under a millisecond on graphs
    where Dijkstra takes seconds.
    """

    #: Witness searches settle at most this many nodes; hitting the cap
    #: conservatively inserts the shortcut (never harms correctness, only
    #: adds a redundant edge).  Too small a budget is a false economy:
    #: missed witnesses densify the core and every later search pays.
    WITNESS_SETTLE_LIMIT = 120

    def __init__(self, graph: RoutingGraph):
        self.graph = graph
        n = graph.num_nodes()
        self.rank: List[int] = [0] * n
        #: per node: upward out-edges ``(w, tie, to_idx, mid_idx, link_id)``
        #: (``mid_idx`` is -1 for an original link)
        self.fwd_up: List[List[Tuple[float, int, int, int, int]]] = [[] for _ in range(n)]
        #: per node: upward in-edges ``(w, tie, from_idx, mid_idx, link_id)``
        self.bwd_up: List[List[Tuple[float, int, int, int, int]]] = [[] for _ in range(n)]
        #: ``(a_idx, b_idx) -> (mid_idx, link_id)`` for shortcut unpacking
        self.edge_map: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.num_shortcuts = 0
        self.build_seconds = 0.0
        self._query_scratch: Optional[_QueryScratch] = None
        #: ``(a_idx, b_idx) -> (links, weights, tie_sum)`` — fully unpacked
        #: CH edges, memoised across queries (see :meth:`_expand`).  The tie
        #: component is pre-summed: integer addition is associative, so the
        #: cached sum is exact, unlike float weights which must stay
        #: per-link to preserve the left-to-right accumulation order.
        self._expand_cache: Dict[
            Tuple[int, int], Tuple[Tuple[int, ...], Tuple[float, ...], int]
        ] = {}

    # ------------------------------------------------------------------ #
    # offline phase
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, graph: RoutingGraph, witness_settles: Optional[int] = None
    ) -> "ContractionHierarchy":
        """Contract every node in importance order and assemble the search graph."""
        started = time.perf_counter()
        ch = cls(graph)
        n = graph.num_nodes()
        settle_limit = cls.WITNESS_SETTLE_LIMIT if witness_settles is None else witness_settles
        # Live "core" adjacency, mutated as nodes contract; values are
        # (w, tie, mid_idx, link_id) with mid_idx == -1 for original links.
        out: List[Dict[int, Tuple[float, int, int, int]]] = [{} for _ in range(n)]
        inc: List[Dict[int, Tuple[float, int, int, int]]] = [{} for _ in range(n)]
        # Every edge the hierarchy ever contained (originals + shortcuts,
        # cheaper parallels overwriting costlier ones).
        all_edges: Dict[Tuple[int, int], Tuple[float, int, int, int]] = {}
        for u in range(n):
            for w, tie, v, link in graph.out_edges[u]:
                edge = (w, tie, -1, link)
                out[u][v] = edge
                inc[v][u] = edge
                all_edges[(u, v)] = edge
        deleted = [0] * n
        contracted = [False] * n
        # A node's cached priority/shortcut list stays valid while none of
        # its neighbours contract: contraction preserves exact core
        # distances, so previously found witnesses survive, and a fresh
        # version guarantees the incident edges themselves are unchanged.
        version = [0] * n
        scratch = _WitnessScratch(n)

        def simulate(v: int):
            """Shortcuts needed to contract *v* plus its current degree."""
            inc_v = inc[v]
            out_v = out[v]
            removed = len(inc_v) + len(out_v)
            shortcuts: List[Tuple[int, int, float, int]] = []
            if inc_v and out_v:
                out_items = [
                    (w2, e[0], e[1]) for w2, e in out_v.items() if w2 != v
                ]
                for u, (w1f, w1t, _m, _l) in inc_v.items():
                    if u == v:
                        continue
                    targets: Dict[int, Tuple[float, int]] = {}
                    bound = 0.0
                    for w2, ef, et in out_items:
                        if w2 == u:
                            continue
                        cf = w1f + ef
                        targets[w2] = (cf, w1t + et)
                        if cf > bound:
                            bound = cf
                    if not targets:
                        continue
                    settled = _witness_search(
                        out, u, v, targets, bound, settle_limit, scratch
                    )
                    for w2, need in targets.items():
                        got = settled.get(w2)
                        if got is None or got > need:
                            shortcuts.append((u, w2, need[0], need[1]))
            return shortcuts, removed

        # level[v]: one more than the highest level among v's already
        # contracted neighbours — a proxy for the depth of the hierarchy
        # below v.  Folding it into the priority flattens the hierarchy
        # (nodes whose neighbourhood already towers are postponed), which
        # directly shrinks the upward search spaces of the online phase.
        level = [0] * n

        def priority(v: int):
            shortcuts, removed = simulate(v)
            return 2 * (len(shortcuts) - removed) + deleted[v] + level[v], shortcuts

        heap: List[Tuple[int, int, int, List[Tuple[int, int, float, int]]]] = []
        for v in range(n):
            p, shortcuts = priority(v)
            heap.append((p, v, 0, shortcuts))
        heapify(heap)

        next_rank = 0
        rank = ch.rank
        while heap:
            p, v, ver, shortcuts = heappop(heap)
            if contracted[v]:
                continue
            if ver != version[v]:
                # Neighbourhood changed since this entry was computed.
                p2, shortcuts = priority(v)
                if heap and (p2, v) > heap[0][:2]:
                    heappush(heap, (p2, v, version[v], shortcuts))
                    continue
            # Contract v: materialise its shortcuts, detach it from the core.
            for u, w2, cf, ct in shortcuts:
                edge = (cf, ct, v, -1)
                old = out[u].get(w2)
                if old is None or (cf, ct) < (old[0], old[1]):
                    out[u][w2] = edge
                    inc[w2][u] = edge
                    all_edges[(u, w2)] = edge
                    ch.num_shortcuts += 1
            neighbours = set(inc[v]) | set(out[v])
            neighbours.discard(v)
            for u in inc[v]:
                if u != v:
                    del out[u][v]
            for w2 in out[v]:
                if w2 != v:
                    del inc[w2][v]
            out[v] = {}
            inc[v] = {}
            lv = level[v] + 1
            for u in neighbours:
                deleted[u] += 1
                version[u] += 1
                if level[u] < lv:
                    level[u] = lv
            contracted[v] = True
            rank[v] = next_rank
            next_rank += 1

        fwd_up = ch.fwd_up
        bwd_up = ch.bwd_up
        edge_map = ch.edge_map
        for (a, b), (w, tie, mid, link) in all_edges.items():
            edge_map[(a, b)] = (mid, link)
            if rank[b] > rank[a]:
                fwd_up[a].append((w, tie, b, mid, link))
            else:
                bwd_up[b].append((w, tie, a, mid, link))
        ch.build_seconds = time.perf_counter() - started
        return ch

    # ------------------------------------------------------------------ #
    # online phase
    # ------------------------------------------------------------------ #
    def query(self, source: int, target: int) -> Optional[PlannedPath]:
        """The canonical shortest path from *source* to *target* (original ids).

        Bidirectional upward search; both frontiers only climb the
        hierarchy, and either stops as soon as its next tentative distance
        cannot beat the best meeting point found so far.  Returns ``None``
        when the target is unreachable.
        """
        index_of = self.graph.index_of
        if source not in index_of or target not in index_of:
            return None
        s = index_of[source]
        t = index_of[target]
        if s == t:
            return PlannedPath(0.0, 0, [])
        fwd_up = self.fwd_up
        bwd_up = self.bwd_up
        scratch = self._query_scratch
        if scratch is None:
            scratch = self._query_scratch = _QueryScratch(self.graph.num_nodes())
        run = scratch.run + 1
        scratch.run = run
        vis_f = scratch.vis_f
        vis_b = scratch.vis_b
        df_f = scratch.df_f
        dt_f = scratch.dt_f
        df_b = scratch.df_b
        dt_b = scratch.dt_b
        par_f = scratch.par_f
        par_b = scratch.par_b
        set_f = scratch.set_f
        set_b = scratch.set_b
        vis_f[s] = run
        df_f[s] = 0.0
        dt_f[s] = 0
        vis_b[t] = run
        df_b[t] = 0.0
        dt_b[t] = 0
        heap_f: List[Tuple[float, int, int]] = [(0.0, 0, s)]
        heap_b: List[Tuple[float, int, int]] = [(0.0, 0, t)]
        best_f = None
        best_t = 0
        meet = -1
        while heap_f or heap_b:
            if heap_f:
                df, dt, u = heap_f[0]
                if best_f is not None and (df > best_f or (df == best_f and dt >= best_t)):
                    heap_f = []
                else:
                    heappop(heap_f)
                    if set_f[u] != run:
                        set_f[u] = run
                        if vis_b[u] == run:
                            tf = df + df_b[u]
                            tt = dt + dt_b[u]
                            if best_f is None or tf < best_f or (tf == best_f and tt < best_t):
                                best_f = tf
                                best_t = tt
                                meet = u
                        # Stall-on-demand: a settled higher node x with a
                        # downward edge x->u witnessing a shorter path to u
                        # proves u's upward label is not the true distance,
                        # so u cannot be the peak of the canonical path.
                        stalled = False
                        for w, tie, x, _mid, _link in bwd_up[u]:
                            if vis_f[x] == run:
                                sf = df_f[x] + w
                                if sf < df or (sf == df and dt_f[x] + tie < dt):
                                    stalled = True
                                    break
                        if not stalled:
                            for w, tie, v, mid, link in fwd_up[u]:
                                if set_f[v] == run:
                                    continue
                                nf = df + w
                                if vis_f[v] == run:
                                    of = df_f[v]
                                    if nf > of:
                                        continue
                                    nt = dt + tie
                                    if nf == of and nt >= dt_f[v]:
                                        continue
                                else:
                                    nt = dt + tie
                                    vis_f[v] = run
                                df_f[v] = nf
                                dt_f[v] = nt
                                par_f[v] = (u, mid, link)
                                heappush(heap_f, (nf, nt, v))
            if heap_b:
                df, dt, u = heap_b[0]
                if best_f is not None and (df > best_f or (df == best_f and dt >= best_t)):
                    heap_b = []
                else:
                    heappop(heap_b)
                    if set_b[u] != run:
                        set_b[u] = run
                        if vis_f[u] == run:
                            tf = df_f[u] + df
                            tt = dt_f[u] + dt
                            if best_f is None or tf < best_f or (tf == best_f and tt < best_t):
                                best_f = tf
                                best_t = tt
                                meet = u
                        stalled = False
                        for w, tie, x, _mid, _link in fwd_up[u]:
                            if vis_b[x] == run:
                                sf = w + df_b[x]
                                if sf < df or (sf == df and tie + dt_b[x] < dt):
                                    stalled = True
                                    break
                        if not stalled:
                            for w, tie, v, mid, link in bwd_up[u]:
                                if set_b[v] == run:
                                    continue
                                nf = df + w
                                if vis_b[v] == run:
                                    of = df_b[v]
                                    if nf > of:
                                        continue
                                    nt = dt + tie
                                    if nf == of and nt >= dt_b[v]:
                                        continue
                                else:
                                    nt = dt + tie
                                    vis_b[v] = run
                                df_b[v] = nf
                                dt_b[v] = nt
                                par_b[v] = (u, mid, link)
                                heappush(heap_b, (nf, nt, v))
        if best_f is None:
            return None
        # CH edges s -> meet (forward chain) and meet -> t (backward chain).
        up_edges: List[Tuple[int, int, int, int]] = []
        node = meet
        while node != s:
            prev, mid, link = par_f[node]
            up_edges.append((prev, node, mid, link))
            node = prev
        up_edges.reverse()
        node = meet
        while node != t:
            prev, mid, link = par_b[node]
            up_edges.append((node, prev, mid, link))
            node = prev
        # Assemble the answer in one pass: links, cost and tie accumulate
        # left-to-right over *original* link weights — float adds in the
        # exact order ``RoutingGraph.path_cost`` would apply them, so the
        # reported cost is bit-identical to the reference Dijkstra's.
        link_info = self.graph.link_info
        links: List[int] = []
        cost = 0.0
        tie = 0
        for a, b, mid, link in up_edges:
            if mid < 0:
                info = link_info[link]
                links.append(link)
                cost += info[0]
                tie += info[1]
            else:
                seg_links, seg_ws, seg_tie = self._expand(a, b, mid, link)
                links.extend(seg_links)
                for w in seg_ws:
                    cost += w
                tie += seg_tie
        return PlannedPath(cost, tie, links)

    #: Soft cap on :attr:`_expand_cache` entries; crossing it clears the
    #: memo wholesale (queries only repopulate what they actually touch).
    _EXPAND_CACHE_LIMIT = 1 << 20

    def _expand(
        self, a: int, b: int, mid: int, link: int
    ) -> Tuple[Tuple[int, ...], Tuple[float, ...], int]:
        """Fully unpack one CH edge into ``(links, weights, tie_sum)``.

        Expansions are memoised per edge: popular shortcuts (motorway
        spines) appear on most long-distance paths, so after a short
        warm-up the per-query unpacking cost drops from O(path · nesting)
        dict walks to a few C-level tuple concatenations.  Iterative
        post-order so deeply nested shortcuts cannot overflow the
        recursion limit.
        """
        cache = self._expand_cache
        got = cache.get((a, b))
        if got is not None:
            return got
        if len(cache) > self._EXPAND_CACHE_LIMIT:
            cache.clear()
        edge_map = self.edge_map
        link_info = self.graph.link_info
        # (a, b, mid, link, ready): ready entries have both children cached.
        stack = [(a, b, mid, link, False)]
        while stack:
            ea, eb, emid, elink, ready = stack.pop()
            key = (ea, eb)
            if ready:
                if key not in cache:
                    l1, w1, t1 = cache[(ea, emid)]
                    l2, w2, t2 = cache[(emid, eb)]
                    cache[key] = (l1 + l2, w1 + w2, t1 + t2)
                continue
            if key in cache:
                continue
            if elink >= 0:
                info = link_info[elink]
                cache[key] = ((elink,), (info[0],), info[1])
                continue
            ma, la = edge_map[(ea, emid)]
            mb, lb = edge_map[(emid, eb)]
            stack.append((ea, eb, emid, elink, True))
            stack.append((emid, eb, mb, lb, False))
            stack.append((ea, emid, ma, la, False))
        return cache[(a, b)]

    def warm_expansions(self, top_nodes: int = 1024) -> int:
        """Pre-expand every CH edge stored at the *top_nodes* highest-ranked
        nodes, returning the number of memo entries added.

        Long-distance queries spend their middle section on edges between
        top-of-hierarchy nodes — exactly the deeply nested shortcuts whose
        first-touch unpacking dominates cold-query latency.  Warming them
        once after :meth:`build`/:meth:`from_dict` (seconds, bounded memory)
        moves that cost out of the per-query budget; the low-rank edges a
        query still meets cold expand in a handful of steps.
        """
        n = self.graph.num_nodes()
        threshold = n - top_nodes
        before = len(self._expand_cache)
        for u, r in enumerate(self.rank):
            if r < threshold:
                continue
            for _w, _tie, v, mid, link in self.fwd_up[u]:
                if mid >= 0:
                    self._expand(u, v, mid, link)
            for _w, _tie, a, mid, link in self.bwd_up[u]:
                if mid >= 0:
                    self._expand(a, u, mid, link)
        return len(self._expand_cache) - before

    # ------------------------------------------------------------------ #
    # serialisation (the compiled-map cache persists hierarchies as JSON)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-serialisable document; floats round-trip exactly."""
        a_col: List[int] = []
        b_col: List[int] = []
        w_col: List[float] = []
        tie_col: List[int] = []
        mid_col: List[int] = []
        link_col: List[int] = []
        for u, edges in enumerate(self.fwd_up):
            for w, tie, v, mid, link in edges:
                a_col.append(u)
                b_col.append(v)
                w_col.append(w)
                tie_col.append(tie)
                mid_col.append(mid)
                link_col.append(link)
        for v, edges in enumerate(self.bwd_up):
            for w, tie, u, mid, link in edges:
                a_col.append(u)
                b_col.append(v)
                w_col.append(w)
                tie_col.append(tie)
                mid_col.append(mid)
                link_col.append(link)
        return {
            "format": "repro-ch",
            "version": CH_FORMAT_VERSION,
            "weight": self.graph.weight,
            "node_ids": list(self.graph.node_ids),
            "rank": list(self.rank),
            "edges": {
                "a": a_col,
                "b": b_col,
                "w": w_col,
                "tie": tie_col,
                "mid": mid_col,
                "link": link_col,
            },
            "stats": {
                "nodes": self.graph.num_nodes(),
                "original_edges": self.graph.num_edges(),
                "shortcuts": self.num_shortcuts,
                "build_seconds": self.build_seconds,
            },
        }

    @classmethod
    def from_dict(cls, graph: RoutingGraph, data: dict) -> "ContractionHierarchy":
        """Rebuild a hierarchy persisted by :meth:`to_dict` over *graph*.

        Raises
        ------
        ValueError
            If the document is not a hierarchy, was written by another
            format version, or does not belong to *graph* (different
            weight kind or node set) — the caller then rebuilds.
        """
        if data.get("format") != "repro-ch":
            raise ValueError("not a repro contraction-hierarchy document")
        if data.get("version") != CH_FORMAT_VERSION:
            raise ValueError(
                f"unsupported hierarchy format version {data.get('version')!r}; "
                f"this build reads version {CH_FORMAT_VERSION}"
            )
        if data.get("weight") != graph.weight:
            raise ValueError(
                f"hierarchy was built for weight {data.get('weight')!r}, "
                f"not {graph.weight!r}"
            )
        if list(data.get("node_ids", ())) != graph.node_ids:
            raise ValueError("hierarchy does not match the graph's node set")
        if int(data.get("stats", {}).get("original_edges", -1)) != graph.num_edges():
            raise ValueError("hierarchy does not match the graph's edge count")
        ch = cls(graph)
        ch.rank = [int(r) for r in data["rank"]]
        if len(ch.rank) != graph.num_nodes():
            raise ValueError("hierarchy rank table does not match the graph")
        edges = data["edges"]
        rank = ch.rank
        link_info = graph.link_info
        n_shortcuts = 0
        for a, b, w, tie, mid, link in zip(
            edges["a"], edges["b"], edges["w"], edges["tie"], edges["mid"], edges["link"]
        ):
            a = int(a)
            b = int(b)
            entry = (float(w), int(tie), int(mid), int(link))
            if entry[2] >= 0:
                n_shortcuts += 1
            else:
                # An original edge: its weight, tie key and endpoints must
                # match the graph's link table bit for bit — a same-shaped
                # but different graph (or stale weights) is rejected here.
                info = link_info.get(entry[3])
                if info is None or info[0] != entry[0] or info[1] != entry[1]:
                    raise ValueError("hierarchy edge table does not match the graph")
            ch.edge_map[(a, b)] = (entry[2], entry[3])
            if rank[b] > rank[a]:
                ch.fwd_up[a].append((entry[0], entry[1], b, entry[2], entry[3]))
            else:
                ch.bwd_up[b].append((entry[0], entry[1], a, entry[2], entry[3]))
        ch.num_shortcuts = n_shortcuts
        stats = data.get("stats", {})
        ch.build_seconds = float(stats.get("build_seconds", 0.0))
        return ch


class _QueryScratch:
    """Reusable per-hierarchy scratch for the bidirectional query.

    Same run-id-stamped array technique as :class:`_WitnessScratch`: a
    query touches a few hundred nodes out of a million, so allocating
    dicts per query would dominate the sub-millisecond budget.
    """

    __slots__ = (
        "vis_f", "vis_b", "df_f", "df_b", "dt_f", "dt_b",
        "par_f", "par_b", "set_f", "set_b", "run",
    )

    def __init__(self, n: int):
        self.vis_f = [0] * n
        self.vis_b = [0] * n
        self.df_f = [0.0] * n
        self.df_b = [0.0] * n
        self.dt_f = [0] * n
        self.dt_b = [0] * n
        self.par_f: List[Optional[Tuple[int, int, int]]] = [None] * n
        self.par_b: List[Optional[Tuple[int, int, int]]] = [None] * n
        self.set_f = [0] * n
        self.set_b = [0] * n
        self.run = 0


class _WitnessScratch:
    """Reusable per-build scratch for witness searches.

    Preallocated arrays with a run-id stamp replace per-search dicts —
    the dominant cost of preprocessing in CPython is exactly these inner
    loops, and list indexing beats dict hashing by a wide margin.
    """

    __slots__ = ("visit", "distf", "distt", "settled", "run")

    def __init__(self, n: int):
        self.visit = [0] * n
        self.distf = [0.0] * n
        self.distt = [0] * n
        self.settled = [0] * n
        self.run = 0


def _witness_search(
    out: List[Dict[int, Tuple[float, int, int, int]]],
    source: int,
    excluded: int,
    targets: Dict[int, Tuple[float, int]],
    bound: float,
    settle_limit: int,
    scratch: _WitnessScratch,
) -> Dict[int, Tuple[float, int]]:
    """Local Dijkstra from *source* over the core, skipping *excluded*.

    Returns the settled composite distances of the target nodes; the
    search stops once every target is settled, the float distance exceeds
    *bound*, or *settle_limit* nodes were settled (whichever comes first).
    """
    run = scratch.run + 1
    scratch.run = run
    visit = scratch.visit
    distf = scratch.distf
    distt = scratch.distt
    settled = scratch.settled
    visit[source] = run
    distf[source] = 0.0
    distt[source] = 0
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    remaining = len(targets)
    budget = settle_limit
    found: Dict[int, Tuple[float, int]] = {}
    while heap and remaining and budget:
        df, dt, x = heappop(heap)
        if settled[x] == run:
            continue
        if df > bound:
            break
        settled[x] = run
        budget -= 1
        if x in targets:
            found[x] = (df, dt)
            remaining -= 1
        for y, e in out[x].items():
            if y == excluded or settled[y] == run:
                continue
            nf = df + e[0]
            if visit[y] == run:
                of = distf[y]
                if nf > of:
                    continue
                nt = dt + e[1]
                if nf == of and nt >= distt[y]:
                    continue
            else:
                nt = dt + e[1]
                visit[y] = run
            distf[y] = nf
            distt[y] = nt
            heappush(heap, (nf, nt, y))
    return found
