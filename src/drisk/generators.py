"""Graph constructions: standard families, exact subdivisions, the pendant
gadget, the random regular bucket sampler, and the subdivision-based
hardness gadget.

Everything here is deterministic; the only randomness is the seeded
shuffle inside bucket_model.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .graph import INF, Graph, GraphError, _shortest_cycle_at, distances_from, girth


# ---------------------------------------------------------------------------
# standard families


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices, ids in path order."""
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (i,j) has id i*cols + j."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs rows, cols >= 1")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    if leaves < 1:
        raise GraphError("star needs >= 1 leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gnm_random(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with n vertices and m edges (seeded)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if m > len(pairs):
        raise GraphError(f"m={m} exceeds the {len(pairs)} available pairs")
    rng = random.Random(seed)
    return Graph(n, rng.sample(pairs, m))


# ---------------------------------------------------------------------------
# exact subdivision


def exact_subdivision(g: Graph, r: int) -> Tuple[Graph, Dict[int, int]]:
    """Replace every edge by a path of exactly r edges.

    Original vertices keep their ids; the i-th edge contributes the chain
    n + i*(r-1) .. n + i*(r-1) + r-2.  Returns the new graph and the origin
    map (original id -> id in the subdivision, here the identity).
    Distances between original vertices scale by exactly r.
    """
    if r < 1:
        raise GraphError("subdivision radius must be >= 1")
    origin = {v: v for v in range(g.n)}
    if r == 1:
        return Graph(g.n, g.edges), origin
    edges: List[Tuple[int, int]] = []
    nxt = g.n
    for u, v in g.edges:
        chain = [u] + list(range(nxt, nxt + r - 1)) + [v]
        nxt += r - 1
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges), origin


def subdivision_vertex_range(g: Graph, r: int) -> range:
    """Ids of the vertices exact_subdivision(g, r) adds."""
    return range(g.n, g.n + (r - 1) * g.m)


# ---------------------------------------------------------------------------
# pendant construction


@dataclass(frozen=True)
class PendantGraph:
    """Exact r-subdivision of a base graph with an apex x joined to every
    subdivision vertex by a private path of length r, plus a pendant path
    of length r from x to y."""

    graph: Graph
    origin: Dict[int, int]
    x: int
    y: int
    r: int
    subdivision_vertices: Tuple[int, ...]

    def __post_init__(self):
        dist = distances_from(self.graph, self.x)
        if dist.get(self.y) != self.r:
            raise GraphError("pendant gadget: x-y distance is not r")
        for w in self.subdivision_vertices:
            if dist.get(w) != self.r:
                raise GraphError("pendant gadget: subdivision vertex not at distance r from x")


def pendant_construction(g: Graph, r: int) -> PendantGraph:
    """Build the pendant gadget over the exact r-subdivision of g.

    Requires r >= 2: with r = 1 there are no subdivision vertices to hang
    the apex from and the construction degenerates.
    """
    if r < 2:
        raise GraphError("pendant construction requires r >= 2")
    sub, origin = exact_subdivision(g, r)
    subdiv = tuple(subdivision_vertex_range(g, r))
    edges = list(sub.edges)
    x = sub.n
    nxt = x + 1
    for w in subdiv:
        chain = [x] + list(range(nxt, nxt + r - 1)) + [w]
        nxt += r - 1
        edges.extend(zip(chain, chain[1:]))
    y = nxt + r - 1
    chain = [x] + list(range(nxt, nxt + r - 1)) + [y]
    edges.extend(zip(chain, chain[1:]))
    return PendantGraph(Graph(y + 1, edges), origin, x, y, r, subdiv)


# ---------------------------------------------------------------------------
# random regular multigraph with short cycles trimmed


@dataclass(frozen=True)
class BucketModelSample:
    """Seeded draw of the bucket model: g0 is the raw d-regular collapse of
    a uniform perfect matching on d*n points, as its sorted (u, v) pairs
    with u <= v (a multigraph: loops and repeated pairs included), and g
    the trimmed graph."""

    g0: Tuple[Tuple[int, int], ...]
    g: Graph
    n: int
    d: int
    seed: int
    removed_edges: int

    def __post_init__(self):
        if len(self.g0) != self.d * self.n // 2:
            raise GraphError("bucket sample: wrong edge count in g0")
        ends = Counter(v for pair in self.g0 for v in pair)  # a loop adds 2
        if any(ends[v] != self.d for v in range(self.n)):
            raise GraphError("bucket sample: g0 is not d-regular")
        if girth(self.g, cap=self.d) != INF:
            raise GraphError("bucket sample: short cycle survived trimming")
        if any(self.g.degree(v) > self.d for v in range(self.n)):
            raise GraphError("bucket sample: degree bound violated")


def _bfs_short_cycle(adj: List[Dict[int, int]], root: int, d: int):
    """Shortest cycle of length <= d visible from a BFS at root, as a vertex
    sequence, or None.  adj is a mutable neighbor->multiplicity view of a
    simple graph."""
    best, dist, parent = _shortest_cycle_at(adj, root, d)
    if best is None:
        return None
    _, u, w = best
    # walk both endpoints up to their lowest common ancestor
    up, wp = [u], [w]
    a, b = u, w
    while dist[a] > dist[b]:
        a = parent[a]
        up.append(a)
    while dist[b] > dist[a]:
        b = parent[b]
        wp.append(b)
    while a != b:
        a = parent[a]
        up.append(a)
        b = parent[b]
        wp.append(b)
    cycle = up + wp[-2::-1]  # u .. lca .. w, closed by the edge (w, u)
    return cycle


def trim_short_cycles(n: int, pairs: Iterable[Tuple[int, int]], d: int) -> Tuple[Graph, int]:
    """Delete one edge from every cycle of length <= d of the multigraph
    on n vertices with the given (u, v) pairs until none remains; returns
    the simple graph left and the number of edges removed.

    Loops are 1-cycles and repeated pairs 2-cycles.  Among the edges of a
    found cycle, the lexicographically smallest is removed.  Edge removal
    never creates cycles, so a single pass over root vertices with a local
    fixpoint at each reaches the global fixpoint.  The search visits
    neighbours in the order the pairs first list them.
    """
    if d < 1:
        raise GraphError("trim threshold must be >= 1")
    adj: List[Dict[int, int]] = [dict() for _ in range(n)]
    removed = 0
    for u, v in pairs:
        if u == v:
            removed += 1  # every loop is a 1-cycle
            continue
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    if d >= 2:
        for u in range(n):
            for v, mult in list(adj[u].items()):
                if v > u and mult > 1:
                    removed += mult - 1
                    adj[u][v] = adj[v][u] = 1
    if d >= 3:
        for root in range(n):
            while True:
                cycle = _bfs_short_cycle(adj, root, d)
                if cycle is None:
                    break
                closed = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
                eu, ev = min((min(a, b), max(a, b)) for a, b in closed)
                del adj[eu][ev]
                del adj[ev][eu]
                removed += 1
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph(n, edges), removed


def bucket_model(n: int, d: int, seed: int) -> BucketModelSample:
    """Sample the bucket model: d*n points in n buckets of d, a uniform
    perfect matching on the points (Fisher-Yates shuffle, consecutive
    pairing), buckets collapsed to single vertices, then every cycle of
    length <= d trimmed.
    """
    if n < 2 or n % 2:
        raise GraphError("bucket model needs an even n >= 2")
    if d < 1:
        raise GraphError("bucket model needs d >= 1")
    rng = random.Random(seed)
    points = list(range(d * n))
    rng.shuffle(points)
    ends = [p // d for p in points]
    g0 = tuple(sorted((min(u, v), max(u, v)) for u, v in zip(ends[::2], ends[1::2])))
    g, removed = trim_short_cycles(n, g0, d)
    return BucketModelSample(g0, g, n, d, seed, removed)


# ---------------------------------------------------------------------------
# families by name


# name -> (builder's name in this module, the names of its parameters in
# order); a missing "seed" is 0, every other parameter is required
FAMILIES = {
    "path": ("path_graph", ("n",)),
    "cycle": ("cycle_graph", ("n",)),
    "grid": ("grid_graph", ("rows", "cols")),
    "star": ("star_graph", ("leaves",)),
    "complete": ("complete_graph", ("n",)),
    "gnm": ("gnm_random", ("n", "m", "seed")),
    "bucket": ("bucket_model", ("n", "d", "seed")),
}


def _family(kind, params: dict) -> Graph:
    """The graph of a family of FAMILIES (bucket: its sample's trimmed
    graph) from a dict of its parameters; `gen` and `bench` build by name
    through it.  Private, and the builder is looked up when called, so a
    profiler that rebinds the builders gives each its own span."""
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise GraphError(f"unknown family kind {kind!r}")
    name, names = FAMILIES[kind]
    built = globals()[name](
        *(params.get(p, 0) if p == "seed" else params[p] for p in names))
    return built.g if kind == "bucket" else built


# ---------------------------------------------------------------------------
# hardness gadget


@dataclass(frozen=True)
class HardnessInstance:
    """Exact r-subdivision of the 3-subdivision-plus-apex gadget.

    o_set holds the images of the base graph's vertices; distances inside
    o_set scale so that base adjacency becomes the only way to be closer
    than 6r.
    """

    graph: Graph
    origin: Dict[int, int]
    x: int
    y: int
    r: int
    o_set: Tuple[int, ...]

    def __post_init__(self):
        dist = distances_from(self.graph, self.x)
        if dist.get(self.y) != 3 * self.r:
            raise GraphError("hardness gadget: x-y distance is not 3r")


def hardness_reduction(g: Graph, r: int) -> HardnessInstance:
    """Subdivide every edge of g three times, join an apex x to each
    subdivision vertex by a path of length 2 and a pendant y to x by a path
    of length 3, then take the exact r-subdivision of the whole gadget."""
    if r < 1:
        raise GraphError("hardness reduction requires r >= 1")
    sub3, _ = exact_subdivision(g, 3)
    subdiv = tuple(subdivision_vertex_range(g, 3))
    edges = list(sub3.edges)
    x = sub3.n
    nxt = x + 1
    for w in subdiv:
        edges.append((x, nxt))
        edges.append((nxt, w))
        nxt += 1
    y = nxt + 2
    edges.extend([(x, nxt), (nxt, nxt + 1), (nxt + 1, y)])
    j = Graph(y + 1, edges)
    h, origin = exact_subdivision(j, r)
    return HardnessInstance(h, {v: v for v in range(g.n)}, x, y, r, tuple(range(g.n)))
