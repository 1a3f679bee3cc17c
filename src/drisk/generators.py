"""Graph constructions: standard families, exact subdivisions, the pendant
gadget, the random regular bucket sampler, and the subdivision-based
hardness gadget.

Everything here is deterministic; the only randomness is the seeded
shuffle inside bucket_model.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Tuple, Union

from .graph import INF, Graph, GraphError, _CycleSearch, distances_from, girth


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
    """Uniform simple graph with n vertices and m edges (seeded).  Edges
    are drawn as indices into the lexicographic list of pairs i < j, which
    is never built, so memory is O(n + m) however sparse the draw."""
    total = n * (n - 1) // 2 if n > 0 else 0
    if m > total:
        raise GraphError(f"m={m} exceeds the {total} available pairs")
    edges = []
    for index in random.Random(seed).sample(range(total), m):
        # counted from the last pair, the rows hold 1, 2, 3, ... pairs
        back = total - 1 - index
        t = (math.isqrt(8 * back + 1) - 1) // 2
        edges.append((n - 2 - t, n - 1 - back + t * (t + 1) // 2))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# exact subdivision


def _glue(edges: List[Tuple[int, int]], a: int, b: int, length: int, nxt: int) -> int:
    """Append a path of `length` edges from a to b through the new
    vertices nxt, nxt+1, ... to edges; returns the next free id, which
    is b itself when b is the vertex right after the new ones."""
    path = [a, *range(nxt, nxt + length - 1), b]
    edges.extend(zip(path, path[1:]))
    return nxt + length - 1


def exact_subdivision(g: Graph, r: int) -> Graph:
    """Replace every edge by a path of exactly r edges.

    Original vertices keep their ids; the i-th edge contributes the chain
    n + i*(r-1) .. n + i*(r-1) + r-2.  Distances between original
    vertices scale by exactly r.
    """
    if r < 1:
        raise GraphError("subdivision radius must be >= 1")
    edges: List[Tuple[int, int]] = []
    nxt = g.n
    for u, v in g.edges:
        nxt = _glue(edges, u, v, r, nxt)
    return Graph(nxt, edges)


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
    sub = exact_subdivision(g, r)
    subdiv = tuple(subdivision_vertex_range(g, r))
    edges = list(sub.edges)
    x = sub.n
    nxt = x + 1
    for w in subdiv:
        nxt = _glue(edges, x, w, r, nxt)
    y = _glue(edges, x, nxt + r - 1, r, nxt)
    return PendantGraph(Graph(y + 1, edges), x, y, r, subdiv)


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
        ends = Counter(chain.from_iterable(self.g0))  # a loop adds 2
        if {ends[v] for v in range(self.n)} - {self.d}:
            raise GraphError("bucket sample: g0 is not d-regular")
        if girth(self.g, cap=self.d) != INF:
            raise GraphError("bucket sample: short cycle survived trimming")
        if max(map(len, self.g.adjacency), default=0) > self.d:
            raise GraphError("bucket sample: degree bound violated")


def trim_short_cycles(n: int, pairs: Iterable[Tuple[int, int]], d: int) -> Tuple[Graph, int]:
    """Delete one edge from every cycle of length <= d of the multigraph
    on n vertices with the given (u, v) pairs until none remains; returns
    the simple graph left and the number of edges removed.

    Loops are 1-cycles and repeated pairs 2-cycles.  Repeated pairs always
    merge into one edge, since a Graph is simple, and every loop and every
    extra copy counts as removed, so removed == len(pairs) - g.m for any
    d.  Among the edges of a found cycle of length >= 3, the
    lexicographically smallest is removed.  Edge removal never creates
    cycles, so a single pass over root vertices with a local fixpoint at
    each reaches the global fixpoint.  The search visits neighbours in the
    order the pairs first list them.

    Each root's loop searches only the root and the vertices above it, and
    removes what a whole-graph search would (graph._CycleSearch).  A
    closed walk of length <= d from r there that holds a cycle leaves r
    and returns over neighbours above r: two when d <= 4, where it is a
    cycle through r, and one when d >= 5, where it may go out, round a
    cycle of length <= d - 2 through that neighbour, and back.  A root
    with fewer neighbours above it is not searched.
    """
    if d < 1:
        raise GraphError("trim threshold must be >= 1")
    norm = []
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"pair ({u},{v}) out of range for n={n}")
        norm.append((u, v) if u <= v else (v, u))
    simple = [(u, v) for u, v in dict.fromkeys(norm) if u != v]
    removed = len(norm) - len(simple)
    adj: List[List[int]] = [[] for _ in range(n)]
    above = [0] * n  # neighbours above each vertex, kept through removals
    for u, v in simple:
        adj[u].append(v)
        adj[v].append(u)
        above[u] += 1
    if d >= 3:
        need = 2 if d <= 4 else 1
        search = _CycleSearch(adj)
        for root in range(n):
            if above[root] < need:
                continue
            while (found := search.at(root, d)) is not None:
                eu, ev = min((min(a, b), max(a, b))
                             for a, b in search.cycle_edges(found[1], found[2]))
                adj[eu].remove(ev)
                adj[ev].remove(eu)
                above[eu] -= 1
                removed += 1
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph(n, edges), removed


def bucket_model(n: int, d: int, seed: int) -> BucketModelSample:
    """Sample the bucket model: d*n points in n buckets of d, a uniform
    perfect matching on the points (Fisher-Yates shuffle, consecutive
    pairing), buckets collapsed to single vertices, then every cycle of
    length <= d trimmed.

    The shuffle is random.Random(seed).shuffle's, drawn from getrandbits
    as it draws (for i from d*n - 1 down to 1, k-bit values with
    k = (i + 1).bit_length() until one is <= i, then swap), so the sample
    depends only on the seeded Mersenne Twister stream.  It permutes the
    points' buckets directly, which moves the same positions as permuting
    the points and collapsing afterwards.
    """
    if n < 2 or n % 2:
        raise GraphError("bucket model needs an even n >= 2")
    if d < 1:
        raise GraphError("bucket model needs d >= 1")
    getrandbits = random.Random(seed).getrandbits
    ends = [p // d for p in range(d * n)]
    for i in reversed(range(1, d * n)):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        ends[i], ends[j] = ends[j], ends[i]
    g0 = tuple(sorted([(u, v) if u <= v else (v, u) for u, v in zip(ends[::2], ends[1::2])]))
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


def _family(kind: str, params: dict) -> Union[Graph, BucketModelSample]:
    """What a family of FAMILIES builds from a dict of its parameters: its
    graph, or for bucket the sample, whose trimmed graph is .g; `gen`
    builds by name through it.  Private, and the builder is looked up
    when called, so a profiler that rebinds the builders gives each its
    own span."""
    name, names = FAMILIES[kind]
    return globals()[name](*(params[p] for p in names))


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
    sub3 = exact_subdivision(g, 3)
    subdiv = tuple(subdivision_vertex_range(g, 3))
    edges = list(sub3.edges)
    x = sub3.n
    nxt = x + 1
    for w in subdiv:
        nxt = _glue(edges, x, w, 2, nxt)
    y = _glue(edges, x, nxt + 2, 3, nxt)
    h = exact_subdivision(Graph(y + 1, edges), r)
    return HardnessInstance(h, x, y, r, tuple(range(g.n)))
