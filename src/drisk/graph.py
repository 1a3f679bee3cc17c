"""Immutable undirected graphs plus the BFS-based distance queries every
other module is built on.

Vertices are always 0..n-1.  Graphs are simple: loops and parallel edges
are rejected.
"""

from __future__ import annotations

import math
import operator
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple

INF = math.inf


class GraphError(ValueError):
    """Malformed graph data or out-of-range vertex ids."""


class Graph:
    """Simple undirected graph with a tuple-of-tuples adjacency view.
    Instances never mutate after construction."""

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            norm.append((u, v) if u <= v else (v, u))
        if any(u == v for u, v in norm):
            raise GraphError("loops are not allowed")
        norm.sort()
        # Sorted, so a repeated pair sits next to its twin.
        if any(map(operator.eq, norm, norm[1:])):
            raise GraphError("parallel edges are not allowed")
        # From the sorted edges each vertex meets its smaller neighbours,
        # ascending, before its larger ones, so every list comes out sorted.
        adj = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(norm)
        self.adjacency = tuple(map(tuple, adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        # O(deg u).  Out-of-range ids are simply absent, as they are
        # from the edge list.
        return 0 <= u < self.n and v in self.adjacency[u]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def vset(ids: Iterable[int], g: Optional[Graph] = None) -> Tuple[int, ...]:
    """Normalize an id collection to a sorted duplicate-free tuple.

    When a graph is supplied, ids are range-checked against it.
    """
    out = tuple(sorted(set(ids)))
    if g is not None and out and not (0 <= out[0] and out[-1] < g.n):
        raise GraphError(f"vertex set {out[:4]}... out of range for n={g.n}")
    return out


def distances_from(g: Graph, source: int, cutoff: Optional[int] = None) -> Dict[int, int]:
    """BFS distances from source; vertices beyond cutoff are omitted."""
    return multi_source_distances(g, (source,), cutoff)


def multi_source_distances(
    g: Graph,
    sources: Iterable[int],
    cutoff: Optional[int] = None,
    blocked: Optional[Iterable[int]] = None,
    stop: Container[int] = (),
) -> Dict[int, int]:
    """BFS distances to the nearest of several sources.

    With blocked, distances are taken in g minus those vertices, as in
    the induced subgraph on the rest: blocked sources are dropped and no
    path enters a blocked vertex.  Vertices in stop are reached and
    recorded but never expanded, so every recorded path keeps its
    interior off stop; sources are always expanded.
    """
    adj = g.adjacency
    # Blocked vertices are marked as seen, so the search never enters
    # them, and dropped from the result at the end.
    dist = {} if blocked is None else dict.fromkeys(blocked, -1)
    hidden = tuple(dist)
    frontier = []
    for s in sources:
        if s not in dist:
            dist[s] = 0
            frontier.append(s)
    d = 0
    while frontier and (cutoff is None or d < cutoff):
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    if w not in stop:
                        nxt.append(w)
        frontier = nxt
    for v in hidden:
        del dist[v]
    return dist


def _descend(
    g: Graph, dist: Dict[int, int], start: int, stop: Container[int] = ()
) -> List[int]:
    """Path from start down the levels of dist to a level-0 vertex, each
    step taking the smallest-id neighbour one level lower.  A path that
    reaches a vertex of stop ends there."""
    adj = g.adjacency
    path = [start]
    level = dist[start]
    while level and start not in stop:
        level -= 1
        # adjacency lists are sorted, so the first match has the smallest id
        start = next(w for w in adj[start] if dist.get(w) == level)
        path.append(start)
    return path


def ball(g: Graph, center: int, r: int) -> Tuple[int, ...]:
    """Sorted closed ball: every vertex within distance <= r of center."""
    if r < 0:
        raise GraphError("ball radius must be >= 0")
    return tuple(sorted(multi_source_distances(g, (center,), r)))


def ball_traces(g: Graph, members: Sequence[int], r: int) -> List[int]:
    """The radius-r balls of g traced on a fixed member list, as bitmasks:
    bit i of masks[v] is set iff members[i] is within distance r of v.
    One BFS per member."""
    masks = [0] * g.n
    for i, u in enumerate(members):
        bit = 1 << i
        for v in multi_source_distances(g, (u,), r):
            masks[v] |= bit
    return masks


def induced_subgraph(g: Graph, s: Iterable[int]) -> Tuple[Graph, Dict[int, int]]:
    """Induced subgraph on s plus the id map old -> new.

    New ids follow the sorted order of s, so results are reproducible.
    """
    keep = vset(s, g)
    idmap = {v: i for i, v in enumerate(keep)}
    edges = [(idmap[u], idmap[v]) for u, v in g.edges if u in idmap and v in idmap]
    return Graph(len(keep), edges), idmap


def is_distance_independent(
    g: Graph, s: Iterable[int], r: int, blocked: Optional[Iterable[int]] = None
) -> bool:
    """True iff the members of s are pairwise more than r apart in g, or
    in g minus the blocked vertices when those are given."""
    members = vset(s, g)
    mem = set(members)
    hidden = set(blocked) if blocked is not None else None
    # a member's own search holds the member itself unless it is blocked
    return all(
        len(mem.intersection(multi_source_distances(g, (u,), r, hidden))) <= 1
        for u in members
    )


def is_distance_dominating(g: Graph, d: Iterable[int], a: Iterable[int], r: int) -> bool:
    """True iff every vertex of a is within distance r of some vertex of d."""
    reach = multi_source_distances(g, vset(d, g), r)
    return all(v in reach for v in vset(a, g))


def girth(g: Graph, cap: Optional[int] = None):
    """Length of a shortest cycle, or math.inf if there is none.

    With cap set, the search is truncated: the exact girth is returned when
    it is <= cap, math.inf otherwise.  Each root searches only the
    vertices above it (_CycleSearch).
    """
    best = INF
    limit = cap if cap is not None else g.n  # no simple cycle exceeds n
    search = _CycleSearch(g.adjacency)
    for root, nbrs in enumerate(g.adjacency):
        bound = limit if best == INF else min(best - 1, limit)
        if bound < 3:  # a simple graph has no shorter cycle
            break
        # a cycle's smallest vertex has two larger cycle neighbours
        # (adjacency lists are sorted)
        if len(nbrs) < 2 or nbrs[-2] < root:
            continue
        if (found := search.at(root, bound)) is not None:
            best = found[0]
    return best


class _CycleSearch:
    """Itai and Rodeh's per-root BFS for short cycles, confined to the root
    and the vertices above it, on mark and parent arrays allocated once: a
    search stamps what it reaches with base + depth, above every earlier
    stamp, so nothing is cleared between roots.  adj is any per-vertex
    neighbour view of a simple graph on len(adj) vertices; it may change
    between searches, and each BFS tree follows its iteration order.

    A BFS finds a cycle exactly when a closed walk of length <= bound from
    its root holds one.  girth needs no more, as a shortest cycle is found
    from its smallest vertex, nor does trim_short_cycles, which takes the
    roots upwards, each to its fixpoint: at r, removals keep every lower
    root there, so no such walk from r passes a lower vertex x (rotated, it
    would be one from x).  Two paths of length <= bound // 2 from r to one
    vertex make such a walk, as does a candidate; so a whole-graph BFS from
    r reaches these vertices over the same levels and parents, and returns
    the same (length, u, w) and cycle_edges."""

    __slots__ = ("adj", "mark", "parent", "top")

    def __init__(self, adj):
        self.adj = adj
        self.mark = [-1] * len(adj)
        self.parent = [0] * len(adj)
        self.top = -1  # the highest stamp written so far

    def at(self, root: int, bound: int):
        """Smallest (length, u, w) over the non-tree edges u < w seen by
        the BFS from root to depth bound // 2, where length = dist[u] +
        dist[w] + 1 <= bound; None if there is none.

        Non-tree edges are recorded while a level is expanded, and the
        lengths they give grow with the level.  So the search stops after
        the first level that gives one: that level holds every candidate
        of the least length, and the tree above it is final."""
        adj, mark, parent = self.adj, self.mark, self.parent
        cap = bound // 2
        base = self.top + 1
        self.top = base + cap
        mark[root] = base
        parent[root] = -1
        frontier = [root]
        best = None
        depth = 0
        while frontier and depth < cap:
            depth += 1
            stamp = base + depth
            off = base - depth  # a seen w closes a cycle of mark[w] - off
            # the last level is only listed if its inner edges are short enough
            listing = depth < cap or bound % 2
            nxt = []
            for u in frontier:
                pu = parent[u]
                for w in adj[u]:
                    mw = mark[w]
                    if mw < base:
                        if w > root:
                            mark[w] = stamp
                            parent[w] = u
                            if listing:
                                nxt.append(w)
                    elif w != pu:  # u is on level depth - 1
                        key = (mw - off, u, w) if u < w else (mw - off, w, u)
                        if best is None or key < best:
                            best = key
            if best is not None:
                return best
            frontier = nxt
        if 2 * depth + 1 <= bound:  # the edges inside the last level
            stamp = base + depth
            for u in frontier:
                for w in adj[u]:
                    if w > u and mark[w] == stamp:
                        key = (2 * depth + 1, u, w)
                        if best is None or key < best:
                            best = key
        return best

    def cycle_edges(self, u: int, w: int) -> List[Tuple[int, int]]:
        """Edges of the cycle that the non-tree edge (u, w) of the last
        search closes: (u, w) and the tree paths from u and from w up to
        their lowest common ancestor."""
        mark, parent = self.mark, self.parent
        edges = [(u, w)]
        while u != w:
            if mark[u] < mark[w]:
                u, w = w, u
            edges.append((parent[u], u))
            u = parent[u]
        return edges
