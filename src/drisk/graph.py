"""Immutable undirected graphs plus the BFS-based distance queries every
other module is built on.

Vertices are always 0..n-1.  Graphs are simple: loops and parallel edges
are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container, Dict, Iterable, List, Optional, Tuple

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
        if len(set(norm)) != len(norm):
            raise GraphError("parallel edges are not allowed")
        adj = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(sorted(norm))
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)

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


@dataclass(frozen=True)
class AnnotatedInstance:
    """A graph together with a candidate set A, radius r and target k."""

    graph: Graph
    a_set: Tuple[int, ...]
    r: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "a_set", vset(self.a_set, self.graph))
        if self.r < 1:
            raise GraphError("radius must be >= 1")
        if self.k < 1:
            raise GraphError("target k must be >= 1")


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


def _descend(g: Graph, dist: Dict[int, int], start: int) -> List[int]:
    """Path from start down the levels of dist to a level-0 vertex, each
    step taking the smallest-id neighbour one level lower."""
    adj = g.adjacency
    path = [start]
    level = dist[start]
    while level:
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
    dom = vset(d, g)
    targets = vset(a, g)
    if not targets:
        return True
    if not dom:
        return False
    reach = multi_source_distances(g, dom, r)
    return all(v in reach for v in targets)


def girth(g: Graph, cap: Optional[int] = None):
    """Length of a shortest cycle, or math.inf if there is none.

    With cap set, the search is truncated: the exact girth is returned when
    it is <= cap, math.inf otherwise.
    """
    best = INF
    limit = cap if cap is not None else g.n  # no simple cycle exceeds n
    adj = g.adjacency
    for root in range(g.n):
        if not adj[root]:
            continue
        bound = min(best - 1, limit) if best != INF else limit
        found, _, _ = _shortest_cycle_at(adj, root, bound)
        if found is not None:
            best = found[0]
    return best


def _shortest_cycle_at(adj, root: int, bound: int):
    """Smallest (length, u, w) over the non-tree edges u < w seen by a
    BFS from root to depth bound // 2, where length = dist[u] + dist[w]
    + 1 <= bound, or None; returned with the BFS tree as (best, dist,
    parent).  adj is any per-vertex neighbour view of a simple graph;
    the BFS tree follows its iteration order."""
    depth_cap = bound // 2
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    d = 0
    while frontier and d < depth_cap:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    best = None
    for u, du in dist.items():
        for w in adj[u]:
            if w <= u:
                continue
            dw = dist.get(w)
            if dw is None or parent[u] == w or parent[w] == u:
                continue
            cand = du + dw + 1
            if cand <= bound and (best is None or (cand, u, w) < best):
                best = (cand, u, w)
    return best, dist, parent
