"""Profile-class partitions and the two closure procedures: one that
grows a set until every outside vertex projects onto few members, and
one that grows a set until it preserves all short internal distances.

The projection of u onto a boundary set is the set of boundary vertices
reachable from u by paths of length <= r whose interior stays off the
boundary; u's profile records the shortest such length per boundary
vertex it reaches.  A profile is keyed by its sorted (vertex, length)
pairs, so two keys are equal exactly when the profiles are.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from .graph import (
    Graph,
    GraphError,
    _descend,
    distances_from,
    induced_subgraph,
    vset,
)


ProfileKey = Tuple[Tuple[int, int], ...]
Adjacency = Tuple[Tuple[int, ...], ...]


def _stop_search(
    adj: Adjacency, src: int, r: int, inside: List[bool], mark: List[int], stamp: int
) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """The stop search from src at radius r, as (levels, hits): levels[0]
    is [src], levels[d] lists the unflagged vertices first reached after
    d steps, and hits holds (v, d) for each vertex v flagged in inside
    that is first reached after d steps.  Flagged vertices are never
    expanded; src always is.

    The mark list, stamped with stamp on every vertex reached, stands in
    for a per-search seen set, so one list serves all of a caller's
    searches as long as each search has its own stamp.
    """
    mark[src] = stamp
    frontier = [src]
    levels = [frontier]
    hits = []
    for d in range(1, r + 1):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if mark[w] != stamp:
                    mark[w] = stamp
                    if inside[w]:
                        hits.append((w, d))
                    else:
                        nxt.append(w)
        if not nxt:
            break
        levels.append(nxt)
        frontier = nxt
    return levels, hits


def _count_inside(
    adj: Adjacency, src: int, r: int, inside: List[bool], mark: List[int], stamp: int
) -> int:
    """len(_stop_search(...)[1]), with nothing listed: the size of src's
    projection onto the flagged vertices.  Most of the closure's searches
    are recounts that need only this number."""
    mark[src] = stamp
    frontier = [src]
    hits = 0
    for _ in range(r):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if mark[w] != stamp:
                    mark[w] = stamp
                    if inside[w]:
                        hits += 1
                    else:
                        nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return hits


def _boundary_keys(
    g: Graph, cands: Iterable[int], bound: Sequence[int], r: int,
    inside: List[bool], mark: List[int],
) -> Dict[int, ProfileKey]:
    """The profile key on the sorted boundary bound, flagged in inside,
    of each candidate.

    A path whose interior avoids the boundary reads the same from either
    end, so a key entry is the candidate's distance in the stop search
    from that boundary vertex: one search per boundary vertex, however
    many candidates there are, each stamped on mark with its own id.
    Read in boundary order, the entries are sorted.
    """
    if r < 0:
        raise GraphError("radius must be >= 0")
    adj = g.adjacency
    pairs: Dict[int, List[Tuple[int, int]]] = {u: [] for u in cands}
    for b in bound:
        # level 0 holds only b, which is no candidate
        for d, level in enumerate(_stop_search(adj, b, r, inside, mark, b)[0]):
            for u in level:
                if u in pairs:
                    pairs[u].append((b, d))
    return {u: tuple(p) for u, p in pairs.items()}


def _flags(n: int, vs: Iterable[int]) -> List[bool]:
    """inside[v] is True exactly for the v in vs."""
    inside = [False] * n
    for v in vs:
        inside[v] = True
    return inside


def profile_classes(
    g: Graph, candidates: Iterable[int], boundary: Iterable[int], r: int
) -> Tuple[Tuple[int, ...], ...]:
    """Partition of the candidates into classes of equal profiles on the
    boundary, largest class first (ties by members)."""
    cands = vset(candidates, g)
    bound = vset(boundary, g)
    if set(cands) & set(bound):
        raise GraphError("candidates may not meet the boundary")
    keys = _boundary_keys(g, cands, bound, r, _flags(g.n, bound), [-1] * g.n)
    return _profile_groups(cands, keys)


def _profile_groups(
    cands: Iterable[int], keys: Mapping[int, ProfileKey]
) -> Tuple[Tuple[int, ...], ...]:
    """The candidates grouped by their keys, largest class first (ties
    by members)."""
    groups: Dict[ProfileKey, List[int]] = {}
    for u in cands:
        groups.setdefault(keys[u], []).append(u)
    classes = [tuple(sorted(vs)) for vs in groups.values()]
    classes.sort(key=lambda c: (-len(c), c))
    return tuple(classes)


@dataclass(frozen=True)
class ClosureResult:
    closed_set: Tuple[int, ...]
    max_projection: int
    iterations: int
    target: int
    # g, the radius and closed_set fix it, so results compare without it
    projections: Mapping[int, ProfileKey] = field(default_factory=dict, compare=False)


def closure(g: Graph, x: Iterable[int], r: int, target: int) -> ClosureResult:
    """Grow x until every outside vertex projects onto at most target
    members of the grown set, by repeatedly absorbing the outside vertex
    with the largest projection (smallest id on ties).  The fixpoint is
    reached after at most n additions.

    The result reads only g, set(x), r and target, so a caller that
    meets the same inputs again may keep the last result instead of
    calling again.  The pick comes off a heap of (-size, vertex) whose
    entries go stale when a size changes or the vertex is absorbed;
    stale ones are skipped, so the pick is the same as a scan's.

    Every search runs on one mark list and one list of closed flags,
    allocated once per call; each search stamps what it reaches with a
    stamp of its own, so nothing is cleared between searches and none
    builds a dict.  The first keys come from one search per vertex of x.
    Absorbing best runs one search that lists the outside vertices it
    reaches.  By symmetry, only those can gain best or lose a member
    reached through it, so each of them is recounted by a search that
    counts the closed vertices it reaches, and every size stays exact.

    projections maps each outside vertex to its profile key on the grown
    set.  A key changes only when its vertex is touched, so an untouched
    vertex keeps its first key, and each touched one is searched once
    more, on the final closed set.
    """
    if target < 1:
        raise GraphError("projection target must be >= 1")
    members = vset(x, g)
    adj = g.adjacency
    inside = _flags(g.n, members)
    mark = [-1] * g.n
    keys = _boundary_keys(g, [u for u in range(g.n) if not inside[u]], members, r, inside, mark)
    sizes = [-1] * g.n  # -1 on closed vertices, which no heap entry matches
    for u, key in keys.items():
        sizes[u] = len(key)
    heap = [(-s, u) for u, s in enumerate(sizes) if s >= 0]
    heapq.heapify(heap)
    stamps = itertools.count(g.n)  # the first searches took the ids of x
    touched: Set[int] = set()
    additions = 0
    while True:
        while heap and sizes[heap[0][1]] != -heap[0][0]:
            heapq.heappop(heap)
        mx = -heap[0][0] if heap else 0
        if mx <= target:
            break
        best = heapq.heappop(heap)[1]
        levels = _stop_search(adj, best, r, inside, mark, next(stamps))[0]
        inside[best] = True
        sizes[best] = -1
        del keys[best]
        for level in levels[1:]:
            touched.update(level)
            for u in level:
                new = _count_inside(adj, u, r, inside, mark, next(stamps))
                if new != sizes[u]:
                    sizes[u] = new
                    heapq.heappush(heap, (-new, u))
        additions += 1
    for u in touched:
        if not inside[u]:
            keys[u] = tuple(sorted(_stop_search(adj, u, r, inside, mark, next(stamps))[1]))
    closed = tuple([v for v in range(g.n) if inside[v]])
    return ClosureResult(closed, mx, additions, target, keys)


def path_closure(g: Graph, x: Iterable[int], r: int) -> Tuple[int, ...]:
    """Superset of x in which every pair of x at distance <= r keeps its
    exact distance inside the induced subgraph.

    One shortest path per qualifying pair is added, walked greedily
    along BFS levels with smallest-id steps.  The distance-preservation
    property is re-verified on the result before returning.

    Each member's partners come from its own ball, since distance is
    symmetric.  A walk toward v steps from each vertex the same way
    whichever pair it serves, so it stops at the first vertex an
    earlier walk toward v has passed: the rest of the path is grown
    already, and the grown set is that of walking every path in full.
    Once the grown set holds every vertex no walk can add one, so the
    walks stop, and the check reads g itself, which is g[V]; when x is
    all of V that holds from the start.  In g a member's search is the
    one made above, so the check reads it again and compares each pair's
    two searches, one from each end.
    """
    if r < 0:
        raise GraphError("radius must be >= 0")
    members = vset(x, g)
    mset = set(members)
    grown = set(members)
    dists = {v: distances_from(g, v, r) for v in members}
    walked: Dict[int, Set[int]] = {v: set() for v in members}
    partners: Dict[int, List[int]] = {}
    for u in members:
        vs = sorted(v for v in dists[u] if v > u and v in mset)
        if vs:
            partners[u] = vs
        if len(grown) == g.n:
            continue
        for v in vs:
            path = _descend(g, dists[v], u, walked[v])
            walked[v].update(path)
            grown.update(path)
    closed = tuple(sorted(grown))
    # the identity range is g's id map onto itself
    sub, idmap = (g, range(g.n)) if len(closed) == g.n else induced_subgraph(g, closed)
    for u, vs in partners.items():
        inside = dists[u] if sub is g else distances_from(sub, idmap[u], r)
        for v in vs:
            if inside.get(idmap[v]) != dists[v][u]:
                raise RuntimeError(
                    "internal: induced distance not preserved by path closure"
                )
    return closed
