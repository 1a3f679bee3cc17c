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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from .graph import (
    Graph,
    GraphError,
    _descend,
    distances_from,
    induced_subgraph,
    multi_source_distances,
    vset,
)


ProfileKey = Tuple[Tuple[int, int], ...]


def _boundary_keys(
    g: Graph, cands: Iterable[int], bound: Sequence[int], r: int
) -> Dict[int, ProfileKey]:
    """The profile key on the sorted boundary bound of each candidate.

    A path whose interior avoids the boundary reads the same from either
    end, so a key entry is the candidate's distance in the stop search
    from that boundary vertex: one search per boundary vertex, however
    many candidates there are.  Read in boundary order, the entries are
    the sorted pairs of _profile_key.
    """
    if r < 0:
        raise GraphError("radius must be >= 0")
    bset = set(bound)
    pairs: Dict[int, List[Tuple[int, int]]] = {u: [] for u in cands}
    for b in bound:
        for u, d in multi_source_distances(g, (b,), r, stop=bset).items():
            if u in pairs:
                pairs[u].append((b, d))
    return {u: tuple(p) for u, p in pairs.items()}


def profile_classes(
    g: Graph, candidates: Iterable[int], boundary: Iterable[int], r: int
) -> Tuple[Tuple[int, ...], ...]:
    """Partition of the candidates into classes of equal profiles on the
    boundary, largest class first (ties by members)."""
    cands = vset(candidates, g)
    bound = vset(boundary, g)
    if set(cands) & set(bound):
        raise GraphError("candidates may not meet the boundary")
    return _profile_groups(cands, _boundary_keys(g, cands, bound, r))


def _profile_key(dist: Mapping[int, int], bset: Set[int]) -> ProfileKey:
    """The profile key on bset of a vertex whose stop search at bset
    found dist: the sorted (vertex, length) pairs of dist on bset."""
    return tuple([(v, dist[v]) for v in sorted(bset.intersection(dist))])


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

    projections maps each outside vertex to its profile key on the grown
    set.  A key changes only when its vertex is touched, and no vertex its
    last search reached is absorbed later (that would touch it), so keys
    are read off the last searches, or the first: one per closed vertex.
    """
    if target < 1:
        raise GraphError("projection target must be >= 1")
    closed = set(vset(x, g))
    keys = _boundary_keys(g, [u for u in range(g.n) if u not in closed], sorted(closed), r)
    sizes = {u: len(key) for u, key in keys.items()}
    heap = [(-s, u) for u, s in sizes.items()]
    heapq.heapify(heap)
    searched: Dict[int, Dict[int, int]] = {}
    additions = 0
    while True:
        while heap and sizes.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        mx = -heap[0][0] if heap else 0
        if mx <= target:
            break
        best = heapq.heappop(heap)[1]
        # Only a vertex with a path of length <= r to best whose interior
        # avoids the closed set can gain best or lose a member reached
        # through it; every other profile key stays as it was.
        touched = multi_source_distances(g, (best,), r, stop=closed)
        closed.add(best)
        del sizes[best], keys[best]
        for u in touched:
            if u not in closed:
                searched[u] = dist = multi_source_distances(g, (u,), r, stop=closed)
                new = len(closed.intersection(dist))
                if new != sizes[u]:
                    sizes[u] = new
                    heapq.heappush(heap, (-new, u))
        additions += 1
    keys.update((u, _profile_key(dist, closed)) for u, dist in searched.items() if u in keys)
    return ClosureResult(tuple(sorted(closed)), mx, additions, target, keys)


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
