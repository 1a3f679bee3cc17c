"""Boundary projections and profiles, profile-class partitions, and the
two closure procedures: one that grows a set until every outside vertex
projects onto few members, and one that grows a set until it preserves
all short internal distances.

A projection of u onto a boundary set counts the boundary vertices
reachable from u by paths whose interior stays off the boundary; the
profile additionally records the shortest such length per vertex, with
infinity past the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .graph import (
    Graph,
    GraphError,
    _descend,
    distances_from,
    induced_subgraph,
    multi_source_distances,
    vset,
)

INF = math.inf


@dataclass(frozen=True)
class ProjectionProfile:
    """Per-boundary-vertex shortest avoiding-path length, infinity when
    none of length <= r exists."""

    boundary: Tuple[int, ...]
    values: Dict[int, float] = field(hash=False)
    r: int

    def key(self) -> Tuple[float, ...]:
        """Canonical equality key, ordered by the boundary tuple."""
        return tuple(self.values[b] for b in self.boundary)

    def finite_support(self) -> Tuple[int, ...]:
        return tuple(b for b in self.boundary if self.values[b] is not INF)


def projection(g: Graph, u: int, a: Iterable[int], r: int) -> Tuple[int, ...]:
    """Boundary vertices reachable from u within r by boundary-avoiding
    paths."""
    members = vset(a, g)
    if u in members:
        raise GraphError("projection source lies on the boundary")
    if not 0 <= u < g.n:
        raise GraphError(f"vertex {u} out of range")
    dist = multi_source_distances(g, (u,), r, stop=set(members))
    return tuple(v for v in members if v in dist)


def profile(g: Graph, u: int, a: Iterable[int], r: int) -> ProjectionProfile:
    """Projection profile of u on the boundary a at radius r."""
    members = vset(a, g)
    if u in members:
        raise GraphError("profile source lies on the boundary")
    if not 0 <= u < g.n:
        raise GraphError(f"vertex {u} out of range")
    dist = multi_source_distances(g, (u,), r, stop=set(members))
    values = {v: dist.get(v, INF) for v in members}
    return ProjectionProfile(members, values, r)


def profile_classes(
    g: Graph, candidates: Iterable[int], boundary: Iterable[int], r: int
) -> Tuple[Tuple[int, ...], ...]:
    """Partition of the candidates into classes of equal profiles on the
    boundary, largest class first (ties by members)."""
    cands = vset(candidates, g)
    bound = vset(boundary, g)
    if set(cands) & set(bound):
        raise GraphError("candidates may not meet the boundary")
    bset = set(bound)
    groups: Dict[Tuple[float, ...], List[int]] = {}
    for u in cands:
        # the profile key of u: the search stops at r, so every
        # recorded length is within the radius
        dist = multi_source_distances(g, (u,), r, stop=bset)
        groups.setdefault(tuple(dist.get(v, INF) for v in bound), []).append(u)
    classes = [tuple(sorted(vs)) for vs in groups.values()]
    classes.sort(key=lambda c: (-len(c), c))
    return tuple(classes)


def mu(g: Graph, a: Iterable[int], r: int) -> int:
    """Number of distinct profiles on a realized over the rest of the
    graph."""
    members = vset(a, g)
    mem = set(members)
    outside = [u for u in range(g.n) if u not in mem]
    if not outside:
        return 0
    return len(profile_classes(g, outside, members, r))


@dataclass(frozen=True)
class ClosureResult:
    closed_set: Tuple[int, ...]
    max_projection: int
    iterations: int
    converged: bool
    target: int


def closure(
    g: Graph,
    x: Iterable[int],
    r: int,
    target: int,
    max_additions: Optional[int] = None,
) -> ClosureResult:
    """Grow x until every outside vertex projects onto at most target
    members of the grown set, by repeatedly absorbing the outside vertex
    with the largest projection (smallest id on ties).

    Stops early after max_additions vertices, reporting converged=False;
    the reported max_projection is always recomputed on the final set.
    """
    if target < 1:
        raise GraphError("projection target must be >= 1")
    closed = set(vset(x, g))

    def size(u: int) -> int:
        return len(closed.intersection(multi_source_distances(g, (u,), r, stop=closed)))

    sizes = {u: size(u) for u in range(g.n) if u not in closed}
    additions = 0
    while True:
        mx = max(sizes.values(), default=0)
        if mx <= target:
            return ClosureResult(
                tuple(sorted(closed)), mx, additions, True, target
            )
        if max_additions is not None and additions >= max_additions:
            return ClosureResult(
                tuple(sorted(closed)), mx, additions, False, target
            )
        best = max(sizes, key=lambda u: (sizes[u], -u))
        # Only a vertex with a path of length <= r to best whose interior
        # avoids the closed set can gain best or lose a member reached
        # through it; every other projection size stays as it was.
        touched = multi_source_distances(g, (best,), r, stop=closed)
        closed.add(best)
        del sizes[best]
        for u in touched:
            if u not in closed:
                sizes[u] = size(u)
        additions += 1


def path_closure(g: Graph, x: Iterable[int], r: int) -> Tuple[int, ...]:
    """Superset of x in which every pair of x at distance <= r keeps its
    exact distance inside the induced subgraph.

    One shortest path per qualifying pair is added, walked greedily
    along BFS levels with smallest-id steps.  The distance-preservation
    property is re-verified on the result before returning.
    """
    members = vset(x, g)
    grown = set(members)
    dists = {v: distances_from(g, v, r) for v in members}
    partners: Dict[int, List[int]] = {}
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if u in dists[v]:
                partners.setdefault(u, []).append(v)
                grown.update(_descend(g, dists[v], u))
    closed = tuple(sorted(grown))
    sub, idmap = induced_subgraph(g, closed)
    for u, vs in partners.items():
        inside = distances_from(sub, idmap[u], r)
        for v in vs:
            if inside.get(idmap[v]) != dists[v][u]:
                raise RuntimeError(
                    "internal: induced distance not preserved by path closure"
                )
    return closed
