"""Quasi-wideness splitter: trade a small deletion set S for a large
subset of A that is pairwise far apart once S is gone.

The search is a ladder: at each rung a scattered subset is extracted
greedily from A in G-S, by one search from each member it takes; if it
is still too small, S gains the candidate outside A whose ball (in
G-S) meets the most members of A, and the next rung is tried.  Only
the candidates are scored, by one search each: the kernel passes its
closed set z, and by default they are the vertices near A.  Success
is certified by re-checking the scatteredness brute-force; failure is
an explicit outcome, never an invalid result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .graph import Graph, GraphError, is_distance_independent, multi_source_distances, vset


@dataclass(frozen=True)
class UqwResult:
    """Deletion set s and subset b of the input members, with b pairwise
    farther than r apart after deleting s."""

    s: Tuple[int, ...]
    b: Tuple[int, ...]
    r: int

    def validate(self, g: Graph) -> None:
        """Brute-force recheck of the invariants against g."""
        s = vset(self.s, g)
        b = vset(self.b, g)
        if set(b) & set(s):
            raise GraphError("scattered set meets the deletion set")
        if not is_distance_independent(g, b, self.r, blocked=s):
            raise GraphError("set is not scattered after the deletion")


def scattered_ladder(
    g: Graph,
    a: Iterable[int],
    r: int,
    s_max: int,
    candidates: Optional[Iterable[int]] = None,
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Yield (s, b) rungs with |s| = 0, 1, ... up to s_max, where b is
    the greedy scattered subset of a in g minus s: ascending ids, each
    member taken drops the members its one search finds within r.

    s grows by the candidate outside a whose radius-r ball in the current
    deleted graph meets the most members (smallest id on ties), scored
    by one search from each candidate; the ladder stops early when no
    candidate meets any.  By default the candidates are the vertices
    within r of a member, the only ones that can meet any.
    """
    if s_max < 0:
        raise GraphError("deletion budget must be nonnegative")
    if r < 0:
        raise GraphError("radius must be >= 0")
    members = vset(a, g)
    mem = set(members)
    if candidates is None:
        candidates = multi_source_distances(g, members, r)
    outside = [v for v in vset(candidates, g) if v not in mem]
    deleted: List[int] = []
    while True:
        alive = set(members)
        picked: List[int] = []
        for v in members:
            if v in alive:
                picked.append(v)
                alive.difference_update(multi_source_distances(g, (v,), r, deleted))
        yield tuple(deleted), tuple(picked)
        if len(deleted) >= s_max:
            return
        best, most = None, 0
        for v in outside:
            if v not in deleted:
                met = len(mem.intersection(multi_source_distances(g, (v,), r, deleted)))
                if met > most:
                    best, most = v, met
        if best is None:
            return
        deleted.append(best)


def find_uqw(
    g: Graph, a: Iterable[int], r: int, m: int, s_max: int
) -> Optional[UqwResult]:
    """First ladder rung whose scattered set reaches size m, validated;
    None when the budget runs out first."""
    if m < 1:
        raise GraphError("target size must be at least 1")
    for s, b in scattered_ladder(g, a, r, s_max):
        if len(b) >= m:
            result = UqwResult(tuple(s), tuple(b), r)
            try:
                result.validate(g)
            except GraphError as exc:
                raise RuntimeError(f"internal: invalid scattered set: {exc}")
            return result
    return None
