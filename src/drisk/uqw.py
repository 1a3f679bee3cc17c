"""Quasi-wideness splitter: trade a small deletion set S for a large
subset of A that is pairwise far apart once S is gone.

The search is a ladder: at each rung a scattered subset is extracted
greedily from A in G-S; if it is still too small, S gains the one
outside vertex whose ball (in G-S) meets the most members of A, and
the next rung is tried.  Success is certified by re-checking the
scatteredness brute-force; failure is an explicit outcome, never an
invalid result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .graph import (
    Graph,
    GraphError,
    is_distance_independent,
    multi_source_distances,
    vset,
)


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


def _greedy_scattered(g: Graph, members: Tuple[int, ...], removed: set, r: int) -> Tuple[int, ...]:
    """Ascending-id greedy packing: take a member, drop every member
    within r of it in the graph minus removed."""
    alive = set(members) - removed
    picked: List[int] = []
    for v in members:
        if v in alive:
            picked.append(v)
            alive.difference_update(multi_source_distances(g, (v,), r, removed))
    return tuple(picked)


def scattered_ladder(
    g: Graph, a: Iterable[int], r: int, s_max: int
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Yield (s, b) rungs with |s| = 0, 1, ... up to s_max, where b is
    the greedy scattered subset of a in g minus s.

    s grows by the non-member whose radius-r ball in the current
    deleted graph covers the most members (smallest id on ties); the
    ladder stops early when no non-member covers anything.
    """
    if s_max < 0:
        raise GraphError("deletion budget must be nonnegative")
    if r < 0:
        raise GraphError("radius must be nonnegative")
    members = vset(a, g)
    mem = set(members)
    deleted: List[int] = []
    removed: set = set()
    while True:
        yield tuple(deleted), _greedy_scattered(g, members, removed, r)
        if len(deleted) >= s_max:
            return
        best_v = -1
        best_score = 0
        for v in range(g.n):
            if v in mem or v in removed:
                continue
            score = len(mem.intersection(multi_source_distances(g, (v,), r, removed)))
            if score > best_score:
                best_score, best_v = score, v
        if best_v < 0:
            return
        deleted.append(best_v)
        removed.add(best_v)


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
            result.validate(g)
            return result
    return None
