"""Quasi-wideness splitter: trade a small deletion set S for a large
subset of A that is pairwise far apart once S is gone.

The search is a ladder: at each rung a scattered subset is extracted
greedily from A in G-S; if it is still too small, S gains the one
outside vertex whose ball (in G-S) meets the most members of A, and
the next rung is tried.  Both reads of a rung come from one ball-trace
table of A in G-S.  Success is certified by re-checking the
scatteredness brute-force; failure is an explicit outcome, never an
invalid result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .graph import BallTraces, Graph, GraphError, is_distance_independent, vset


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


def _greedy_scattered(members: Tuple[int, ...], table: BallTraces) -> Tuple[int, ...]:
    """Ascending-id greedy packing on the ball-trace table of members:
    take a live member, drop every member its trace holds."""
    picked: List[int] = []
    alive = table.bits(members)
    for v in members:
        if alive & table.bit[v]:
            picked.append(v)
            alive &= ~table.masks[v]
    return tuple(picked)


def scattered_ladder(
    g: Graph, a: Iterable[int], r: int, s_max: int
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Yield (s, b) rungs with |s| = 0, 1, ... up to s_max, where b is
    the greedy scattered subset of a in g minus s.

    s grows by the non-member whose radius-r ball in the current
    deleted graph covers the most members (smallest id on ties); the
    ladder stops early when no non-member covers anything.  Each rung
    reads one radius-r ball-trace table of a in g minus s.
    """
    if s_max < 0:
        raise GraphError("deletion budget must be nonnegative")
    if r < 0:
        raise GraphError("radius must be >= 0")
    members = vset(a, g)
    mem = set(members)
    outside = [v for v in range(g.n) if v not in mem]
    deleted: List[int] = []
    while True:
        # Members are never deleted, so each trace is the member set of
        # a ball in g minus s; a deleted vertex's trace is empty.
        table = BallTraces(g, members, r, deleted)
        yield tuple(deleted), _greedy_scattered(members, table)
        if len(deleted) >= s_max:
            return
        masks = table.masks
        best = max(outside, key=lambda v: masks[v].bit_count(), default=None)
        if best is None or not masks[best]:
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
