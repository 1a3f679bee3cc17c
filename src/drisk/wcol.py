"""Weak coloring numbers for a fixed vertex order, a degeneracy-style
order heuristic, greedy ball cover, and the certified duality engine
that pairs a radius-r dominating set with a spread independent witness.

For an order L, a vertex u is weakly r-reachable from v when u comes no
later than v and some path from v to u of length at most r never dips
below u in the order.  The weak coloring number of the order is the
largest reach-set size.  Every witness produced here is re-checked by
plain breadth-first search before it is returned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .graph import (
    Graph,
    GraphError,
    ball,
    distances_from,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)
from .oracle import lp_domination


@dataclass(frozen=True)
class VertexOrder:
    """A permutation of the vertices; sequence[i] is the vertex placed
    at position i, rank maps a vertex back to its position."""

    sequence: Tuple[int, ...]
    rank: Dict[int, int] = field(init=False, compare=False, hash=False)

    def __post_init__(self):
        seq = tuple(self.sequence)
        object.__setattr__(self, "sequence", seq)
        if sorted(seq) != list(range(len(seq))):
            raise GraphError("order is not a permutation of 0..n-1")
        object.__setattr__(self, "rank", {v: i for i, v in enumerate(seq)})

    def __len__(self) -> int:
        return len(self.sequence)


def _check_order(g: Graph, order: VertexOrder) -> None:
    if len(order) != g.n:
        raise GraphError(
            f"order covers {len(order)} vertices, graph has {g.n}"
        )


def weak_reach_sets(
    g: Graph, order: VertexOrder, r: int
) -> Tuple[Tuple[int, ...], ...]:
    """reach[v] = all vertices weakly r-reachable from v under the
    order, v itself included."""
    _check_order(g, order)
    if r < 0:
        raise GraphError("radius must be nonnegative")
    rank = [0] * g.n
    for i, v in enumerate(order.sequence):
        rank[v] = i
    adj = g.adjacency
    reach: List[List[int]] = [[] for _ in range(g.n)]
    for u in range(g.n):
        # BFS from u confined to vertices ranked at or above u; every
        # vertex met this way weakly reaches u.  Targets u are visited
        # in ascending id, so each reach list is built already sorted.
        base = rank[u]
        seen = {u}
        frontier = [u]
        depth = 0
        while frontier and depth < r:
            depth += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen and rank[w] >= base:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        for v in seen:
            reach[v].append(u)
    return tuple(tuple(s) for s in reach)


def wcol_given_order(
    g: Graph, order: VertexOrder, r: int
) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Weak coloring number of the order at radius r, with the
    per-vertex reach sets that realize it."""
    reach = weak_reach_sets(g, order, r)
    return max((len(s) for s in reach), default=0), reach


def order_heuristic(g: Graph, r: int = 1) -> VertexOrder:
    """Degeneracy-style order: peel minimum-degree vertices (smallest
    id on ties) and place them from the back, so low-degree vertices
    end up late and their back-connections stay sparse.

    The result is the (degree, id)-minimal peel: each step removes the
    live vertex with the smallest (degree, id).  A lazy-deletion heap
    finds that vertex in O((n+m) log n) total.

    The radius argument is accepted for interface uniformity; the
    peeling strategy itself is radius-free.
    """
    degree = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    adj = g.adjacency
    # Degrees only fall, so an entry whose degree is stale is larger
    # than the live one and is skipped when it surfaces.
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    peel = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != degree[v]:
            continue
        peel.append(v)
        alive[v] = False
        for w in adj[v]:
            if alive[w]:
                degree[w] -= 1
                heapq.heappush(heap, (degree[w], w))
    return VertexOrder(tuple(reversed(peel)))


def greedy_ball_cover(g: Graph, a: Iterable[int], r: int) -> Tuple[int, ...]:
    """Greedy set cover of a by radius-r balls centered anywhere:
    repeatedly take the center covering the most still-uncovered
    members (smallest id on ties).  Returned in pick order."""
    members = vset(a, g)
    if not members:
        return ()
    if r < 0:
        raise GraphError("radius must be nonnegative")
    mem = set(members)
    covers = {}
    for v in range(g.n):
        hit = mem.intersection(ball(g, v, r))
        if hit:
            covers[v] = hit
    uncovered = set(members)
    # Lazy-deletion heap; stale gains are recomputed on pop.
    heap = [(-len(hit), v) for v, hit in covers.items()]
    heapq.heapify(heap)
    picks: List[int] = []
    while uncovered:
        if not heap:
            raise GraphError("some member is unreachable within the radius")
        gain, v = heapq.heappop(heap)
        cur = len(covers[v] & uncovered)
        if cur == 0:
            continue
        if cur != -gain:
            heapq.heappush(heap, (-cur, v))
            continue
        picks.append(v)
        uncovered -= covers[v]
    if not is_distance_dominating(g, picks, members, r):
        raise RuntimeError("internal: greedy cover failed to dominate")
    return tuple(picks)


def dual_witness(
    g: Graph, a: Iterable[int], r: int, order: Optional[VertexOrder] = None
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Paired certificates (D, I): D dominates a at radius 2r+1, I is a
    subset of a with pairwise distance above 2r+1, and |D| is at most
    the order's weak coloring number at 2r+1 times |I|.

    One scan of a by ascending id: a member joins I when its weak
    (2r+1)-reach set is disjoint from the reach sets already collected;
    D is the union of the collected reach sets.  A skipped member
    shares a reach vertex with I, and that vertex is within 2r+1 of
    both; a connecting path between two I-members would put its
    order-minimal vertex in both their reach sets.  All three
    postconditions are re-verified by BFS before returning.
    """
    members = vset(a, g)
    if order is None:
        order = order_heuristic(g)
    _, dominating, witness = _reach_scan(g, members, r, order)
    return dominating, witness


def _reach_scan(
    g: Graph, members: Tuple[int, ...], r: int, order: VertexOrder
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """The scan behind dual_witness, also returning the order's weak
    coloring number at 2r+1 so callers that need it build the reach
    sets only once."""
    reach = weak_reach_sets(g, order, 2 * r + 1)
    wide = max((len(s) for s in reach), default=0)
    independent: List[int] = []
    covered: set = set()
    for v in members:
        if covered.isdisjoint(reach[v]):
            independent.append(v)
            covered.update(reach[v])
    dominating = tuple(sorted(covered))
    witness = tuple(independent)
    if not is_distance_independent(g, witness, 2 * r + 1):
        raise RuntimeError("internal: witness is not spread far enough")
    if not is_distance_dominating(g, dominating, members, 2 * r + 1):
        raise RuntimeError("internal: reach union fails to dominate")
    if len(dominating) > wide * len(witness):
        raise RuntimeError("internal: size bound violated")
    return wide, dominating, witness


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact rational (H_0 = 0)."""
    if n < 0:
        raise ValueError("harmonic index must be nonnegative")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


@dataclass(frozen=True)
class DualityReport:
    """Bundled two-sided bounds for domination of a at radius r.

    dominating_set is the greedy radius-r cover; independent_witness is
    spread beyond 2r+1 inside a, so its size lower-bounds the
    fractional optimum; wcol_value is the stored order's weak coloring
    number at 2r+1; greedy_bound is the harmonic multiplier H_|a|
    certifying |dominating_set| <= greedy_bound * lp_value.
    """

    r: int
    dominating_set: Tuple[int, ...]
    independent_witness: Tuple[int, ...]
    wcol_value: int
    order: VertexOrder
    lp_value: Optional[Fraction]
    greedy_bound: Fraction


def duality_report(
    g: Graph,
    a: Iterable[int],
    r: int,
    order: Optional[VertexOrder] = None,
    include_lp: bool = True,
) -> DualityReport:
    """Assemble greedy cover, spread witness, weak coloring value and
    (optionally) the exact fractional optimum, then verify the chain
    |witness| <= lp <= |cover| <= H_|a| * lp before returning."""
    members = vset(a, g)
    if order is None:
        order = order_heuristic(g)
    dominating = greedy_ball_cover(g, members, r)
    wide, _, witness = _reach_scan(g, members, r, order)
    bound = harmonic(len(members))
    lp_value: Optional[Fraction] = None
    if include_lp:
        lp_value = lp_domination(g, members, r).value if members else Fraction(0)
    if len(witness) > len(dominating) and members:
        raise RuntimeError("internal: witness larger than cover")
    if lp_value is not None and members:
        if Fraction(len(witness)) > lp_value:
            raise RuntimeError("internal: witness exceeds fractional optimum")
        if Fraction(len(dominating)) > bound * lp_value:
            raise RuntimeError("internal: greedy bound violated")
    return DualityReport(
        r=r,
        dominating_set=dominating,
        independent_witness=witness,
        wcol_value=wide,
        order=order,
        lp_value=lp_value,
        greedy_bound=bound,
    )
