"""Weak coloring numbers for a fixed vertex order, a degeneracy-style
order heuristic, greedy ball cover, and the certified duality engine
that pairs a radius-r dominating set with a spread independent witness.

For an order L, a vertex u is weakly r-reachable from v when u comes no
later than v and some path from v to u of length at most r never dips
below u in the order.  The weak coloring number of the order is the
largest reach-set size.  Every set a public function here returns is
re-checked by plain breadth-first search first; the private reach scan
behind them checks nothing, and each caller checks only what it
returns.  One confined search, _reached_from_above, finds the vertices
that weakly reach a vertex u, searching from u through the vertices
ranked above it.  weak_reach_sets runs it from every vertex to build
the whole table; the scan builds no table: it runs the search only from
each vertex it covers, to block the members that reach it, and walks
forward from each member that joins for that member's reach set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .graph import (
    BallTraces,
    Graph,
    GraphError,
    is_distance_dominating,
    is_distance_independent,
    vset,
)
from .oracle import _lp_domination_on


@dataclass(frozen=True)
class VertexOrder:
    """A permutation of the vertices; sequence[i] is the vertex placed
    at position i."""

    sequence: Tuple[int, ...]

    def __post_init__(self):
        seq = tuple(self.sequence)
        object.__setattr__(self, "sequence", seq)
        if sorted(seq) != list(range(len(seq))):
            raise GraphError("order is not a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.sequence)


def _ranks(g: Graph, order: VertexOrder, r: int) -> List[int]:
    """rank[v], v's position in the order, once the order is checked
    to cover g and the radius to be nonnegative."""
    if len(order) != g.n:
        raise GraphError(f"order covers {len(order)} vertices, graph has {g.n}")
    if r < 0:
        raise GraphError("radius must be >= 0")
    rank = [0] * g.n
    for i, v in enumerate(order.sequence):
        rank[v] = i
    return rank


def _reached_from_above(
    adj: Tuple[Tuple[int, ...], ...], rank: List[int], u: int, steps: int, mark: List[int]
) -> List[int]:
    """u, then the vertices ranked above u that weakly steps-reach u.

    One BFS of at most steps levels from u, confined to vertices ranked
    above u; every vertex it meets weakly reaches u.  The test is
    rank[w] > rank[u]: u is the only vertex of its rank, so the strict
    test is "at or above u" with u, found first, left out.  The mark
    list, stamped with u on every vertex returned, stands in for a
    per-search seen set, so one list serves all of a caller's searches.
    """
    base = rank[u]
    mark[u] = u
    found = [u]
    frontier = found
    for _ in range(steps):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if mark[w] != u and rank[w] > base:
                    mark[w] = u
                    nxt.append(w)
        if not nxt:
            break
        found += nxt
        frontier = nxt
    return found


def weak_reach_sets(
    g: Graph, order: VertexOrder, r: int
) -> Tuple[Tuple[int, ...], ...]:
    """reach[v] = all vertices weakly r-reachable from v under the
    order, v itself included.

    Each target u appends itself to the reach list of every vertex
    _reached_from_above returns for it.  The targets run in ascending
    id, so every reach list is built already sorted.
    """
    rank = _ranks(g, order, r)
    adj = g.adjacency
    reach: List[List[int]] = [[] for _ in range(g.n)]
    mark = [-1] * g.n
    for u in range(g.n):
        for w in _reached_from_above(adj, rank, u, r, mark):
            reach[w].append(u)
    return tuple(map(tuple, reach))


def order_heuristic(g: Graph) -> VertexOrder:
    """Degeneracy-style order: peel minimum-degree vertices (smallest
    id on ties) and place them from the back, so low-degree vertices
    end up late and their back-connections stay sparse.

    The result is the (degree, id)-minimal peel: each step removes the
    live vertex with the smallest (degree, id).  A lazy-deletion heap
    finds that vertex in O((n+m) log n) total.  Its keys are the ints
    degree * n + v: as 0 <= v < n, they order exactly as the pairs
    (degree, v) do, and compare faster than tuples.
    """
    n = g.n
    adj = g.adjacency
    degree = [len(a) for a in adj]
    alive = [True] * n
    # Degrees only fall, so an entry whose degree is stale is larger
    # than the live one and is skipped when it surfaces.
    heap = [d * n + v for v, d in enumerate(degree)]
    heapq.heapify(heap)
    peel = []
    while heap:
        d, v = divmod(heapq.heappop(heap), n)
        if not alive[v] or d != degree[v]:
            continue
        peel.append(v)
        alive[v] = False
        for w in adj[v]:
            if alive[w]:
                degree[w] -= 1
                heapq.heappush(heap, degree[w] * n + w)
    return VertexOrder(tuple(reversed(peel)))


def greedy_ball_cover(
    g: Graph, a: Iterable[int], r: int, table: Optional[BallTraces] = None
) -> Tuple[int, ...]:
    """Greedy set cover of a by radius-r balls centered anywhere:
    repeatedly take the center covering the most still-uncovered
    members (smallest id on ties).  Returned in pick order.

    table carries the radius-r ball traces of a member list that holds
    a; the greedy reads only the bits of a, so its picks are those of a
    fresh table on a alone.  Without it the cover makes its own."""
    if r < 0:
        raise GraphError("radius must be >= 0")
    members = vset(a, g)
    if not members:
        return ()
    if table is None:
        table = BallTraces(g, members, r)
    uncovered = table.bits(members)
    covers = table.masks
    # Lazy-deletion heap; stale gains are recomputed on pop.  Every
    # member covers itself, so the heap outlasts the uncovered set, and
    # an entry of gain 0 is never reached.
    heap = [(-(m & uncovered).bit_count(), v) for v, m in enumerate(covers)]
    heapq.heapify(heap)
    picks: List[int] = []
    while uncovered:
        gain, v = heapq.heappop(heap)
        cur = (covers[v] & uncovered).bit_count()
        if cur == 0:
            continue
        if cur != -gain:
            heapq.heappush(heap, (-cur, v))
            continue
        picks.append(v)
        uncovered &= ~covers[v]
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
    order-minimal vertex in both their reach sets.  D is a union of |I|
    reach sets, which gives the size bound; the other two postconditions
    are re-verified by BFS before returning.
    """
    members = vset(a, g)
    if order is None:
        order = order_heuristic(g)
    witness, covered = _reach_scan(g, members, r, order)
    dominating = tuple(sorted(covered))
    if not is_distance_independent(g, witness, 2 * r + 1):
        raise RuntimeError("internal: witness is not spread far enough")
    if not is_distance_dominating(g, dominating, members, 2 * r + 1):
        raise RuntimeError("internal: reach union fails to dominate")
    return dominating, witness


def _reach_scan(
    g: Graph, members: Tuple[int, ...], r: int, order: VertexOrder
) -> Tuple[Tuple[int, ...], set]:
    """The reach scan at 2r+1, unchecked: the witness, and the union of
    its reach sets.  Each caller checks what it emits: dual_witness both
    sets at 2r+1, duality_report the witness at 2r+1, and
    kernel.kernelize a witness that answers YES at its own radius.

    It builds reach sets only where it reads them.  A member is skipped
    exactly when it weakly reaches a covered vertex u, and the vertices
    that weakly reach u are those _reached_from_above returns for u.  So
    each newly covered u runs that search once, which stamps what it
    returns, and a member is blocked once any search has stamped it.  A
    member that joins gets its own reach set from _forward_reach.
    """
    rank = _ranks(g, order, r)
    steps = 2 * r + 1
    adj = g.adjacency
    mark = [-1] * g.n
    independent: List[int] = []
    covered: set = set()
    for v in members:
        if mark[v] >= 0:
            continue
        independent.append(v)
        # v is not blocked, so its reach set is disjoint from covered
        for u in _forward_reach(adj, rank, v, steps):
            covered.add(u)
            _reached_from_above(adj, rank, u, steps, mark)
    return tuple(independent), covered


def _forward_reach(
    adj: Tuple[Tuple[int, ...], ...], rank: List[int], v: int, steps: int
) -> List[int]:
    """v's weak steps-reach set, by a walk forward from v.

    low[w] is the highest, over the walks of at most the steps taken so
    far from v to w, of the lowest rank on the walk, w included.  u is
    in the reach set iff some such walk meets only vertices ranked above
    u before it ends at u, that is iff a neighbour x passes on a value
    low[x] above rank[u]; then low[u] = rank[u], its highest value, so
    u is listed once.  Conversely low[u] = rank[u] only then (or at v):
    the walk's first visit to u came from above u.
    """
    low = {v: rank[v]}
    reach = [v]
    # each step passes on the values of the step before, so that no
    # walk grows by two edges in one step
    frontier = low.copy()
    for _ in range(steps):
        nxt = {}
        for x, p in frontier.items():
            for w in adj[x]:
                c = rank[w]
                if p < c:
                    c = p
                if c > low.get(w, -1):
                    if c == rank[w]:
                        reach.append(w)
                    low[w] = nxt[w] = c
        if not nxt:
            break
        frontier = nxt
    return reach


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
    g: Graph, a: Iterable[int], r: int, include_lp: bool = True
) -> DualityReport:
    """Assemble greedy cover, spread witness, weak coloring value of
    order_heuristic(g) and (optionally) the exact fractional optimum,
    then verify the witness at 2r+1 and the chain
    |witness| <= lp <= |cover| <= H_|a| * lp before returning."""
    members = vset(a, g)
    order = order_heuristic(g)
    # one table for the cover and the LP
    table = BallTraces(g, members, r)
    dominating = greedy_ball_cover(g, members, r, table)
    wide = max(map(len, weak_reach_sets(g, order, 2 * r + 1)), default=0)
    witness, _ = _reach_scan(g, members, r, order)
    if not is_distance_independent(g, witness, 2 * r + 1):
        raise RuntimeError("internal: witness is not spread far enough")
    bound = harmonic(len(members))
    lp_value: Optional[Fraction] = None
    if include_lp:
        lp_value = _lp_domination_on(members, table.masks).value
    if len(witness) > len(dominating):
        raise RuntimeError("internal: witness larger than cover")
    if lp_value is not None:
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
