"""Slow reference implementations for the tests.

Most of what is here is written directly against Graph.n and Graph.edges
with this module's own BFS (simple_adj, bfs_dists), independent of the
library's code paths, so the two sides of a comparison are computed by
different routes.  The exceptions are the pins: earlier versions of
library functions kept verbatim, so tests can hold a rewrite to the
answers it replaced, and lp_packing, the packing solve that moved here
from drisk.oracle.  Those call the library helpers they always called
(among them BallTraces, through ball_masks, ball, distances_from,
multi_source_distances, _descend, induced_subgraph, the distance
validators, oracle._audit_packing, oracle._bits, oracle._member_traces,
oracle._max_clique, oracle._walk, validate_minor_model, solve_max, greedy_ball_cover, profile_classes,
scattered_ladder and the kernel's certificate checks), and
share whatever fault those helpers have with the code they pin;
minor_model_holds checks a clique-minor model without them, and lp_cover
solves the cover LP with this module's own distances and dense simplex.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from drisk.ballvc import TwoShatterWitness
from drisk.graph import (
    BallTraces,
    Graph,
    GraphError,
    _descend,
    ball,
    distances_from,
    induced_subgraph,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)
from drisk.kernel import (
    IrrelevanceCertificate,
    KernelPolicy,
    RemovalLog,
    _far_members,
    check_certificate,
)
from drisk.oracle import (
    LpSolution,
    MinorModel,
    OracleLimitError,
    _audit_packing,
    _bits,
    _max_clique,
    _member_traces,
    _walk,
    validate_minor_model,
)
from drisk.projections import ClosureResult, profile_classes
from drisk.simplex import LpOptimum, LpUnbounded, SimplexStall, solve_max
from drisk.uqw import scattered_ladder
from drisk.wcol import greedy_ball_cover

INF = math.inf


def ball_masks(
    g: Graph, members: Sequence[int], r: int, blocked: Optional[set] = None
) -> List[int]:
    """The masks of a BallTraces table on members at radius r: bit i of
    masks[v] is set iff members[i] is within r of v (in g minus
    blocked, when given).  The pins below read their tables through it."""
    return BallTraces(g, members, r, blocked).masks


def simple_adj(g) -> List[set]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs_dists(adj: List[set], source: int) -> Dict[int, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def minor_model_holds(g, model) -> bool:
    """Whether model's branch sets are nonempty, pairwise disjoint and
    pairwise joined by an edge of g, each with a member from which the
    whole set lies within model.radius inside the set, checked with
    this module's own BFS on the edges among the model's vertices."""
    sets = [set(bs) for bs in model.branch_sets]
    if any(not s or not s <= set(range(g.n)) for s in sets):
        return False
    verts = set().union(*sets)
    if sum(map(len, sets)) != len(verts):
        return False
    adj: Dict[int, set] = {v: set() for v in verts}
    for u, v in g.edges:
        if u in verts and v in verts:
            adj[u].add(v)
            adj[v].add(u)
    for s in sets:
        inner = {v: adj[v] & s for v in s}
        reach = (bfs_dists(inner, c) for c in s)
        if not any(len(d) == len(s) and max(d.values()) <= model.radius for d in reach):
            return False
    return all(any(adj[u] & t for u in s) for s, t in itertools.combinations(sets, 2))


def dist_matrix(g) -> List[Dict[int, int]]:
    adj = simple_adj(g)
    return [bfs_dists(adj, v) for v in range(g.n)]


def alpha(g, a: Iterable[int], r: int) -> int:
    """Maximum subset of a with pairwise distance > r, by memoized
    take/skip recursion over the conflict relation."""
    members = sorted(set(a))
    dm = dist_matrix(g)
    conflicts = {
        u: frozenset(
            v for v in members if v != u and dm[u].get(v, INF) <= r
        )
        for u in members
    }
    memo: Dict[frozenset, int] = {}

    def rec(avail: frozenset) -> int:
        if not avail:
            return 0
        key = avail
        hit = memo.get(key)
        if hit is not None:
            return hit
        v = min(avail)
        best = max(
            rec(avail - {v}),
            1 + rec(avail - {v} - conflicts[v]),
        )
        memo[key] = best
        return best

    return rec(frozenset(members))


def gamma(g, a: Iterable[int], r: int) -> int:
    """Minimum number of radius-r balls (any centers) covering a, by
    plain subset enumeration over center combinations."""
    members = sorted(set(a))
    if not members:
        return 0
    dm = dist_matrix(g)
    coverage = {
        c: frozenset(v for v in members if dm[c].get(v, INF) <= r)
        for c in range(g.n)
    }
    centers = [c for c in range(g.n) if coverage[c]]
    want = frozenset(members)
    for size in range(1, len(members) + 1):
        for combo in itertools.combinations(centers, size):
            hit = frozenset()
            for c in combo:
                hit |= coverage[c]
            if hit >= want:
                return size
    raise AssertionError("some member is unreachable at this radius")


def girth(g) -> float:
    """Shortest cycle length, honoring loops (1) and parallel edges (2),
    found by deleting each edge in turn and measuring the detour."""
    edges = list(g.edges)
    best = INF
    counts: Dict[Tuple[int, int], int] = {}
    for u, v in edges:
        if u == v:
            best = min(best, 1)
        key = (min(u, v), max(u, v))
        counts[key] = counts.get(key, 0) + 1
    if any(c > 1 for c in counts.values()):
        best = min(best, 2)
    for u, v in counts:
        adj = [set() for _ in range(g.n)]
        for a, b in counts:
            if (a, b) != (u, v):
                adj[a].add(b)
                adj[b].add(a)
        d = bfs_dists(adj, u).get(v)
        if d is not None:
            best = min(best, d + 1)
    return best


def avoiding_profile(g, u: int, boundary: Sequence[int], r: int) -> Tuple[float, ...]:
    """Shortest path length from u to each boundary vertex whose
    interior avoids the whole boundary, computed one target at a time
    on the graph minus the other boundary vertices."""
    out = []
    for t in boundary:
        others = set(boundary) - {t}
        adj = [set() for _ in range(g.n)]
        for a, b in g.edges:
            if a != b and a not in others and b not in others:
                adj[a].add(b)
                adj[b].add(a)
        if u in others:
            out.append(INF)
            continue
        d = bfs_dists(adj, u).get(t, INF)
        out.append(d if d <= r else INF)
    return tuple(out)


def weak_reach(g, sequence: Sequence[int], r: int) -> List[set]:
    """reach[v] by explicit enumeration of all simple paths of length
    <= r from v (exponential; tiny graphs only): the endpoint counts
    when it is the rank-minimum of the whole path."""
    rank = {v: i for i, v in enumerate(sequence)}
    adj = simple_adj(g)
    reach = [set() for _ in range(g.n)]

    def walk(path: List[int]):
        v, u = path[0], path[-1]
        if rank[u] <= rank[v] and all(rank[w] >= rank[u] for w in path):
            reach[v].add(u)
        if len(path) <= r:
            for w in adj[path[-1]]:
                if w not in path:
                    walk(path + [w])

    for v in range(g.n):
        walk([v])
    return reach


def reach_scan(g, members: Iterable[int], r: int, sequence: Sequence[int]) -> Tuple[Tuple[int, ...], set]:
    """The reach scan over the enumerated weak (2r+1)-reach sets: in
    member order, a member joins the witness when its reach set misses
    the union of those already joined; returns the witness and that
    union."""
    reach = weak_reach(g, sequence, 2 * r + 1)
    witness: List[int] = []
    covered: set = set()
    for v in members:
        if covered.isdisjoint(reach[v]):
            witness.append(v)
            covered |= reach[v]
    return tuple(witness), covered


def degeneracy_order(g) -> Tuple[int, ...]:
    """The (degree, id)-minimal peel by a full min-scan per step
    (quadratic), reversed so the first-peeled vertex comes last."""
    degree = {v: g.degree(v) for v in range(g.n)}
    alive = set(degree)
    adj = g.adjacency
    peel = []
    while alive:
        v = min(alive, key=lambda u: (degree[u], u))
        peel.append(v)
        alive.remove(v)
        for w in adj[v]:
            if w in alive:
                degree[w] -= 1
    return tuple(reversed(peel))


def shattered_exactly(sets: Sequence[frozenset], x: Tuple[int, ...]) -> bool:
    traces = {frozenset(x) & s for s in sets}
    return len(traces) == 2 ** len(x)


def pair_shattered(sets: Sequence[frozenset], x: Tuple[int, ...]) -> bool:
    for pair in itertools.combinations(x, 2):
        want = frozenset(pair)
        if not any(frozenset(x) & s == want for s in sets):
            return False
    return True


def two_vc(universe: Sequence[int], sets: Sequence[frozenset]) -> int:
    best = 0
    items = list(universe)
    for size in range(1, len(items) + 1):
        found = False
        for x in itertools.combinations(items, size):
            if pair_shattered(sets, x):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def lp_cover_float(g, a: Iterable[int], r: int) -> float:
    """Fractional cover optimum via scipy, as an independent LP route."""
    import numpy as np
    from scipy.optimize import linprog

    members = sorted(set(a))
    if not members:
        return 0.0
    dm = dist_matrix(g)
    rows = []
    for u in members:
        row = [0.0] * g.n
        for v in range(g.n):
            if dm[v].get(u, INF) <= r:
                row[v] = -1.0
        rows.append(row)
    res = linprog(
        c=np.ones(g.n),
        A_ub=np.array(rows),
        b_ub=-np.ones(len(members)),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def harmonic_float(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def max_clique_recursive(n: int, adj: List[int]) -> Tuple[int, int]:
    """The recursive branch and bound that `oracle._max_clique` replaced
    with an explicit stack, kept verbatim: (size, mask) of a maximum
    clique on a bitmask adjacency."""
    best_size = 0
    best_mask = 0

    def expand(rsize, rmask, cand):
        nonlocal best_size, best_mask
        if not cand:
            if rsize > best_size:
                best_size, best_mask = rsize, rmask
            return
        order = []
        bound = []
        color = 0
        rest = cand
        while rest:
            color += 1
            q = rest
            while q:
                b = q & -q
                v = b.bit_length() - 1
                q ^= b
                q &= ~adj[v]
                rest ^= b
                order.append(v)
                bound.append(color)
        for i in range(len(order) - 1, -1, -1):
            if rsize + bound[i] <= best_size:
                return
            v = order[i]
            expand(rsize + 1, rmask | (1 << v), cand & adj[v])
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1 if n else 0)
    return best_size, best_mask


# The dense `Fraction`-update simplex that `drisk.simplex` replaced (first
# by a sparse pivot, now by a fraction-free integer tableau), kept verbatim
# (it returns (value, x) instead of an LpOptimum).  It keeps the phase 1
# that drisk's one-phase solver dropped, so it also takes a negative rhs.
# It raises drisk's own LpUnbounded and SimplexStall, so the two can be
# compared, and this module's LpInfeasible, which drisk no longer has.


class LpInfeasible(Exception):
    """The constraint system admits no nonnegative solution."""


F0 = Fraction(0)
F1 = Fraction(1)
_MAX_PIVOTS = 200_000


def _dense_pivot(tableau: List[List[Fraction]], cost: List[Fraction], basis: List[int], row: int, col: int) -> None:
    prow = tableau[row]
    piv = prow[col]
    if piv != F1:
        inv = F1 / piv
        prow = [a * inv for a in prow]
        tableau[row] = prow
    for i, other in enumerate(tableau):
        if i == row:
            continue
        f = other[col]
        if f:
            tableau[i] = [a - f * b for a, b in zip(other, prow)]
    f = cost[col]
    if f:
        cost[:] = [a - f * b for a, b in zip(cost, prow)]
    basis[row] = col


def _dense_bland_loop(tableau, cost, basis, ncols) -> None:
    for _ in range(_MAX_PIVOTS):
        col = -1
        for j in range(ncols):
            if cost[j] > 0:
                col = j
                break
        if col < 0:
            return
        row = -1
        best = None
        for i, trow in enumerate(tableau):
            a = trow[col]
            if a > 0:
                ratio = trow[-1] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    row = i
        if row < 0:
            raise LpUnbounded
        _dense_pivot(tableau, cost, basis, row, col)
    raise SimplexStall("pivot budget exhausted")


def dense_solve_max(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Maximize c.x subject to rows.x <= rhs, x >= 0 (exact rationals)."""
    nvars = len(c)
    m = len(rows)
    c = [Fraction(v) for v in c]
    nslack = m
    art_rows = [i for i in range(m) if Fraction(rhs[i]) < 0]
    nart = len(art_rows)
    ncols = nvars + nslack + nart
    art_col = {}
    for k, i in enumerate(art_rows):
        art_col[i] = nvars + nslack + k

    tableau: List[List[Fraction]] = []
    basis: List[int] = []
    for i in range(m):
        b = Fraction(rhs[i])
        coeffs = [Fraction(v) for v in rows[i]]
        if len(coeffs) != nvars:
            raise ValueError("row length does not match objective length")
        sign = F1
        if b < 0:
            sign = -F1
            b = -b
        line = [sign * v for v in coeffs]
        line.extend(F0 for _ in range(nslack + nart))
        line[nvars + i] = sign
        if i in art_col:
            line[art_col[i]] = F1
            basis.append(art_col[i])
        else:
            basis.append(nvars + i)
        line.append(b)
        tableau.append(line)

    if nart:
        # phase 1: maximize -sum(artificials); price out the artificial basis
        cost = [F0] * (ncols + 1)
        for i in art_rows:
            cost = [a + b for a, b in zip(cost, tableau[i])]
        for k in range(nart):
            cost[nvars + nslack + k] = F0
        _dense_bland_loop(tableau, cost, basis, ncols)
        if cost[-1] != 0:
            raise LpInfeasible
        # drive surviving artificials out of the basis, drop redundant rows
        keep = []
        for i in range(len(tableau)):
            if basis[i] < nvars + nslack:
                keep.append(i)
                continue
            piv_col = next(
                (j for j in range(nvars + nslack) if tableau[i][j] != 0), None
            )
            if piv_col is None:
                continue  # all-zero row: redundant constraint
            _dense_pivot(tableau, cost, basis, i, piv_col)
            keep.append(i)
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
        tableau = [row[: nvars + nslack] + row[-1:] for row in tableau]
        ncols = nvars + nslack

    cost = [F0] * (ncols + 1)
    cost[:nvars] = list(c)
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f:
            cost[:] = [a - f * b for a, b in zip(cost, tableau[i])]
    _dense_bland_loop(tableau, cost, basis, ncols)

    x = [F0] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = tableau[i][-1]
    return -cost[-1], tuple(x)


# The sparse `Fraction` pivot that the fraction-free integer tableau in
# `drisk.simplex` replaced, kept verbatim apart from its names.  It
# returns the same LpOptimum, duals included, pivot for pivot.

def _sparse_eliminate(line: List[Fraction], f: Fraction, nz) -> None:
    for j, b in nz:
        line[j] -= f * b


def _sparse_pivot(tableau: List[List[Fraction]], cost: List[Fraction], basis: List[int], row: int, col: int) -> None:
    prow = tableau[row]
    piv = prow[col]
    nz = [(j, a) for j, a in enumerate(prow) if a]
    if piv != F1:
        nz = [(j, a / piv) for j, a in nz]
        for j, a in nz:
            prow[j] = a
    for i, other in enumerate(tableau):
        if i == row:
            continue
        f = other[col]
        if f:
            _sparse_eliminate(other, f, nz)
    f = cost[col]
    if f:
        _sparse_eliminate(cost, f, nz)
    basis[row] = col


def _sparse_bland_loop(tableau, cost, basis, ncols) -> None:
    for _ in range(_MAX_PIVOTS):
        col = -1
        for j in range(ncols):
            if cost[j] > 0:
                col = j
                break
        if col < 0:
            return
        row = -1
        best = None
        for i, trow in enumerate(tableau):
            a = trow[col]
            if a > 0:
                ratio = trow[-1] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    row = i
        if row < 0:
            raise LpUnbounded
        _sparse_pivot(tableau, cost, basis, row, col)
    raise SimplexStall("pivot budget exhausted")


def sparse_solve_max(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LpOptimum:
    """Maximize c.x subject to rows.x <= rhs, x >= 0 (exact rationals).

    The returned y satisfies y >= 0, y.rows >= c and y.rhs == value."""
    nvars = len(c)
    m = len(rows)
    c = [Fraction(v) for v in c]
    nslack = m
    art_rows = [i for i in range(m) if Fraction(rhs[i]) < 0]
    nart = len(art_rows)
    ncols = nvars + nslack + nart
    art_col = {}
    for k, i in enumerate(art_rows):
        art_col[i] = nvars + nslack + k

    tableau: List[List[Fraction]] = []
    basis: List[int] = []
    for i in range(m):
        b = Fraction(rhs[i])
        coeffs = [Fraction(v) for v in rows[i]]
        if len(coeffs) != nvars:
            raise ValueError("row length does not match objective length")
        sign = F1
        if b < 0:
            sign = -F1
            b = -b
        line = [sign * v for v in coeffs]
        line.extend(F0 for _ in range(nslack + nart))
        # the slack column keeps the row's sign, so -cost of it is the
        # dual of the row as given, not of its negation
        line[nvars + i] = sign
        if i in art_col:
            line[art_col[i]] = F1
            basis.append(art_col[i])
        else:
            basis.append(nvars + i)
        line.append(b)
        tableau.append(line)

    if nart:
        # phase 1: maximize -sum(artificials); price out the artificial basis
        cost = [F0] * (ncols + 1)
        for i in art_rows:
            cost = [a + b for a, b in zip(cost, tableau[i])]
        for k in range(nart):
            cost[nvars + nslack + k] = F0
        _sparse_bland_loop(tableau, cost, basis, ncols)
        if cost[-1] != 0:
            raise LpInfeasible
        # Drive the artificials left basic (at level 0) out of the basis.
        # Each row has its own slack column, so the tableau's slack block
        # is B^-1 diag(sign), an invertible matrix: every row has a nonzero
        # x or slack entry to pivot on, and no row is ever redundant.
        for i, bi in enumerate(basis):
            if bi >= nvars + nslack:
                piv_col = next(j for j in range(nvars + nslack) if tableau[i][j])
                _sparse_pivot(tableau, cost, basis, i, piv_col)
        tableau = [row[: nvars + nslack] + row[-1:] for row in tableau]
        ncols = nvars + nslack

    cost = [F0] * (ncols + 1)
    cost[:nvars] = list(c)
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f:
            _sparse_eliminate(cost, f, [(j, a) for j, a in enumerate(tableau[i]) if a])
    _sparse_bland_loop(tableau, cost, basis, ncols)

    x = [F0] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = tableau[i][-1]
    y = tuple(-cost[nvars + i] for i in range(m))
    return LpOptimum(-cost[-1], tuple(x), y)


# The removal pipeline's pieces as they were before the deleted-graph
# checks ran as blocked BFS, the closure rescanned only what an absorbed
# vertex touched, profile classes skipped profile(), and the deletion
# ladder was capped at |bulk| - 2.  They are kept verbatim apart from
# their names (and the names of each other they call) and the closure cap
# and fixed-target ladder the pipeline no longer has, so tests can pin the
# new ones to them.


def closure_rescan(g, x: Iterable[int], r: int, target: int) -> ClosureResult:
    if target < 1:
        raise GraphError("projection target must be >= 1")
    closed = set(vset(x, g))
    additions = 0
    while True:
        sizes = {}
        for u in range(g.n):
            if u in closed:
                continue
            dist = avoiding_bfs(g, u, closed, r)
            sizes[u] = sum(1 for v, d in dist.items() if v in closed and d <= r)
        mx = max(sizes.values(), default=0)
        if mx <= target:
            return ClosureResult(tuple(sorted(closed)), mx, additions, target)
        best = max(sizes, key=lambda u: (sizes[u], -u))
        closed.add(best)
        additions += 1


def stop_profile(g, u: int, bound: Sequence[int], r: int) -> Tuple[float, ...]:
    """u's profile on bound: its stop-search distances within r, in
    boundary order, infinity where there is none."""
    dist = multi_source_distances(g, (u,), r, stop=set(bound))
    return tuple(dist.get(v, INF) for v in bound)


def profile_classes_via_profile(g, candidates: Iterable[int], boundary: Iterable[int], r: int) -> Tuple[Tuple[int, ...], ...]:
    cands = vset(candidates, g)
    bound = vset(boundary, g)
    if set(cands) & set(bound):
        raise GraphError("candidates may not meet the boundary")
    groups: Dict[Tuple[float, ...], List[int]] = {}
    for u in cands:
        groups.setdefault(stop_profile(g, u, bound, r), []).append(u)
    classes = [tuple(sorted(vs)) for vs in groups.values()]
    classes.sort(key=lambda c: (-len(c), c))
    return tuple(classes)


def check_certificate_induced(g, a: Iterable[int], cert: IrrelevanceCertificate) -> Optional[str]:
    members = set(vset(a, g))
    if cert.r < 1 or cert.d != cert.r // 2:
        return "radius"
    for v in cert.z + cert.s + cert.l_prime:
        if not 0 <= v < g.n:
            return "radius"
    if not is_distance_dominating(g, cert.z, members, cert.d):
        return "dominates"
    lp = set(cert.l_prime)
    if not lp or not lp <= members - set(cert.s):
        return "subset"
    removed = set(cert.s)
    keep = [v for v in range(g.n) if v not in removed]
    sub, idmap = induced_subgraph(g, keep)
    alive_z = [idmap[v] for v in cert.z if v not in removed]
    near = multi_source_distances(sub, alive_z, 2 * cert.r)
    if any(idmap[x] in near for x in cert.l_prime):
        return "far"
    if cert.s:
        keys = {stop_profile(g, x, cert.s, cert.r) for x in cert.l_prime}
        if len(keys) > 1:
            return "profile"
    if len(cert.l_prime) < len(cert.s) + 2:
        return "size"
    if not is_distance_independent(
        sub, [idmap[x] for x in cert.l_prime], 4 * cert.r
    ):
        return "scattered"
    return None


def far_members_induced(g, b: Tuple[int, ...], z: Tuple[int, ...], s: Tuple[int, ...], r: int):
    removed = set(s)
    keep = [v for v in range(g.n) if v not in removed]
    sub, idmap = induced_subgraph(g, keep)
    alive_z = [idmap[v] for v in z if v not in removed]
    near = multi_source_distances(sub, alive_z, 2 * r)
    far = tuple(x for x in b if idmap[x] not in near)
    return far, sub, idmap


def find_removable_class_uncapped(g, members: Tuple[int, ...], z: Tuple[int, ...], r: int, policy) -> Optional[IrrelevanceCertificate]:
    zset = set(z)
    candidates = tuple(x for x in members if x not in zset)
    if not candidates:
        return None
    classes = profile_classes_via_profile(g, candidates, z, 2 * r)
    bulk = classes[0]
    d = r // 2
    for s, b in scattered_ladder_bfs(g, bulk, 4 * r, policy.uqw_s_max):
        need = len(s) + 2
        far, _, _ = far_members_induced(g, b, z, s, r)
        if len(far) < need:
            continue
        if s:
            groups = profile_classes_via_profile(g, far, s, r)
        else:
            groups = (far,)
        for cls in groups:
            if len(cls) >= need:
                return IrrelevanceCertificate(z, s, cls, r, d)
    return None


# The removal round loop, its splitter, the closure and the path closure
# as they were before the loop carried the closure and the profile keys
# from round to round, the closure picked from a heap, and the path
# closure found partners in each member's ball and stopped its walks at
# vertices walked before.  They are kept verbatim apart from their names
# (and the names of each other they call), so tests can pin the new ones
# to them.


def find_removable_class_fresh(
    g: Graph,
    members: Tuple[int, ...],
    z: Tuple[int, ...],
    r: int,
    policy: KernelPolicy,
) -> Optional[IrrelevanceCertificate]:
    """One round of the splitter: pick the largest profile class of
    A minus z, ladder up deletion sets at radius 4r, and return the
    first certificate whose far, profile and size conditions work out.
    """
    zset = set(z)
    candidates = tuple(x for x in members if x not in zset)
    if not candidates:
        return None
    classes = profile_classes(g, candidates, z, 2 * r)
    bulk = classes[0]
    d = r // 2
    # A rung with deletion set s certifies only with |s|+2 far members of
    # its b, a subset of bulk, so rungs past |bulk|-2 deletions are futile.
    s_max = min(policy.uqw_s_max, len(bulk) - 2)
    if s_max < 0:
        return None
    for s, b in scattered_ladder(g, bulk, 4 * r, s_max):
        need = len(s) + 2
        far = _far_members(g, b, z, s, r)
        if len(far) < need:
            continue
        for cls in profile_classes(g, far, s, r) if s else (far,):
            if len(cls) >= need:
                return IrrelevanceCertificate(z, s, cls, r, d)
    return None


def remove_irrelevant_rounds(
    g: Graph,
    a: Iterable[int],
    k: int,
    r: int,
    policy: Optional[KernelPolicy] = None,
) -> Tuple[Tuple[int, ...], RemovalLog]:
    """Repeatedly find a certificate and remove a batch of its class
    (smallest ids first, one at a time while at least |s|+2 class
    members and k members remain and the removal cap allows), until no
    certificate is found, the cap is hit, or fewer than k members
    remain.  Every round rebuilds the cover, the closure and the class.

    Every logged certificate has passed check_certificate against the
    member set its batch was applied to.
    """
    if r < 1:
        raise GraphError("radius must be at least 1")
    if k < 1:
        raise GraphError("threshold must be at least 1")
    policy = policy or KernelPolicy()
    cap = math.inf if policy.max_rounds is None else policy.max_rounds
    members = vset(a, g)
    log: List[Tuple[IrrelevanceCertificate, Tuple[int, ...]]] = []
    removals = 0
    d = r // 2
    while len(members) >= k:
        if removals >= cap:
            break
        dom = greedy_ball_cover(g, members, d)
        target = policy.closure_target or max(1, math.ceil(len(dom) ** 0.2))
        closed = closure_maxscan(g, dom, 2 * r, target)
        cert = find_removable_class_fresh(g, members, closed.closed_set, r, policy)
        if cert is None:
            break
        name = check_certificate(g, members, cert)
        if name is not None:
            raise RuntimeError(f"internal: pipeline emitted a bad certificate ({name})")
        batch: List[int] = []
        for victim in cert.l_prime:
            left = len(cert.l_prime) - len(batch)
            if left < len(cert.s) + 2 or len(members) < k or removals >= cap:
                break
            members = tuple(v for v in members if v != victim)
            batch.append(victim)
            removals += 1
        log.append((cert, tuple(batch)))
    return members, tuple(log)


def closure_maxscan(g: Graph, x: Iterable[int], r: int, target: int) -> ClosureResult:
    """Grow x until every outside vertex projects onto at most target
    members of the grown set, by repeatedly absorbing the outside vertex
    with the largest projection (smallest id on ties).  The fixpoint is
    reached after at most n additions.
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
            return ClosureResult(tuple(sorted(closed)), mx, additions, target)
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


def path_closure_pairs(g: Graph, x: Iterable[int], r: int) -> Tuple[int, ...]:
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


# uqw.scattered_ladder and its greedy packing as they were before both
# read one ball-trace table per rung (a BallTraces on the members,
# blocked at the deleted set) instead of one search per picked member and
# one per non-member.  They are kept verbatim apart from their names (and
# the name of each other they call), so tests can pin the table-based
# ladder to them.


def greedy_scattered_bfs(g: Graph, members: Tuple[int, ...], removed: set, r: int) -> Tuple[int, ...]:
    """Ascending-id greedy packing: take a member, drop every member
    within r of it in the graph minus removed."""
    alive = set(members) - removed
    picked: List[int] = []
    for v in members:
        if v in alive:
            picked.append(v)
            alive.difference_update(multi_source_distances(g, (v,), r, removed))
    return tuple(picked)


def scattered_ladder_bfs(
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
        yield tuple(deleted), greedy_scattered_bfs(g, members, removed, r)
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


# The level-BFS loops and the greedy level descent as they were before
# they became calls of multi_source_distances, the short-cycle search in
# graph.py and graph._descend: projections._avoiding_bfs, the dict-based
# cycle search and trim of generators.trim_short_cycles, and the walk
# inside ballvc.extract_minor_model.  They are kept verbatim apart from
# their names (walk takes its closure's g and dist_to as arguments), so
# tests can pin the shared ones to them.


def avoiding_bfs(g, source: int, boundary: set, cutoff: int) -> Dict[int, int]:
    """Shortest lengths of paths from source whose interior avoids the
    boundary: boundary vertices are recorded when reached, never expanded."""
    dist = {source: 0}
    frontier = [source]
    depth = 0
    adj = g.adjacency
    while frontier and depth < cutoff:
        depth += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = depth
                    if w not in boundary:
                        nxt.append(w)
        frontier = nxt
    return dist


def bfs_short_cycle(adj: List[Dict[int, int]], root: int, d: int):
    """Shortest cycle of length <= d visible from a BFS at root, as a vertex
    sequence, or None.  adj is a mutable neighbor->multiplicity view of a
    simple graph."""
    cap = d // 2
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    depth = 0
    while frontier and depth < cap:
        depth += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = depth
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
            if cand <= d and (best is None or (cand, u, w) < best):
                best = (cand, u, w)
    if best is None:
        return None
    _, u, w = best
    # walk both endpoints up to their lowest common ancestor
    up, wp = [u], [w]
    a, b = u, w
    while dist[a] > dist[b]:
        a = parent[a]
        up.append(a)
    while dist[b] > dist[a]:
        b = parent[b]
        wp.append(b)
    while a != b:
        a = parent[a]
        up.append(a)
        b = parent[b]
        wp.append(b)
    cycle = up + wp[-2::-1]  # u .. lca .. w, closed by the edge (w, u)
    return cycle


def trim_short_cycles(n: int, pairs: Iterable[Tuple[int, int]], d: int) -> Tuple[Graph, int]:
    """Delete one edge from every cycle of length <= d of the multigraph
    on n vertices with the given (u, v) pairs until none remains; returns
    the simple graph left and the number of edges removed.

    Loops are 1-cycles and repeated pairs 2-cycles.  Among the edges of a
    found cycle, the lexicographically smallest is removed.  Edge removal
    never creates cycles, so a single pass over root vertices with a local
    fixpoint at each reaches the global fixpoint.  The search visits
    neighbours in the order the pairs first list them.
    """
    if d < 1:
        raise GraphError("trim threshold must be >= 1")
    adj: List[Dict[int, int]] = [dict() for _ in range(n)]
    removed = 0
    for u, v in pairs:
        if u == v:
            removed += 1  # every loop is a 1-cycle
            continue
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    if d >= 2:
        for u in range(n):
            for v, mult in list(adj[u].items()):
                if v > u and mult > 1:
                    removed += mult - 1
                    adj[u][v] = adj[v][u] = 1
    if d >= 3:
        for root in range(n):
            while True:
                cycle = bfs_short_cycle(adj, root, d)
                if cycle is None:
                    break
                closed = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
                eu, ev = min((min(a, b), max(a, b)) for a, b in closed)
                del adj[eu][ev]
                del adj[ev][eu]
                removed += 1
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph(n, edges), removed


def walk(g, dist_to, u, target):
    # greedy descent along BFS levels toward target, smallest id first
    d = dist_to[target]
    path = [u]
    cur = u
    while cur != target:
        cur = min(x for x in g.adjacency[cur] if d.get(x) == d[cur] - 1)
        path.append(cur)
    return path


# generators.gnm_random as it was before it sampled pair indices instead
# of a list of every pair, kept verbatim apart from its name, so tests can
# pin the index decoding to it.


def gnm_random_listed(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with n vertices and m edges (seeded)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if m > len(pairs):
        raise GraphError(f"m={m} exceeds the {len(pairs)} available pairs")
    rng = random.Random(seed)
    return Graph(n, rng.sample(pairs, m))


# ballvc's pair-shattering search on per-pair residue lists, with the
# residue build of two_vc_dimension, and wcol.greedy_ball_cover on
# per-vertex ball sets, as they were before both read bitmask ball traces.
# They are kept verbatim apart from their names (and the names of each
# other they call) and the residue build's input, which is now the
# member tuple and one trace mask per center instead of a set system,
# so tests can pin the trace-based ones to them.


def search_pair_shattered_residues(
    n: int, residues: Dict[Tuple[int, int], List[int]]
) -> int:
    """Largest subset (as a bitmask) in which every internal pair keeps
    at least one residue mask disjoint from the subset.

    residues[(i, j)] holds, for each member containing both i and j,
    the mask of its other elements; the pair stays realizable inside X
    while some residue avoids X entirely.
    """
    best_mask = 0
    best_size = 0

    def dfs(start, x_mask, x_size, alive):
        nonlocal best_mask, best_size
        if x_size > best_size:
            best_size, best_mask = x_size, x_mask
        if x_size + (n - start) <= best_size:
            return
        for x in range(start, n):
            bit = 1 << x
            nxt = {}
            ok = True
            for pair, masks in alive.items():
                kept = [m for m in masks if not m & bit]
                if not kept:
                    ok = False
                    break
                nxt[pair] = kept
            if not ok:
                continue
            y = x_mask
            while ok and y:
                b = y & -y
                y ^= b
                i = b.bit_length() - 1
                pair = (i, x) if i < x else (x, i)
                masks = residues.get(pair)
                if masks is None:
                    ok = False
                    break
                kept = [m for m in masks if not m & (x_mask | bit)]
                if not kept:
                    ok = False
                    break
                nxt[pair] = kept
            if ok:
                dfs(x + 1, x_mask | bit, x_size + 1, nxt)

    dfs(0, 0, 0, {})
    return best_mask


def two_vc_dimension_residues(
    uni: Sequence[int], masks: Sequence[int], limit: int = 24
) -> Tuple[int, Optional[TwoShatterWitness]]:
    """Largest set size all of whose 2-element subsets appear as exact
    traces of the system, together with one witness at the maximum.
    Bit i of masks[c] puts uni[i] in the set of center c."""
    n = len(uni)
    if n > limit:
        raise OracleLimitError(
            f"pair-shattering search limited to {limit} elements, got {n}"
        )
    if n == 0:
        return 0, None
    idx = {v: i for i, v in enumerate(uni)}
    residues: Dict[Tuple[int, int], List[int]] = {}
    for m in masks:
        bits = []
        mm = m
        while mm:
            b = mm & -mm
            mm ^= b
            bits.append(b.bit_length() - 1)
        for p in range(len(bits)):
            for q in range(p + 1, len(bits)):
                pair = (bits[p], bits[q])
                residues.setdefault(pair, []).append(
                    m & ~(1 << bits[p]) & ~(1 << bits[q])
                )
    best = search_pair_shattered_residues(n, residues)
    members = tuple(uni[i] for i in range(n) if (best >> i) & 1)
    mem_mask = best
    pair_witnesses: Dict[Tuple[int, int], int] = {}
    for p in range(len(members)):
        for q in range(p + 1, len(members)):
            i, j = idx[members[p]], idx[members[q]]
            want = (1 << i) | (1 << j)
            for center, m in enumerate(masks):
                if m & mem_mask == want:
                    pair_witnesses[(members[p], members[q])] = center
                    break
    return len(members), TwoShatterWitness(members, pair_witnesses)


def greedy_ball_cover_sets(g: Graph, a: Iterable[int], r: int) -> Tuple[int, ...]:
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


# oracle.lp_packing, moved here verbatim: the packing solve, which
# lp_domination now solves itself, and lp_cover, the cover LP through the
# dense simplex's phase 1 over this module's distances, so that tests and
# acceptance criteria check each side lp_domination reports against a
# second solve.


def lp_packing(g: Graph, a: Iterable[int], r: int) -> LpSolution:
    """Fractional packing optimum: nonnegative weights on a, every vertex of
    the graph sees total weight <= 1 inside its r-ball.  By LP duality this
    equals lp_domination on the same instance; at the reporting layer its
    value is quoted with doubled radius (weights r-close to a common vertex
    pairwise interact within 2r)."""
    members = vset(a, g)
    masks = ball_masks(g, members, r)
    rows = [[F1 if m >> i & 1 else F0 for i in range(len(members))] for m in masks if m]
    res = solve_max([F1] * len(members), rows, [F1] * len(rows))
    _audit_packing(masks, res.x, res.value)
    return LpSolution(res.value, dict(zip(members, res.x)))


def lp_cover(g: Graph, a: Iterable[int], r: int) -> LpSolution:
    """Fractional cover optimum: nonnegative weights on V, each member of
    a sees total weight >= 1 inside its r-ball; solved negated, as
    max -1.x subject to -rows.x <= -1, by dense_solve_max."""
    dm = dist_matrix(g)
    rows = [[-1 if dm[u].get(v, INF) <= r else 0 for v in range(g.n)] for u in sorted(set(a))]
    value, x = dense_solve_max([-1] * g.n, rows, [-1] * len(rows))
    return LpSolution(-value, dict(enumerate(x)))


# oracle.lp_domination with its cover and packing audits on per-member
# distance dicts instead of the bitmask ball traces (the same solve, rows
# and column order), and oracle.find_clique_minor's floor-skipping walk
# over the recursive connected-set enumeration as it was before it dropped
# its recursion and rescans, kept verbatim apart from the names (and the
# names of each other they call) and the minor walk's radius test, now
# minor_model_holds on a one-set model so that it shares no code with the
# search's, so tests can pin the current ones to them.


def lp_domination_balls(g: Graph, a: Iterable[int], r: int) -> LpSolution:
    """Fractional covering optimum: nonnegative weights on all of V, each
    member of a must see total weight >= 1 inside its r-ball, read from the
    row duals of the packing solve (see lp_packing), one row per vertex.
    Both weight vectors are audited for feasibility and for equal totals,
    which by weak duality certifies that each is optimal."""
    members = vset(a, g)
    balls = {u: distances_from(g, u, r) for u in members}
    rows = [[F1 if v in balls[u] else F0 for u in members] for v in range(g.n)]
    res = solve_max([F1] * len(members), rows, [F1] * g.n)
    weights = {v: res.y[v] for v in range(g.n)}
    _audit_cover_balls(balls, weights, res.value)
    packing = dict(zip(members, res.x))
    _audit_packing_balls(g.n, balls, packing, res.value)
    return LpSolution(res.value, weights, LpSolution(res.value, packing))


def _audit_cover_balls(balls, weights, value):
    if any(w < 0 for w in weights.values()):
        raise RuntimeError("internal: negative covering weight")
    if sum(weights.values(), F0) != value:
        raise RuntimeError("internal: covering value mismatch")
    for u, near in balls.items():
        if sum(weights[v] for v in near) < 1:
            raise RuntimeError("internal: covering constraint violated")


def _audit_packing_balls(n, balls, weights, value):
    if any(w < 0 for w in weights.values()):
        raise RuntimeError("internal: negative packing weight")
    if sum(weights.values(), F0) != value:
        raise RuntimeError("internal: packing value differs from the cover value")
    load = [F0] * n
    for u, near in balls.items():
        w = weights[u]
        if w:
            for v in near:
                load[v] += w
    if any(x > 1 for x in load):
        raise RuntimeError("internal: packing constraint violated")


def connected_sets_bounded_recursive(adjm: List[int], cap: int) -> List[int]:
    """Bitmasks of all connected vertex sets of size <= cap in the graph
    whose vertex v has the neighbour bitmask adjm[v]."""
    n = len(adjm)
    out: List[int] = []

    def rec(s_mask, s_size, ext, forb, allowed):
        out.append(s_mask)
        if s_size == cap:
            return
        while ext:
            b = ext & -ext
            ext ^= b
            w = b.bit_length() - 1
            nxt = (ext | (adjm[w] & allowed)) & ~(s_mask | b | forb)
            rec(s_mask | b, s_size + 1, nxt, forb, allowed)
            forb |= b

    full = (1 << n) - 1
    for v in range(n):
        allowed = full & ~((1 << (v + 1)) - 1)
        rec(1 << v, 1, adjm[v] & allowed, 0, allowed)
    return out


def find_clique_minor_floor(
    g: Graph, t: int, r: int, vertex_limit: int = 16
) -> Optional[MinorModel]:
    """Search exhaustively for a depth-r model of the complete graph on t
    branch sets; returns a validated model or None.

    Any model can be shrunk until each branch set is a union of at most
    t-1 paths of length <= r from its center, so only connected sets of
    size up to 1 + (t-1)*r need to be enumerated.
    """
    if t < 1:
        raise GraphError("clique minor order must be >= 1")
    if t > 5:
        raise OracleLimitError("clique-minor search limited to t <= 5")
    if g.n > vertex_limit:
        raise OracleLimitError(
            f"clique-minor search limited to {vertex_limit} vertices, got {g.n}"
        )
    if t == 1:
        if g.n == 0:
            return None
        return MinorModel(((0,),), r)
    cap = 1 + (t - 1) * r
    adjm = [0] * g.n
    for u, v in g.edges:
        adjm[u] |= 1 << v
        adjm[v] |= 1 << u

    def unpack(mask):
        return tuple(i for i in range(g.n) if (mask >> i) & 1)

    cands = []
    for mask in connected_sets_bounded_recursive(adjm, cap):
        members = frozenset(unpack(mask))
        if minor_model_holds(g, MinorModel((tuple(members),), r)):
            nbr = 0
            for v in members:
                nbr |= adjm[v]
            cands.append((mask & -mask, mask, nbr))
    cands.sort()

    def dfs(chosen, used, floor):
        if len(chosen) == t:
            return list(chosen)
        for low, mask, nbr in cands:
            if low <= floor:
                continue
            if mask & used:
                continue
            if any(mask & cn == 0 for _, _, cn in chosen):
                continue
            got = dfs(chosen + [(low, mask, nbr)], used | mask, low)
            if got:
                return got
        return None

    found = dfs([], 0, 0)
    if found is None:
        return None
    model = MinorModel(tuple(unpack(mask) for _, mask, _ in found), r)
    validate_minor_model(g, model)
    return model


# oracle.domination_number as it was before its search also pruned on a
# greedy packing of the uncovered members (alpha_2r <= gamma_r), when
# ceil(|uncovered| / largest gain) was its only lower bound.  It is kept
# verbatim apart from its name, so tests can pin the packing-bounded
# search to it, witness included.


def domination_number_gain_bound(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Smallest set of graph vertices whose r-balls cover a, with witness."""
    members = vset(a, g)
    if len(members) > limit:
        raise OracleLimitError(
            f"domination oracle limited to |A| <= {limit}, got {len(members)}"
        )
    if not members:
        return 0, ()
    by_mask: Dict[int, int] = {}
    for v, m in enumerate(ball_masks(g, members, r)):
        if m and m not in by_mask:
            by_mask[m] = v
    masks = sorted(by_mask, key=lambda m: (-m.bit_count(), by_mask[m]))
    kept: List[int] = []
    for m in masks:
        if not any(m & o == m for o in kept):
            kept.append(m)
    full = (1 << len(members)) - 1
    covering_sets: Dict[int, List[int]] = {i: [] for i in range(len(members))}
    for m in kept:
        for i in range(len(members)):
            if (m >> i) & 1:
                covering_sets[i].append(m)

    # greedy upper bound
    best: List[int] = []
    unc = full
    while unc:
        pick = max(kept, key=lambda m: ((m & unc).bit_count(), -by_mask[m]))
        best.append(pick)
        unc &= ~pick
    best_len = len(best)

    def search(unc, chosen):
        nonlocal best, best_len
        if not unc:
            if len(chosen) < best_len:
                best = list(chosen)
                best_len = len(best)
            return
        max_gain = max((m & unc).bit_count() for m in kept)
        need = -(-unc.bit_count() // max_gain)  # ceil
        if len(chosen) + need >= best_len:
            return
        e = min(
            (i for i in range(len(members)) if (unc >> i) & 1),
            key=lambda i: len(covering_sets[i]),
        )
        options = sorted(
            covering_sets[e], key=lambda m: (-(m & unc).bit_count(), by_mask[m])
        )
        for m in options:
            chosen.append(m)
            search(unc & ~m, chosen)
            chosen.pop()

    search(full, [])
    return best_len, tuple(sorted(by_mask[m] for m in best))


# oracle.independence_number as it was when one _max_clique walk over the
# members in id order found both the size and the witness, before one
# walk in MCQ order did.  It is kept verbatim apart from its name, so
# tests can pin the MCQ-order value to it; the two walks reach different
# first maximum cliques, so witnesses are checked by distance instead.


def independence_number_id_order(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Largest subset of a with pairwise distance > r, with a witness,
    which is checked by BFS at r before it is returned."""
    if r < 0:
        raise GraphError("radius must be >= 0")
    members = vset(a, g)
    if len(members) > limit:
        raise OracleLimitError(
            f"independence oracle limited to |A| <= {limit}, got {len(members)}"
        )
    if not members:
        return 0, ()
    n = len(members)
    masks = ball_masks(g, members, r)
    full = (1 << n) - 1
    # members[i]'s own trace holds bit i, so comp[i] has no loop
    comp = [full & ~masks[v] for v in members]
    size, mask = _max_clique(n, comp)
    witness = tuple(members[i] for i in range(n) if (mask >> i) & 1)
    if not is_distance_independent(g, witness, r):
        raise RuntimeError("internal: invalid independence witness")
    return size, witness


# oracle.domination_number as it was when its branching member came from
# a scan over every member index, before it walked only the uncovered
# members' bits.  It is kept verbatim apart from its name, so tests can
# pin the new scan to it, witness included.


def domination_number_index_scan(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Smallest set of graph vertices whose r-balls cover a, with witness.

    Branch and bound on the members' ball traces, on _walk: a node is the
    uncovered members and the balls chosen.  It is pruned by two lower
    bounds on the balls still needed: a greedy packing of uncovered members
    no two of which share a ball (the duality alpha_2r <= gamma_r,
    restricted to what is left) and ceil(|uncovered| / largest gain).
    Branches keep their order and the best cover is replaced only by a
    strictly smaller one, so neither bound changes the witness.  The
    witness is checked to dominate a at r before it is returned."""
    if r < 0:
        raise GraphError("radius must be >= 0")
    members = vset(a, g)
    if len(members) > limit:
        raise OracleLimitError(
            f"domination oracle limited to |A| <= {limit}, got {len(members)}"
        )
    if not members:
        return 0, ()
    by_mask: Dict[int, int] = {}
    for v, m in enumerate(ball_masks(g, members, r)):
        if m and m not in by_mask:
            by_mask[m] = v
    masks = sorted(by_mask, key=lambda m: (-m.bit_count(), by_mask[m]))
    kept: List[int] = []
    for m in masks:
        if not any(m & o == m for o in kept):
            kept.append(m)
    full = (1 << len(members)) - 1
    covering_sets: Dict[int, List[int]] = {i: [] for i in range(len(members))}
    near = [0] * len(members)  # the members that share a kept ball with i
    for m in kept:
        for i in range(len(members)):
            if (m >> i) & 1:
                covering_sets[i].append(m)
                near[i] |= m

    # greedy upper bound
    best: Tuple[int, ...] = ()
    unc = full
    while unc:
        pick = max(kept, key=lambda m: ((m & unc).bit_count(), -by_mask[m]))
        best += (pick,)
        unc &= ~pick
    best_len = len(best)

    def children(node):
        unc, chosen = node
        # uncovered members pairwise in no common ball each need a ball;
        # a cover has none left, so this cut also ends every leaf
        packed = 0
        rest = unc
        while rest:
            packed += 1
            rest &= ~near[(rest & -rest).bit_length() - 1]
        if len(chosen) + packed >= best_len:
            return
        max_gain = max((m & unc).bit_count() for m in kept)
        need = -(-unc.bit_count() // max_gain)  # ceil
        if len(chosen) + need >= best_len:
            return
        e = min(
            (i for i in range(len(members)) if (unc >> i) & 1),
            key=lambda i: len(covering_sets[i]),
        )
        options = sorted(
            covering_sets[e], key=lambda m: (-(m & unc).bit_count(), by_mask[m])
        )
        for m in options:
            yield unc & ~m, chosen + (m,)

    for unc, chosen in _walk((full, ()), children):
        if not unc and len(chosen) < best_len:
            best, best_len = chosen, len(chosen)
    witness = tuple(sorted(by_mask[m] for m in best))
    if not is_distance_dominating(g, witness, members, r):
        raise RuntimeError("internal: invalid domination witness")
    return best_len, witness


# ballvc._search_pair_shattered as it was when each child took the
# candidates sharing any mask with the element that joined (cands &
# co[y]) and every candidate's test worked out each pair mask of X
# again.  It is kept verbatim apart from its name, so tests can pin the
# search that carries its pair masks and cuts candidates to the masks
# missing X to it, mask for mask.


def search_pair_shattered_co(n: int, masks: List[int]) -> int:
    """Largest X (as a bitmask) every 2-element subset of which is a
    trace m & X of some mask; the first found when elements are added
    in ascending order on _walk.

    An element can only join X if it shares a mask with every element
    of X, so the candidates are cut by the co-occurrence mask co[x] of
    each element x that joins.  Traces are tested bit-parallel over the
    masks: inc[x] marks the masks that hold x, and one, two and three
    mark the masks that meet X at least once, twice and three times, so
    {x, y} is a trace exactly when inc[x] & inc[y] & two & ~three != 0.
    """
    masks = {m for m in masks if m & (m - 1)}  # smaller sets trace no pair
    co = [0] * n
    inc = [0] * n
    for j, m in enumerate(masks):
        y = m
        while y:
            b = y & -y
            y ^= b
            co[b.bit_length() - 1] |= m
            inc[b.bit_length() - 1] |= 1 << j
    best_mask, best_size = 0, 0

    def children(node):
        x_mask, xs, cands, one, two, three = node
        while len(xs) + cands.bit_count() > best_size:
            b = cands & -cands
            cands ^= b
            y = b.bit_length() - 1
            iy = inc[y]
            two_y, three_y = two | (one & iy), three | (two & iy)
            exact = two_y & ~three_y  # the masks that meet X + y twice
            with_y = iy & exact
            if all(inc[x] & with_y for x in xs) and all(
                inc[x] & inc[z] & exact for i, x in enumerate(xs) for z in xs[i + 1:]
            ):
                yield x_mask | b, xs + (y,), cands & co[y], one | iy, two_y, three_y

    for x_mask, xs, *_ in _walk((0, (), (1 << n) - 1, 0, 0, 0), children):
        if len(xs) > best_size:
            best_size, best_mask = len(xs), x_mask
    return best_mask


# oracle.domination_number as it was when each node scanned every kept
# ball for its largest gain and took its branching member as the min over
# the uncovered bits of the number of kept balls that hold each, before
# the scan stopped at the first ball no larger than the best gain and the
# member came from one mask per ball count.  It is kept verbatim apart
# from its name, so tests can pin the cheaper nodes to it, witness
# included.


def domination_number_full_scan(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Smallest set of graph vertices whose r-balls cover a, with witness.

    Branch and bound on the members' ball traces, on _walk: a node is the
    uncovered members and the balls chosen.  It is pruned by two lower
    bounds on the balls still needed: a greedy packing of uncovered members
    no two of which share a ball (the duality alpha_2r <= gamma_r,
    restricted to what is left) and ceil(|uncovered| / largest gain),
    tried first with the parent's largest gain, which is no smaller, so
    that the scan over every kept ball runs only where that does not cut.
    The incumbent starts at |a| + 1 balls, which no bound reaches before
    the first leaf because each chosen ball covers a new member; so the
    first leaf is the first incumbent, only a strictly smaller cover
    replaces it, and the witness is the walk's first minimum cover.  It
    is checked to dominate a at r before it is returned."""
    members, table = _member_traces(
        g, a, r, limit, "domination oracle limited to |A| <= {limit}, got {n}"
    )
    if not members:
        return 0, ()
    by_mask: Dict[int, int] = {}
    for v, m in enumerate(table):
        if m and m not in by_mask:
            by_mask[m] = v
    masks = sorted(by_mask, key=lambda m: (-m.bit_count(), by_mask[m]))
    kept: List[int] = []
    for m in masks:
        if not any(m & o == m for o in kept):
            kept.append(m)
    full = (1 << len(members)) - 1
    covering_sets: List[List[int]] = [[] for _ in members]
    near = [0] * len(members)  # the members that share a kept ball with i
    for m in kept:
        for i in _bits(m):
            covering_sets[i].append(m)
            near[i] |= m
    ways = [len(c) for c in covering_sets]
    best, best_len = (), len(members) + 1

    def children(node):
        unc, chosen, gain = node
        # uncovered members pairwise in no common ball each need a ball;
        # a cover has none left, so this cut also ends every leaf
        packed = 0
        rest = unc
        while rest:
            packed += 1
            rest &= ~near[(rest & -rest).bit_length() - 1]
        if len(chosen) + packed >= best_len:
            return
        # the parent's largest gain is no smaller than this node's, so its
        # bound cuts only where the exact one does, without the scan
        left = unc.bit_count()
        if len(chosen) - (-left // gain) >= best_len:  # + ceil(left / gain)
            return
        gain = max((m & unc).bit_count() for m in kept)
        if len(chosen) - (-left // gain) >= best_len:
            return
        # min keeps the first of equal counts: ties go to the lowest member
        e = min(_bits(unc), key=ways.__getitem__)
        options = sorted(
            covering_sets[e], key=lambda m: (-(m & unc).bit_count(), by_mask[m])
        )
        for m in options:
            yield unc & ~m, chosen + (m,), gain

    # kept is sorted by size, so kept[0] has the root's largest gain
    for unc, chosen, _ in _walk((full, (), kept[0].bit_count()), children):
        if not unc and len(chosen) < best_len:
            best, best_len = chosen, len(chosen)
    witness = tuple(sorted(by_mask[m] for m in best))
    if not is_distance_dominating(g, witness, members, r):
        raise RuntimeError("internal: invalid domination witness")
    return best_len, witness
