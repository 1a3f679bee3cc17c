"""Slow reference implementations for the tests.

Everything here is written directly against Graph.n and Graph.edges,
independent of the library's own BFS/oracle code paths, so the two
sides of every comparison are computed by different routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from drisk.graph import (
    GraphError,
    induced_subgraph,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)
from drisk.kernel import IrrelevanceCertificate
from drisk.projections import ClosureResult, profile
from drisk.simplex import LpInfeasible, LpUnbounded, SimplexStall
from drisk.uqw import find_uqw, scattered_ladder

INF = math.inf


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


# The dense-update simplex that the sparse pivot in `drisk.simplex`
# replaced, kept verbatim (it returns (value, x) instead of an LpOptimum).
# It raises drisk's own exception types, so the two can be compared.

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


# The removal pipeline's pieces as they were before the deleted-graph
# checks ran as blocked BFS, the closure rescanned only what an absorbed
# vertex touched, profile classes skipped profile(), and the deletion
# ladder was capped at |bulk| - 2.  They are kept verbatim apart from
# their names (and the names of each other they call), so tests can pin
# the new ones to them.


def closure_rescan(g, x: Iterable[int], r: int, target: int, max_additions: Optional[int] = None) -> ClosureResult:
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
            return ClosureResult(
                tuple(sorted(closed)), mx, additions, True, target
            )
        if max_additions is not None and additions >= max_additions:
            return ClosureResult(
                tuple(sorted(closed)), mx, additions, False, target
            )
        best = max(sizes, key=lambda u: (sizes[u], -u))
        closed.add(best)
        additions += 1


def profile_classes_via_profile(g, candidates: Iterable[int], boundary: Iterable[int], r: int) -> Tuple[Tuple[int, ...], ...]:
    cands = vset(candidates, g)
    bound = vset(boundary, g)
    if set(cands) & set(bound):
        raise GraphError("candidates may not meet the boundary")
    groups: Dict[Tuple[float, ...], List[int]] = {}
    for u in cands:
        groups.setdefault(profile(g, u, bound, r).key(), []).append(u)
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
        keys = {profile(g, x, cert.s, cert.r).key() for x in cert.l_prime}
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
    if policy.uqw_m is not None:
        found = find_uqw(g, bulk, 4 * r, policy.uqw_m, policy.uqw_s_max)
        rungs = [(found.s, found.b)] if found else []
    else:
        rungs = scattered_ladder(g, bulk, 4 * r, policy.uqw_s_max)
    for s, b in rungs:
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


# The level-BFS loops and the greedy level descent as they were before
# they became calls of multi_source_distances, graph._shortest_cycle_at
# and graph._descend: projections._avoiding_bfs,
# generators._bfs_short_cycle and the walk inside
# ballvc.extract_minor_model.  They are kept verbatim apart from their
# names (walk takes its closure's g and dist_to as arguments), so tests
# can pin the shared ones to them.


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


def walk(g, dist_to, u, target):
    # greedy descent along BFS levels toward target, smallest id first
    d = dist_to[target]
    path = [u]
    cur = u
    while cur != target:
        cur = min(x for x in g.adjacency[cur] if d.get(x) == d[cur] - 1)
        path.append(cur)
    return path
