"""Exact ground-truth solvers: distance-r independence and domination
numbers, the two annotated linear relaxations, and brute-force
depth-bounded clique-minor search.

These are the oracles everything else is judged against, so they favor
clarity and verifiability over speed and refuse instances beyond their
configured search limits instead of degrading silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

from .graph import Graph, GraphError, distances_from, vset
from .simplex import solve_max, solve_min

F0 = Fraction(0)
F1 = Fraction(1)


class OracleLimitError(Exception):
    """Typed refusal: the instance exceeds a configured search limit."""


# ---------------------------------------------------------------------------
# exact independence via maximum clique in the conflict complement


def _max_clique(n: int, adj: List[int]) -> Tuple[int, int]:
    """Maximum clique on a bitmask adjacency; returns (size, mask).

    Branch and bound with a greedy coloring bound; deterministic.  The
    search keeps its own stack of frames, so its depth (the size of the
    clique under construction) is not limited by Python's recursion limit.
    """
    best_size = 0
    best_mask = 0

    def colored(rsize, rmask, cand):
        # greedy coloring: branch on vertices from the last color class down
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
        return [rsize, rmask, cand, order, bound, len(order) - 1]

    stack = [colored(0, 0, (1 << n) - 1)] if n else []
    while stack:
        frame = stack[-1]
        rsize, rmask, cand, order, bound, i = frame
        if i < 0 or rsize + bound[i] <= best_size:
            stack.pop()
            continue
        v = order[i]
        frame[2] = cand & ~(1 << v)
        frame[5] = i - 1
        sub = cand & adj[v]
        if sub:
            stack.append(colored(rsize + 1, rmask | (1 << v), sub))
        elif rsize + 1 > best_size:
            best_size, best_mask = rsize + 1, rmask | (1 << v)
    return best_size, best_mask


def independence_number(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Largest subset of a with pairwise distance > r, with a witness."""
    members = vset(a, g)
    if len(members) > limit:
        raise OracleLimitError(
            f"independence oracle limited to |A| <= {limit}, got {len(members)}"
        )
    if not members:
        return 0, ()
    idx = {v: i for i, v in enumerate(members)}
    n = len(members)
    conflict = [0] * n
    for i, v in enumerate(members):
        for w in distances_from(g, v, r):
            j = idx.get(w)
            if j is not None and j != i:
                conflict[i] |= 1 << j
    full = (1 << n) - 1
    comp = [(full ^ (1 << i)) & ~conflict[i] for i in range(n)]
    size, mask = _max_clique(n, comp)
    witness = tuple(members[i] for i in range(n) if (mask >> i) & 1)
    return size, witness


# ---------------------------------------------------------------------------
# exact domination via set-cover branch and bound


def domination_number(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Smallest set of graph vertices whose r-balls cover a, with witness."""
    members = vset(a, g)
    if len(members) > limit:
        raise OracleLimitError(
            f"domination oracle limited to |A| <= {limit}, got {len(members)}"
        )
    if not members:
        return 0, ()
    idx = {v: i for i, v in enumerate(members)}
    cover: Dict[int, int] = {}
    for i, u in enumerate(members):
        for v in distances_from(g, u, r):
            cover[v] = cover.get(v, 0) | (1 << i)
    by_mask: Dict[int, int] = {}
    for v in sorted(cover):
        m = cover[v]
        if m not in by_mask:
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


# ---------------------------------------------------------------------------
# exact linear relaxations


@dataclass(frozen=True)
class LpSolution:
    """Exact optimum of one relaxation: total value plus per-vertex weights.

    `dual`, when set, is the optimum of the other relaxation, read from the
    same solve's row duals and audited on its own."""

    value: Fraction
    weights: Dict[int, Fraction]
    dual: Optional["LpSolution"] = None


def lp_domination(g: Graph, a: Iterable[int], r: int) -> LpSolution:
    """Fractional covering optimum: nonnegative weights on all of V, each
    member of a must see total weight >= 1 inside its r-ball.

    Its `dual` is the fractional packing optimum (see lp_packing), read from
    the covering solve's row duals.  Both weight vectors are audited for
    feasibility and for equal totals, which by weak duality certifies that
    each is optimal."""
    members = vset(a, g)
    if not members:
        return LpSolution(F0, {v: F0 for v in range(g.n)}, LpSolution(F0, {}))
    balls = {u: distances_from(g, u, r) for u in members}
    rows = [[F1 if v in balls[u] else F0 for v in range(g.n)] for u in members]
    res = solve_min([F1] * g.n, rows, [F1] * len(rows))
    weights = {v: res.x[v] for v in range(g.n)}
    _audit_cover(balls, weights, res.value)
    packing = dict(zip(members, res.y))
    _audit_packing(g.n, balls, packing, res.value)
    return LpSolution(res.value, weights, LpSolution(res.value, packing))


def lp_packing(g: Graph, a: Iterable[int], r: int) -> LpSolution:
    """Fractional packing optimum: nonnegative weights on a, every vertex of
    the graph sees total weight <= 1 inside its r-ball.  By LP duality this
    equals lp_domination on the same instance; at the reporting layer its
    value is quoted with doubled radius (weights r-close to a common vertex
    pairwise interact within 2r)."""
    members = vset(a, g)
    if not members:
        return LpSolution(F0, {})
    mem = set(members)
    col = {v: j for j, v in enumerate(members)}
    rows = []
    for u in range(g.n):
        near = [w for w in distances_from(g, u, r) if w in mem]
        if near:
            row = [F0] * len(members)
            for w in near:
                row[col[w]] = F1
            rows.append(row)
    res = solve_max([F1] * len(members), rows, [F1] * len(rows))
    weights = {v: res.x[col[v]] for v in members}
    total = sum(weights.values(), F0)
    if total != res.value or any(w < 0 for w in weights.values()):
        raise RuntimeError("internal: packing solution failed audit")
    for row in rows:
        s = sum(f * x for f, x in zip(row, res.x))
        if s > 1:
            raise RuntimeError("internal: packing constraint violated")
    return LpSolution(res.value, weights)


def _audit_cover(balls, weights, value):
    if any(w < 0 for w in weights.values()):
        raise RuntimeError("internal: negative covering weight")
    if sum(weights.values(), F0) != value:
        raise RuntimeError("internal: covering value mismatch")
    for u, near in balls.items():
        if sum(weights[v] for v in near) < 1:
            raise RuntimeError("internal: covering constraint violated")


def _audit_packing(n, balls, weights, value):
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


# ---------------------------------------------------------------------------
# depth-bounded clique minors


@dataclass(frozen=True)
class MinorModel:
    """Branch sets of a depth-bounded clique minor: pairwise disjoint,
    each connected with radius <= radius inside its own induced subgraph,
    every pair joined by at least one edge."""

    branch_sets: Tuple[Tuple[int, ...], ...]
    radius: int


def _radius_at_most(g: Graph, members: frozenset, r: int) -> bool:
    adj = g.adjacency
    size = len(members)
    for c in sorted(members):
        dist = {c: 0}
        frontier = [c]
        depth = 0
        while frontier and depth < r:
            depth += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w in members and w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        if len(dist) == size:
            return True
    return False


def validate_minor_model(g: Graph, model: MinorModel) -> None:
    """Raise GraphError unless model is a valid clique-minor model in g."""
    seen: set = set()
    for bs in model.branch_sets:
        if not bs:
            raise GraphError("empty branch set")
        s = set(bs)
        if s & seen:
            raise GraphError("branch sets overlap")
        if not all(0 <= v < g.n for v in s):
            raise GraphError("branch set out of range")
        seen |= s
        if not _radius_at_most(g, frozenset(s), model.radius):
            raise GraphError("branch set not connected within the radius bound")
    nbr = [
        set().union(*(g.adjacency[v] for v in bs)) if bs else set()
        for bs in model.branch_sets
    ]
    for i in range(len(model.branch_sets)):
        for j in range(i + 1, len(model.branch_sets)):
            if not nbr[i].intersection(model.branch_sets[j]):
                raise GraphError(f"no edge between branch sets {i} and {j}")


def _connected_sets_bounded(adjm: List[int], cap: int) -> List[int]:
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


def find_clique_minor(
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
    for mask in _connected_sets_bounded(adjm, cap):
        members = frozenset(unpack(mask))
        if _radius_at_most(g, members, r):
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
