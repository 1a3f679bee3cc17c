"""Exact ground-truth solvers: distance-r independence and domination
numbers, the fractional domination LP with its packing dual, and brute-force
depth-bounded clique-minor search.

These are the oracles everything else is judged against, so they favor
clarity and verifiability over speed, check every answer before they
return it, and refuse instances beyond their configured search limits
instead of degrading silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .graph import (
    BallTraces,
    Graph,
    GraphError,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)
from .simplex import solve_max

F0 = Fraction(0)
F1 = Fraction(1)


class OracleLimitError(Exception):
    """Typed refusal: the instance exceeds a configured search limit."""


def _member_traces(
    g: Graph, a: Iterable[int], r: int, limit: Optional[int] = None, refusal: str = ""
) -> Tuple[Tuple[int, ...], List[int]]:
    """The entry of the exact searches over a's members.  It refuses
    r < 0 and, when limit is given, a negative limit (GraphError) and
    more than limit members (OracleLimitError, worded by refusal, a
    format of limit and the member count n).  Returns the members,
    sorted, and their radius-r ball traces: bit i of masks[v] puts
    members[i] in the ball of v."""
    if r < 0:
        raise GraphError("radius must be >= 0")
    members = vset(a, g)
    if limit is not None:
        if limit < 0:
            raise GraphError("limit must be nonnegative")
        if len(members) > limit:
            raise OracleLimitError(refusal.format(limit=limit, n=len(members)))
    return members, BallTraces(g, members, r).masks


def _walk(root, children):
    """Yield a search tree's nodes in depth-first preorder, root first.

    children(node) generates a node's children.  The walk keeps a stack of
    these generators, not Python frames, and advances one only when it
    comes back to its node, so a bound read there sees every earlier node."""
    yield root
    stack = [children(root)]
    while stack:
        for node in stack[-1]:
            yield node
            stack.append(children(node))
            break
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# exact independence via maximum clique in the conflict complement


def _bits(mask: int):
    """Yield the indices of mask's set bits in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _max_clique(n: int, adj: List[int]) -> Tuple[int, int]:
    """Maximum clique on a bitmask adjacency; returns (size, mask).

    Branch and bound with a greedy coloring bound on _walk; deterministic.
    A node is (size, mask, candidates); one with no candidates is a leaf.
    The best is replaced only by a larger clique, so the mask is the first
    maximum clique the walk reaches."""
    best_size, best_mask = 0, 0

    def children(node):
        rsize, rmask, cand = node
        # greedy coloring: branch on vertices from the last color class down
        order, bound = [], []
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
            yield rsize + 1, rmask | (1 << v), cand & adj[v]
            cand &= ~(1 << v)

    for size, mask, cand in _walk((0, 0, (1 << n) - 1), children):
        if not cand and size > best_size:
            best_size, best_mask = size, mask
    return best_size, best_mask


def independence_number(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Largest subset of a with pairwise distance > r, with a witness,
    which is checked by BFS at r before it is returned.

    One clique walk on the conflict complement, with the members in MCQ
    order (Tomita and Seki, 2003): fewest conflicts first, ties by id.
    The witness is the walk's first maximum clique, sorted by id."""
    members, table = _member_traces(
        g, a, r, limit, "independence oracle limited to |A| <= {limit}, got {n}"
    )
    n = len(members)
    masks = [table[v] for v in members]
    full = (1 << n) - 1
    # each row is permuted from its sparse trace and then complemented,
    # since permuting the dense complement costs n^2 bits; members[i]'s
    # own trace holds bit i, so no row has a loop
    order = sorted(range(n), key=lambda i: masks[i].bit_count())
    pos = [0] * n
    for j, i in enumerate(order):
        pos[i] = j
    permuted = [full & ~sum(1 << pos[j] for j in _bits(masks[i])) for i in order]
    alpha, mask = _max_clique(n, permuted)
    witness = tuple(sorted(members[order[j]] for j in _bits(mask)))
    if len(witness) != alpha or not is_distance_independent(g, witness, r):
        raise RuntimeError("internal: invalid independence witness")
    return alpha, witness


# ---------------------------------------------------------------------------
# exact domination via set-cover branch and bound


def domination_number(g: Graph, a: Iterable[int], r: int, limit: int = 40) -> Tuple[int, Tuple[int, ...]]:
    """Smallest set of graph vertices whose r-balls cover a, with witness.

    Branch and bound on the members' ball traces, on _walk: a node is the
    uncovered members and the balls chosen.  It is pruned by two lower
    bounds on the balls still needed: a greedy packing of uncovered members
    no two of which share a ball (the duality alpha_2r <= gamma_r,
    restricted to what is left) and ceil(|uncovered| / largest gain),
    tried first with the parent's largest gain, which is no smaller, so
    that the scan for the largest gain runs only where that does not cut.
    The scan reads the kept balls by descending size and stops at the
    first one no larger than the best gain so far, which no later ball
    can beat, so it finds the maximum over every kept ball.  A node
    branches on the uncovered member in the fewest kept balls, ties to
    the lowest id: the lowest uncovered bit of the first of the member
    masks, one per ball count in ascending order, that meets the
    uncovered members.  The incumbent starts at |a| + 1 balls, which no
    bound reaches before the first leaf because each chosen ball covers
    a new member; so the first leaf is the first incumbent, only a
    strictly smaller cover replaces it, and the witness is the walk's
    first minimum cover.  It
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
    sizes = [m.bit_count() for m in kept]
    full = (1 << len(members)) - 1
    covering_sets: List[List[int]] = [[] for _ in members]
    near = [0] * len(members)  # the members that share a kept ball with i
    for m in kept:
        for i in _bits(m):
            covering_sets[i].append(m)
            near[i] |= m
    # one mask per count of kept balls, ascending: the members in that many
    by_ways: Dict[int, int] = {}
    for i, c in enumerate(covering_sets):
        by_ways[len(c)] = by_ways.get(len(c), 0) | 1 << i
    way_masks = [by_ways[w] for w in sorted(by_ways)]
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
        # kept runs by descending size: no ball after one no larger than
        # the best gain so far can beat it
        gain = 0
        for m, size in zip(kept, sizes):
            if size <= gain:
                break
            cover = (m & unc).bit_count()
            if cover > gain:
                gain = cover
        if len(chosen) - (-left // gain) >= best_len:
            return
        # the member with the fewest ways, ties to the lowest id
        for w in way_masks:
            w &= unc
            if w:
                break
        e = (w & -w).bit_length() - 1
        options = sorted(
            covering_sets[e], key=lambda m: (-(m & unc).bit_count(), by_mask[m])
        )
        for m in options:
            yield unc & ~m, chosen + (m,), gain

    # kept is sorted by size, so kept[0] has the root's largest gain
    for unc, chosen, _ in _walk((full, (), sizes[0]), children):
        if not unc and len(chosen) < best_len:
            best, best_len = chosen, len(chosen)
    witness = tuple(sorted(by_mask[m] for m in best))
    if not is_distance_dominating(g, witness, members, r):
        raise RuntimeError("internal: invalid domination witness")
    return best_len, witness


# ---------------------------------------------------------------------------
# exact linear relaxations


@dataclass(frozen=True)
class LpSolution:
    """Exact optimum of one relaxation: total value plus per-vertex weights.

    `dual`, when set, is the optimum of the other relaxation from the same
    solve (one side is its primal, the other its row duals), audited on
    its own."""

    value: Fraction
    weights: Dict[int, Fraction]
    dual: Optional["LpSolution"] = None


def lp_domination(g: Graph, a: Iterable[int], r: int) -> LpSolution:
    """Fractional covering optimum: nonnegative weights on all of V, each
    member of a must see total weight >= 1 inside its r-ball.

    Its `dual` is the fractional packing optimum (nonnegative weights on
    a, every vertex sees total weight <= 1 inside its r-ball).  The packing
    is the LP solved, from its feasible zero start, and the cover is read
    from its row duals, one per vertex.  Both weight vectors are audited
    for feasibility and for equal totals, which by weak duality certifies
    that each is optimal."""
    return _lp_domination_on(*_member_traces(g, a, r))


def _lp_domination_on(members: Tuple[int, ...], masks: List[int]) -> LpSolution:
    """lp_domination on a ball-trace table already built: bit i of
    masks[v] puts members[i] in the r-ball of v, for every vertex v."""
    rows = [[F1 if m >> i & 1 else F0 for i in range(len(members))] for m in masks]
    res = solve_max([F1] * len(members), rows, [F1] * len(masks))
    _audit_cover(masks, res.y, res.value)
    _audit_packing(masks, res.x, res.value)
    packing = LpSolution(res.value, dict(zip(members, res.x)))
    return LpSolution(res.value, dict(enumerate(res.y)), packing)


def _audit_cover(masks, x, value):
    """x weights the vertices; bit i of masks[v] puts v in member i's ball."""
    if any(w < 0 for w in x):
        raise RuntimeError("internal: negative covering weight")
    if sum(x, F0) != value:
        raise RuntimeError("internal: covering value mismatch")
    # member i's own mask holds bit i, so the highest bit names the last one
    for i in range(max(masks, default=0).bit_length()):
        if sum((w for w, m in zip(x, masks) if m >> i & 1), F0) < 1:
            raise RuntimeError("internal: covering constraint violated")


def _audit_packing(masks, y, value):
    """y weights the members; vertex v sees the members on the bits of masks[v]."""
    if any(w < 0 for w in y):
        raise RuntimeError("internal: negative packing weight")
    if sum(y, F0) != value:
        raise RuntimeError("internal: packing value mismatch")
    for m in masks:
        if sum((w for i, w in enumerate(y) if m >> i & 1), F0) > 1:
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


def _radius_at_most(adjm: List[int], mask: int, r: int) -> bool:
    """Whether some vertex of mask reaches all of mask within r steps
    inside it, in the graph whose vertex v has the neighbour bitmask
    adjm[v]; a frontier search on bits."""
    for c in _bits(mask):
        seen = frontier = 1 << c
        for _ in range(r):
            step = 0
            while frontier:
                b = frontier & -frontier
                step |= adjm[b.bit_length() - 1]
                frontier ^= b
            frontier = step & mask & ~seen
            if not frontier:
                break
            seen |= frontier
        if seen == mask:
            return True
    return False


def validate_minor_model(g: Graph, model: MinorModel) -> None:
    """Raise GraphError unless model is a valid clique-minor model in g.
    A branch set S is searched from its vertices by multi_source_distances
    blocked on N(S) - S, which keeps each search inside G[S]."""
    if model.radius < 0:
        raise GraphError("radius must be >= 0")
    seen: set = set()
    nbr = []
    for bs in model.branch_sets:
        if not bs:
            raise GraphError("empty branch set")
        s = set(bs)
        if s & seen:
            raise GraphError("branch sets overlap")
        if not all(0 <= v < g.n for v in s):
            raise GraphError("branch set out of range")
        seen |= s
        nbr.append(set().union(*(g.adjacency[v] for v in s)))
        boundary = nbr[-1] - s
        if not any(
            len(multi_source_distances(g, (c,), model.radius, boundary)) == len(s)
            for c in s
        ):
            raise GraphError("branch set not connected within the radius bound")
    for i in range(len(model.branch_sets)):
        for j in range(i + 1, len(model.branch_sets)):
            if not nbr[i].intersection(model.branch_sets[j]):
                raise GraphError(f"no edge between branch sets {i} and {j}")


def _connected_sets_bounded(adjm: List[int], cap: int) -> List[int]:
    """Bitmasks of all connected vertex sets of size <= cap in the graph
    whose vertex v has the neighbour bitmask adjm[v], each once.

    Each vertex roots a _walk, and a set grows only above its lowest
    vertex: ext holds the vertices it may still take, forb the ones an
    earlier sibling already took."""
    def children(node):
        s_mask, s_size, ext, forb = node
        if s_size == cap:
            return
        allowed = -2 * (s_mask & -s_mask)  # the vertices above the lowest
        while ext:
            b = ext & -ext
            ext ^= b
            nxt = (ext | (adjm[b.bit_length() - 1] & allowed)) & ~(s_mask | b | forb)
            yield s_mask | b, s_size + 1, nxt, forb
            forb |= b

    return [
        node[0]
        for v in range(len(adjm))
        for node in _walk((1 << v, 1, adjm[v] & -(2 << v), 0), children)
    ]


def find_clique_minor(
    g: Graph, t: int, r: int, limit: int = 16
) -> Optional[MinorModel]:
    """Search exhaustively for a depth-r model of the complete graph on t
    branch sets; returns a validated model or None.

    Any model can be shrunk until each branch set is a union of at most
    t-1 paths of length <= r from its center, so only connected sets of
    size up to 1 + (t-1)*r need to be enumerated.  Only sets of more than
    2r + 1 vertices are radius-tested: a connected set of k vertices has
    a spanning tree, whose center reaches it within floor(k/2) steps.

    The search runs on _walk.  A node is (picks, pool): picks index the
    candidates, and the pool is a bitmask of the candidates after the
    last pick that are disjoint from every pick and touch each one.  Row
    i holds the candidates after i that are disjoint from candidate i and
    touch its neighbourhood, so pool & row(i) is the pool's tail after i
    filtered by both tests, in order; a node whose pool has fewer bits
    than the picks still needed is cut.  A row is filled the first time
    the walk branches on its candidate, so rows it never reaches cost
    nothing.
    """
    if t < 1:
        raise GraphError("clique minor order must be >= 1")
    if r < 0:
        raise GraphError("radius must be >= 0")
    if limit < 0:
        raise GraphError("limit must be nonnegative")
    if t > 5:
        raise OracleLimitError("clique-minor search limited to t <= 5")
    if g.n > limit:
        raise OracleLimitError(
            f"clique-minor search limited to {limit} vertices, got {g.n}"
        )
    cap = 1 + (t - 1) * r
    adjm = [0] * g.n
    for u, v in g.edges:
        adjm[u] |= 1 << v
        adjm[v] |= 1 << u

    cands = sorted(
        (m for m in _connected_sets_bounded(adjm, cap)
         if m.bit_count() <= 2 * r + 1 or _radius_at_most(adjm, m, r)),
        key=lambda m: (m & -m, m),
    )
    # bit k of holds[v] puts v in cands[k]
    flags = [bytearray((len(cands) + 7) // 8) for _ in range(g.n)]
    for k, mask in enumerate(cands):
        byte, bit = k >> 3, 1 << (k & 7)
        for v, digit in enumerate(bin(mask)[:1:-1]):  # lowest vertex first
            if digit == "1":
                flags[v][byte] |= bit
    holds = [int.from_bytes(f, "little") for f in flags]
    del flags  # not held through the walk
    rows: List[Optional[int]] = [None] * len(cands)

    def row(i):
        """The candidates after cands[i] that are disjoint from it and
        touch its neighbourhood, filled the first time it is asked for."""
        if rows[i] is None:
            mask, inside, nbr, touch = cands[i], 0, 0, 0
            for v in _bits(mask):
                inside |= holds[v]
                nbr |= adjm[v]
            for v in _bits(nbr & ~mask):
                touch |= holds[v]
            rows[i] = touch & ~inside & -(2 << i)
        return rows[i]

    def children(node):
        picks, pool = node
        need = t - len(picks) - 1  # picks still needed below a child
        for i in _bits(pool):
            tail = pool & row(i)
            if tail.bit_count() >= need:
                yield picks + (i,), tail

    for picks, _ in _walk(((), (1 << len(cands)) - 1), children):
        if len(picks) == t:
            model = MinorModel(tuple(tuple(_bits(cands[i])) for i in picks), r)
            try:
                validate_minor_model(g, model)
            except GraphError as exc:
                raise RuntimeError(f"internal: invalid clique-minor model: {exc}")
            return model
    return None
