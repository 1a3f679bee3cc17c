"""Set systems of radius-r balls, shattering and pair-shattering
dimensions, and the constructive extraction of a depth-r clique minor
from a pair-shattered vertex set.

The extraction is the algorithmic heart of this module: a set whose
pairs are all realized exactly by ball traces yields disjoint connected
branch sets, one per member, pairwise joined by edges.  The resulting
model is validated before being returned, so a bug here cannot silently
produce a wrong bound downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .graph import Graph, GraphError, _descend, ball, distances_from, vset
from .oracle import MinorModel, OracleLimitError, validate_minor_model


@dataclass(frozen=True)
class SetSystem:
    """A family of subsets of a universe, each tagged with the vertex
    that generated it."""

    universe: Tuple[int, ...]
    sets: Tuple[Tuple[int, ...], ...]
    centers: Tuple[int, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.centers):
            raise GraphError("one center per member required")
        uni = set(self.universe)
        for member in self.sets:
            if not uni.issuperset(member):
                raise GraphError("set-system member leaves the universe")


def balls_system(g: Graph, r: int) -> SetSystem:
    """The system of all radius-r balls of g over the universe V(g)."""
    if r < 0:
        raise GraphError("radius must be >= 0")
    universe = tuple(range(g.n))
    members = tuple(tuple(ball(g, v, r)) for v in range(g.n))
    return SetSystem(universe, members, universe)


def restrict_system(sys: SetSystem, a: Iterable[int]) -> SetSystem:
    """Trace of the system on a subset of the universe."""
    keep = sorted(set(a) & set(sys.universe))
    kset = set(keep)
    members = tuple(
        tuple(v for v in member if v in kset) for member in sys.sets
    )
    return SetSystem(tuple(keep), members, sys.centers)


@dataclass(frozen=True)
class TwoShatterWitness:
    """A pair-shattered set: for every two members a_i < a_j some center
    vertex has ball trace exactly {a_i, a_j} on the set."""

    members: Tuple[int, ...]
    pair_witnesses: Dict[Tuple[int, int], int] = field(compare=False)


def validate_two_shatter(g: Graph, r: int, w: TwoShatterWitness) -> None:
    """Raise GraphError unless every pair of w.members is realized
    exactly by the r-ball of its recorded witness vertex."""
    members = set(w.members)
    if len(w.members) != len(members):
        raise GraphError("duplicate members in witness")
    seen_pairs = set()
    for (ai, aj), v in w.pair_witnesses.items():
        if ai >= aj or ai not in members or aj not in members:
            raise GraphError("malformed witness pair")
        if not 0 <= v < g.n:
            raise GraphError("witness vertex out of range")
        trace = set(ball(g, v, r)) & members
        if trace != {ai, aj}:
            raise GraphError(
                f"ball of {v} meets the set in {sorted(trace)}, "
                f"expected {{{ai}, {aj}}}"
            )
        seen_pairs.add((ai, aj))
    need = {
        (w.members[i], w.members[j])
        for i in range(len(w.members))
        for j in range(i + 1, len(w.members))
    }
    if need - seen_pairs:
        raise GraphError("witness misses a pair")


def _search_pair_shattered(
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


def two_vc_dimension(
    sys: SetSystem, limit: int = 24
) -> Tuple[int, Optional[TwoShatterWitness]]:
    """Largest set size all of whose 2-element subsets appear as exact
    traces of the system, together with one witness at the maximum."""
    uni = sys.universe
    n = len(uni)
    if n > limit:
        raise OracleLimitError(
            f"pair-shattering search limited to {limit} elements, got {n}"
        )
    if n == 0:
        return 0, None
    idx = {v: i for i, v in enumerate(uni)}
    masks = []
    for member in sys.sets:
        m = 0
        for v in member:
            m |= 1 << idx[v]
        masks.append(m)
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
    best = _search_pair_shattered(n, residues)
    members = tuple(uni[i] for i in range(n) if (best >> i) & 1)
    mem_mask = best
    pair_witnesses: Dict[Tuple[int, int], int] = {}
    for p in range(len(members)):
        for q in range(p + 1, len(members)):
            i, j = idx[members[p]], idx[members[q]]
            want = (1 << i) | (1 << j)
            for m, center in zip(masks, sys.centers):
                if m & mem_mask == want:
                    pair_witnesses[(members[p], members[q])] = center
                    break
    return len(members), TwoShatterWitness(members, pair_witnesses)


def vc_dimension(sys: SetSystem, limit: int = 24) -> int:
    """Classic shattering dimension: largest X with every subset of X,
    the empty set included, realized as a trace."""
    uni = sys.universe
    n = len(uni)
    if n > limit:
        raise OracleLimitError(
            f"shattering search limited to {limit} elements, got {n}"
        )
    idx = {v: i for i, v in enumerate(uni)}
    masks = []
    for member in sys.sets:
        m = 0
        for v in member:
            m |= 1 << idx[v]
        masks.append(m)

    def shattered(x_mask, size):
        seen = {m & x_mask for m in masks}
        return len(seen) == 1 << size

    level = [0] if shattered(0, 0) else []
    dim = -1 if not level else 0
    size = 0
    while level:
        size += 1
        nxt = []
        for x_mask in level:
            top = x_mask.bit_length()
            for i in range(top, n):
                cand = x_mask | (1 << i)
                if shattered(cand, size):
                    nxt.append(cand)
        if nxt:
            dim = size
        level = nxt
    return max(dim, 0)


def extract_minor_model(g: Graph, r: int, w: TwoShatterWitness) -> MinorModel:
    """Build a depth-r clique-minor model with one branch set per member
    of the pair-shattered set w.

    For each pair a hub vertex is chosen on which the two ball-distance
    budgets meet, shortest paths from the hub to both members are split
    between them, and each member collects its path shares.  The model
    is validated before returning; a validation failure is a hard error
    since the construction guarantees it.
    """
    validate_two_shatter(g, r, w)
    members = tuple(sorted(w.members))
    t = len(members)
    if t == 0:
        raise GraphError("empty witness")
    if t == 1:
        return MinorModel(((members[0],),), r)
    dist_to = {a: distances_from(g, a) for a in members}
    branch: List[set] = [set() for _ in range(t)]

    for i in range(t):
        for j in range(i + 1, t):
            ai, aj = members[i], members[j]
            v = w.pair_witnesses[(ai, aj)]
            dv = distances_from(g, v)
            di, dj = dist_to[ai], dist_to[aj]
            cands = [
                u
                for u in dv
                if u in di
                and u in dj
                and dv[u] + di[u] <= r
                and dv[u] + dj[u] <= r
            ]
            hub = min(cands, key=lambda u: (max(di[u], dj[u]), u))
            p_i = _descend(g, di, hub)
            p_j = _descend(g, dj, hub)
            if di[hub] <= dj[hub]:
                q_i, q_j = p_i, p_j[1:]
            else:
                q_i, q_j = p_i[1:], p_j
            branch[i].update(q_i)
            branch[j].update(q_j)
    model = MinorModel(tuple(tuple(sorted(b)) for b in branch), r)
    validate_minor_model(g, model)
    return model
