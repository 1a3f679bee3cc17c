"""The pair-shattering dimension of the radius-r balls traced on a
vertex set, and the constructive extraction of a depth-r clique minor
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

from .graph import Graph, GraphError, _descend, ball, distances_from
from .oracle import MinorModel, _member_traces, _walk, validate_minor_model


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


def _search_pair_shattered(n: int, masks: List[int]) -> int:
    """Largest X (as a bitmask) every 2-element subset of which is a
    trace m & X of some mask; the first found when elements are added
    in ascending order on _walk.

    Traces are tested bit-parallel over the masks: inc[x] marks the
    masks that hold x.  A node is (x_mask, xs, cands, one, two, three,
    incs, pairs): X as a mask and as a tuple in joining order, the
    elements that may still join, the masks that meet X at least once,
    twice and three times, inc[x] for each x in xs, and inc[x] & inc[z]
    for each pair of xs.  The masks that meet X + y exactly twice are
    exact = two' & ~three', and a pair of X + y is a trace exactly when
    one of these holds it, so y joins when every entry of pairs and
    every entry of incs & inc[y] meets exact: |X| + |pairs| ANDs, and
    no pair mask is worked out again.  The child X + y carries the
    pairs ix & inc[y] it adds.

    The child gets only the candidates in reach, the union of the masks
    that hold y and miss X (no bit in one).  Trace exactness is
    hereditary: a mask that meets some X'' containing X + y exactly in
    {y, y'} meets X in nothing, so it is one of those masks, and an
    element outside reach joins no descendant of X + y.  So the walk
    grows the same pair-shattered sets, in the same ascending order, as
    when each child took the candidates sharing any mask with y; only
    the bound len(xs) + |cands| <= best_size ends a node's loop sooner,
    and it cuts only branches whose sets, drawn from cands, are no
    larger than the best so far.  The best is replaced only by a
    strictly larger X, so the first maximum found is unchanged."""
    masks = list({m for m in masks if m & (m - 1)})  # smaller sets trace no pair
    inc = [0] * n
    for j, m in enumerate(masks):
        y = m
        while y:
            b = y & -y
            y ^= b
            inc[b.bit_length() - 1] |= 1 << j
    best_mask, best_size = 0, 0

    def children(node):
        x_mask, xs, cands, one, two, three, incs, pairs = node
        while len(xs) + cands.bit_count() > best_size:
            b = cands & -cands
            cands ^= b
            y = b.bit_length() - 1
            iy = inc[y]
            two_y, three_y = two | (one & iy), three | (two & iy)
            exact = two_y & ~three_y  # the masks that meet X + y twice
            with_y = iy & exact
            for ix in incs:
                if not ix & with_y:
                    break
            else:
                for p in pairs:
                    if not p & exact:
                        break
                else:
                    reach = 0
                    miss = iy & ~one
                    while miss:
                        f = miss & -miss
                        miss ^= f
                        reach |= masks[f.bit_length() - 1]
                    yield (
                        x_mask | b, xs + (y,), cands & reach, one | iy, two_y, three_y,
                        incs + (iy,), pairs + tuple(ix & iy for ix in incs),
                    )

    root = (0, (), (1 << n) - 1, 0, 0, 0, (), ())
    for x_mask, xs, *_ in _walk(root, children):
        if len(xs) > best_size:
            best_size, best_mask = len(xs), x_mask
    return best_mask


def _two_shattered(
    members: Tuple[int, ...], masks: List[int]
) -> Tuple[int, Optional[TwoShatterWitness]]:
    """The largest pair-shattered subset of members and a witness, from
    set traces: bit i of masks[v] puts members[i] in set v.  A pair's
    witness is the first v whose trace on the subset is that pair."""
    n = len(members)
    if n == 0:
        return 0, None
    best = _search_pair_shattered(n, masks)
    picked = [i for i in range(n) if best >> i & 1]
    pair_witnesses: Dict[Tuple[int, int], int] = {}
    for p, i in enumerate(picked):
        for j in picked[p + 1:]:
            want = 1 << i | 1 << j
            pair_witnesses[(members[i], members[j])] = next(
                v for v, m in enumerate(masks) if m & best == want
            )
    found = tuple(members[i] for i in picked)
    return len(found), TwoShatterWitness(found, pair_witnesses)


def two_vc_dimension(
    g: Graph, a: Iterable[int], r: int, limit: int = 24
) -> Tuple[int, Optional[TwoShatterWitness]]:
    """Largest subset of a all of whose 2-element subsets are exact
    traces of radius-r balls of g, together with one witness at the
    maximum whose pairs name their ball centers.  The witness is checked
    by validate_two_shatter before it is returned."""
    dim, witness = _two_shattered(*_member_traces(
        g, a, r, limit, "pair-shattering search limited to {limit} elements, got {n}"
    ))
    if witness is not None:
        try:
            validate_two_shatter(g, r, witness)
        except GraphError as exc:
            raise RuntimeError(f"internal: invalid pair-shattering witness: {exc}")
    return dim, witness


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
    # a hub is within r of v and of both members, so every search stops at r
    dist_to = {a: distances_from(g, a, r) for a in members}
    branch: List[set] = [set() for _ in range(t)]

    for i in range(t):
        for j in range(i + 1, t):
            ai, aj = members[i], members[j]
            v = w.pair_witnesses[(ai, aj)]
            dv = distances_from(g, v, r)
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
