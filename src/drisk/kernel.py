"""Iterated irrelevant-vertex removal for distance-r independence, with
machine-checkable removal certificates, plus the final path closure
that turns the shrunken member set into an induced-subgraph kernel.

A removal certificate names a half-radius dominating set z, a small
deletion set s, and a candidate class l_prime that is (a) far from z
once s is deleted, (b) profile-equivalent on s, (c) larger than |s|+1,
and (d) mutually spread beyond 4r without s.  Under these conditions
removing any one member of l_prime leaves the distance-r independence
number unchanged: an optimal solution avoiding the removed vertex can
always be rebuilt by swapping it for a classmate, because each
classmate outside the solution must be blocked through s by a distinct
solution vertex, and there are not enough of those.

One checked certificate serves a batch of removals.  Every condition
but (c) survives shrinking l_prime and the member set: z still
dominates fewer members, and a subset of l_prime is still a subset,
still far, on one profile and spread.  So once a member of l_prime is
gone, the certificate restricted to the rest of l_prime holds against
the rest of the members for as long as (c) does, and l_prime's members
can go one at a time, smallest id first, while at least |s|+2 of them
remain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .graph import (
    BallTraces,
    Graph,
    GraphError,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)
from .projections import (
    ClosureResult,
    _profile_groups,
    closure,
    path_closure,
    profile_classes,
)
from .uqw import scattered_ladder
from .wcol import _reach_scan, greedy_ball_cover, order_heuristic


@dataclass(frozen=True)
class IrrelevanceCertificate:
    """Evidence that each member of l_prime can be removed from the
    member set without changing the distance-r independence number."""

    z: Tuple[int, ...]
    s: Tuple[int, ...]
    l_prime: Tuple[int, ...]
    r: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(sorted(set(self.z))))
        object.__setattr__(self, "s", tuple(sorted(set(self.s))))
        object.__setattr__(self, "l_prime", tuple(sorted(set(self.l_prime))))


def check_certificate(
    g: Graph, a: Iterable[int], cert: IrrelevanceCertificate
) -> Optional[str]:
    """Name of the first failing certificate condition, or None when
    every condition holds.  Each condition is recomputed from scratch:

    radius     r >= 1, d = floor(r/2), all ids in range
    dominates  z distance-d dominates a
    subset     l_prime is a nonempty subset of a minus s
    far        every l_prime member is farther than 2r from all of z
               with s deleted
    profile    l_prime members share one radius-r projection profile
               on s
    size       |l_prime| >= |s| + 2
    scattered  l_prime members are pairwise farther than 4r apart with
               s deleted
    """
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
    if _far_members(g, cert.l_prime, cert.z, cert.s, cert.r) != cert.l_prime:
        return "far"
    # subset has passed, so l_prime does not meet s
    if cert.s and len(profile_classes(g, cert.l_prime, cert.s, cert.r)) > 1:
        return "profile"
    if len(cert.l_prime) < len(cert.s) + 2:
        return "size"
    if not is_distance_independent(g, cert.l_prime, 4 * cert.r, blocked=cert.s):
        return "scattered"
    return None


@dataclass(frozen=True)
class KernelPolicy:
    """Tunables of the removal pipeline; defaults are safe because
    soundness rests on the checked certificates, never on the policy.

    closure_target of None picks max(1, ceil(|D|^0.2)) per round;
    max_rounds caps the removals, however many certificates they take;
    None keeps removing until no certificate is found.
    Budgets are checked here, so a bad one is refused on every input.
    """

    closure_target: Optional[int] = None
    uqw_s_max: int = 3
    max_rounds: Optional[int] = None

    def __post_init__(self):
        if self.uqw_s_max < 0:
            raise GraphError("deletion budget must be nonnegative")
        if self.closure_target is not None and self.closure_target < 1:
            raise GraphError("projection target must be >= 1")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise GraphError("round cap must be nonnegative")


# one (certificate, removed members) batch per applied certificate
RemovalLog = Tuple[Tuple[IrrelevanceCertificate, Tuple[int, ...]], ...]


def _far_members(
    g: Graph, b: Tuple[int, ...], z: Tuple[int, ...], s: Tuple[int, ...], r: int
) -> Tuple[int, ...]:
    """Members of b farther than 2r from z once s is deleted."""
    near = multi_source_distances(g, z, 2 * r, blocked=s)
    return tuple(x for x in b if x not in near)


def _find_removable_class(
    g: Graph,
    members: Tuple[int, ...],
    closed: ClosureResult,
    r: int,
    policy: KernelPolicy,
) -> Optional[IrrelevanceCertificate]:
    """One round of the splitter: pick the largest profile class of
    A minus z, ladder up deletion sets at radius 4r, and return the
    first certificate whose far, profile and size conditions work out.

    z is closed's set, and its projections, made at radius 2r, key the
    candidates.
    """
    candidates = tuple(x for x in members if x in closed.projections)
    bulk = next(iter(_profile_groups(candidates, closed.projections)), ())
    d = r // 2
    # A rung with deletion set s certifies only with |s|+2 far members of
    # its b, a subset of bulk, so rungs past |bulk|-2 deletions are futile.
    s_max = min(policy.uqw_s_max, len(bulk) - 2)
    if s_max < 0:
        return None
    for s, b in scattered_ladder(g, bulk, 4 * r, s_max):
        need = len(s) + 2
        far = _far_members(g, b, closed.closed_set, s, r)
        if len(far) < need:
            continue
        for cls in profile_classes(g, far, s, r) if s else (far,):
            if len(cls) >= need:
                return IrrelevanceCertificate(closed.closed_set, s, cls, r, d)
    return None


def remove_irrelevant(
    g: Graph,
    a: Iterable[int],
    k: int,
    r: int,
    policy: Optional[KernelPolicy] = None,
) -> Tuple[Tuple[int, ...], RemovalLog]:
    """Repeatedly find a certificate and remove a batch of its class,
    until no certificate is found, the removal cap is hit, or fewer than
    k members remain.  The batch is the class's smallest ids, removed one
    at a time while at least |s|+2 class members and at least k members
    remain and the cap, which counts removals, is not reached.  Each
    removal is sound by the certificate restricted to the class members
    left, which holds because only its size condition reads how many
    there are (see the module docstring).

    Every logged certificate has passed check_certificate against the
    member set its batch was applied to; this is the log's one check
    before the command line writes it.  An exhausted ladder ends the loop
    without removing anything further; it can cost kernel size, never
    correctness.

    Two pieces of work are carried to the next round rather than
    redone, so each round finds what a rebuild would.  A member's ball
    trace reads only g, the member and the radius, so the cover's
    radius-r//2 traces of the initial members are found once per call.
    The closure, with the profile keys it returns, reads only g, the set
    of the greedy cover, 2r and the target, so the last one is kept
    while they repeat.
    """
    if r < 1:
        raise GraphError("radius must be >= 1")
    if k < 1:
        raise GraphError("target k must be >= 1")
    policy = policy or KernelPolicy()
    members = vset(a, g)
    log: List[Tuple[IrrelevanceCertificate, Tuple[int, ...]]] = []
    removals = 0
    d = r // 2
    cover = BallTraces(g, members, d)
    closed_on = functools.lru_cache(maxsize=1)(closure)
    while len(members) >= k:
        # the removals this round may make: down to k - 1 members, and
        # no further than the cap
        room = len(members) - k + 1
        if policy.max_rounds is not None:
            room = min(room, policy.max_rounds - removals)
        if room <= 0:
            break
        dom = greedy_ball_cover(g, members, d, cover)
        target = policy.closure_target or max(1, math.ceil(len(dom) ** 0.2))
        closed = closed_on(g, frozenset(dom), 2 * r, target)
        cert = _find_removable_class(g, members, closed, r, policy)
        if cert is None:
            break
        name = check_certificate(g, members, cert)
        if name is not None:
            raise RuntimeError(f"internal: pipeline emitted a bad certificate ({name})")
        # each removal leaves at least |s|+1 of the class behind it
        batch = cert.l_prime[:min(room, len(cert.l_prime) - len(cert.s) - 1)]
        gone = set(batch)
        members = tuple(v for v in members if v not in gone)
        log.append((cert, batch))
        removals += len(batch)
    return members, tuple(log)


@dataclass(frozen=True)
class KernelOutcome:
    """Result of kernelize: YES carries an r-independent witness of
    size >= k, NO certifies fewer than k members remained, KERNEL
    carries the shrunken member set b inside the distance-faithful
    vertex set y together with the replayable removal log."""

    tag: str
    r: int
    k: int
    y: Tuple[int, ...] = ()
    b: Tuple[int, ...] = ()
    removal_log: RemovalLog = ()
    witness: Optional[Tuple[int, ...]] = None


def kernelize(
    g: Graph, a: Iterable[int], r: int, k: int, policy: Optional[KernelPolicy] = None
) -> KernelOutcome:
    """Decide-or-shrink on the members a of g at radius r >= 1 and
    target k >= 1: answer YES with a spread witness when the cheap dual
    scan already finds k members pairwise farther than r apart; answer
    NO when fewer than k members exist (initially or after certified
    removals); otherwise emit the KERNEL (y, b) with b = surviving
    members and y = b plus the short-path closure, so that the instance
    (g[y], b, r, k) is equivalent to the original.  The YES witness (at
    r) and b inside y are checked before they are returned.
    """
    members = vset(a, g)
    if r < 1:
        raise GraphError("radius must be >= 1")
    if k < 1:
        raise GraphError("target k must be >= 1")
    policy = policy or KernelPolicy()
    if len(members) < k:
        return KernelOutcome("NO", r, k)
    # the reach scan at half radius spreads its witness beyond 2*(r//2)+1 >= r;
    # only a witness that answers YES is checked, and only at r
    witness, _ = _reach_scan(g, members, r // 2, order_heuristic(g))
    if len(witness) >= k:
        if not is_distance_independent(g, witness, r):
            raise RuntimeError("internal: YES witness is not r-independent")
        return KernelOutcome("YES", r, k, witness=witness)
    survivors, log = remove_irrelevant(g, members, k, r, policy)
    if len(survivors) < k:
        return KernelOutcome("NO", r, k, removal_log=log)
    y = path_closure(g, survivors, r)
    if not set(survivors) <= set(y):
        raise RuntimeError("internal: kernel members not inside Y")
    return KernelOutcome("KERNEL", r, k, y=y, b=survivors, removal_log=log)
