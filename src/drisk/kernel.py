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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .graph import (
    AnnotatedInstance,
    Graph,
    GraphError,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)
from .projections import closure, path_closure, profile_classes
from .uqw import scattered_ladder, find_uqw
from .wcol import dual_witness, greedy_ball_cover


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


def verify_certificate(
    g: Graph, a: Iterable[int], cert: IrrelevanceCertificate
) -> bool:
    """True iff every certificate condition holds against (g, a)."""
    return check_certificate(g, a, cert) is None


@dataclass(frozen=True)
class KernelPolicy:
    """Tunables of the removal pipeline; defaults are safe because
    soundness rests on per-removal certificates, never on the policy.

    closure_target of None picks max(1, ceil(|D|^0.2)) per round;
    closure_max_additions of None lets the closure run to its fixpoint;
    uqw_m of None walks the deletion ladder adaptively instead of
    aiming at a fixed scattered-set size; max_rounds of None keeps
    removing until no certificate is found.
    """

    closure_target: Optional[int] = None
    closure_max_additions: Optional[int] = None
    uqw_s_max: int = 3
    uqw_m: Optional[int] = None
    max_rounds: Optional[int] = None


RemovalLog = Tuple[Tuple[int, IrrelevanceCertificate], ...]


def _far_members(
    g: Graph, b: Tuple[int, ...], z: Tuple[int, ...], s: Tuple[int, ...], r: int
) -> Tuple[int, ...]:
    """Members of b farther than 2r from z once s is deleted."""
    near = multi_source_distances(g, z, 2 * r, blocked=s)
    return tuple(x for x in b if x not in near)


def _find_removable_class(
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
    # Bad budgets are rejected even in rounds where the cap below skips
    # the ladder that would otherwise reject them.
    if policy.uqw_m is not None and policy.uqw_m < 1:
        raise GraphError("target size must be at least 1")
    if policy.uqw_s_max < 0:
        raise GraphError("deletion budget must be nonnegative")
    # A rung with deletion set s certifies only with |s|+2 far members of
    # its b, a subset of bulk, so rungs past |bulk|-2 deletions are futile.
    s_max = min(policy.uqw_s_max, len(bulk) - 2)
    if s_max < 0:
        return None
    if policy.uqw_m is not None:
        found = find_uqw(g, bulk, 4 * r, policy.uqw_m, s_max)
        rungs = [(found.s, found.b)] if found else []
    else:
        rungs = scattered_ladder(g, bulk, 4 * r, s_max)
    for s, b in rungs:
        need = len(s) + 2
        far = _far_members(g, b, z, s, r)
        if len(far) < need:
            continue
        if s:
            groups = profile_classes(g, far, s, r)
        else:
            groups = (far,)
        for cls in groups:
            if len(cls) >= need:
                return IrrelevanceCertificate(z, s, cls, r, d)
    return None


def remove_irrelevant(
    g: Graph,
    a: Iterable[int],
    k: int,
    r: int,
    policy: Optional[KernelPolicy] = None,
) -> Tuple[Tuple[int, ...], RemovalLog]:
    """Repeatedly remove one certified-irrelevant member of a (the
    smallest id in the certified class), until no certificate is found,
    the round cap is hit, or fewer than k members remain.

    Every logged certificate has passed verify_certificate against the
    member set it was applied to.  Sub-procedure failures (closure cut
    short, ladder exhausted) end the loop without removing anything
    further; they can cost kernel size, never correctness.
    """
    if r < 1:
        raise GraphError("radius must be at least 1")
    if k < 1:
        raise GraphError("threshold must be at least 1")
    policy = policy or KernelPolicy()
    members = vset(a, g)
    log: List[Tuple[int, IrrelevanceCertificate]] = []
    d = r // 2
    while len(members) >= k:
        if policy.max_rounds is not None and len(log) >= policy.max_rounds:
            break
        dom = greedy_ball_cover(g, members, d)
        target = (
            policy.closure_target
            if policy.closure_target is not None
            else max(1, math.ceil(len(dom) ** 0.2))
        )
        closed = closure(
            g, dom, 2 * r, target, max_additions=policy.closure_max_additions
        )
        if not closed.converged:
            break
        cert = _find_removable_class(g, members, closed.closed_set, r, policy)
        if cert is None:
            break
        name = check_certificate(g, members, cert)
        if name is not None:
            raise RuntimeError(f"internal: pipeline emitted a bad certificate ({name})")
        victim = min(cert.l_prime)
        members = tuple(v for v in members if v != victim)
        log.append((victim, cert))
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
    inst: AnnotatedInstance, policy: Optional[KernelPolicy] = None
) -> KernelOutcome:
    """Decide-or-shrink: answer YES with a spread witness when the
    cheap dual scan already finds k members pairwise farther than r
    apart; answer NO when fewer than k members exist (initially or
    after certified removals); otherwise emit the KERNEL (y, b) with
    b = surviving members and y = b plus the short-path closure, so
    that the instance (g[y], b, r, k) is equivalent to the original.
    """
    g, members, r, k = inst.graph, inst.a_set, inst.r, inst.k
    policy = policy or KernelPolicy()
    if len(members) < k:
        return KernelOutcome("NO", r, k)
    d = r // 2
    _, witness = dual_witness(g, members, d)
    if len(witness) >= k:
        if not is_distance_independent(g, witness, r):
            raise RuntimeError("internal: YES witness is not r-independent")
        return KernelOutcome("YES", r, k, witness=witness)
    survivors, log = remove_irrelevant(g, members, k, r, policy)
    if len(survivors) < k:
        return KernelOutcome("NO", r, k, removal_log=log)
    y = path_closure(g, survivors, r)
    return KernelOutcome("KERNEL", r, k, y=y, b=survivors, removal_log=log)
