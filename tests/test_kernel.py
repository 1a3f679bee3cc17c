"""Unit tests for removal certificates, the irrelevant-vertex loop, and
the decide-or-shrink wrapper."""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
import drisk.graph
import drisk.kernel
import drisk.projections
import drisk.uqw
from drisk.generators import gnm_random, grid_graph, path_graph, star_graph
from drisk.graph import (
    AnnotatedInstance,
    Graph,
    GraphError,
    distances_from,
    induced_subgraph,
    is_distance_independent,
)
from drisk.kernel import (
    IrrelevanceCertificate,
    KernelOutcome,
    KernelPolicy,
    _far_members,
    check_certificate,
    kernelize,
    remove_irrelevant,
    verify_certificate,
)
from drisk.projections import closure
from drisk.wcol import greedy_ball_cover

TWIN = corpus.twin_stars(5, 7)
TWIN_LEAVES = corpus.twin_star_leaves(5)


# Star with one leaf pushed to distance two: boundary {0, 5} separates
# the near leaves from the far one.
_PUSHED_STAR = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 5), (5, 6)])
PROFILE_CASE = (
    _PUSHED_STAR, (1, 2, 3, 6), IrrelevanceCertificate((0, 5), (0, 5), (1, 2, 6), 2, 1)
)
SIZE_CASE = (
    _PUSHED_STAR, (1, 2, 3, 6), IrrelevanceCertificate((0, 5), (0, 5), (1, 2), 2, 1)
)
# Five members hang off a hub (0) and a collector (3); the pair {2, 4} is
# the unique optimum at radius 2.  A certificate naming the class
# (4,5,6,7) passes domination, farness, profiles and size, yet removing
# its smallest member 4 drops the optimum to 1.  Only the mutual-spread
# condition catches it.
SCATTERED_CASE = (
    Graph(
        8,
        [
            (0, 4), (0, 5), (0, 6), (0, 7),
            (3, 5), (3, 6), (3, 7),
            (2, 3), (1, 2),
        ],
    ),
    (2, 4, 5, 6, 7),
    IrrelevanceCertificate((0, 1), (0, 1), (4, 5, 6, 7), 2, 1),
)


def twin_cert(**overrides):
    fields = dict(z=(0, 6), s=(0,), l_prime=(1, 2, 3, 4, 5), r=2, d=1)
    fields.update(overrides)
    return IrrelevanceCertificate(**fields)


class TestCertificateNormalization:
    def test_fields_sorted_and_deduplicated(self):
        cert = IrrelevanceCertificate((6, 0, 6), (0, 0), (5, 1, 3), 2, 1)
        assert cert.z == (0, 6)
        assert cert.s == (0,)
        assert cert.l_prime == (1, 3, 5)


class TestCheckCertificate:
    def test_valid_certificate_passes(self):
        assert check_certificate(TWIN, TWIN_LEAVES, twin_cert()) is None
        assert verify_certificate(TWIN, TWIN_LEAVES, twin_cert())

    def test_radius_failures(self):
        assert check_certificate(TWIN, TWIN_LEAVES, twin_cert(r=0, d=0)) == "radius"
        assert check_certificate(TWIN, TWIN_LEAVES, twin_cert(d=0)) == "radius"
        assert (
            check_certificate(TWIN, TWIN_LEAVES, twin_cert(z=(0, 99)))
            == "radius"
        )

    def test_dominates_failure(self):
        # dropping the right-hand center leaves leaves 7..11 uncovered
        assert (
            check_certificate(TWIN, TWIN_LEAVES, twin_cert(z=(0,)))
            == "dominates"
        )

    def test_subset_failures(self):
        # a bridge vertex is not a member
        assert (
            check_certificate(TWIN, TWIN_LEAVES, twin_cert(l_prime=(1, 2, 12)))
            == "subset"
        )
        # the class may not intersect the deletion set
        assert (
            check_certificate(
                TWIN, TWIN_LEAVES, twin_cert(s=(0, 1), l_prime=(1, 2, 3, 4, 5))
            )
            == "subset"
        )
        assert (
            check_certificate(TWIN, TWIN_LEAVES, twin_cert(l_prime=()))
            == "subset"
        )

    def test_far_failure(self):
        # without deleting the center, every leaf is one step from z
        assert (
            check_certificate(TWIN, TWIN_LEAVES, twin_cert(s=()))
            == "far"
        )

    def test_profile_failure(self):
        g, a, cert = PROFILE_CASE
        assert check_certificate(g, a, cert) == "profile"

    def test_size_failure(self):
        g, a, cert = SIZE_CASE
        assert check_certificate(g, a, cert) == "size"

    def test_scattered_failure_blocks_unsound_removal(self):
        g, a, cert = SCATTERED_CASE
        assert check_certificate(g, a, cert) == "scattered"
        assert not verify_certificate(g, a, cert)
        # the removal really would be unsound:
        assert bruteforce.alpha(g, a, 2) == 2
        assert bruteforce.alpha(g, (2, 5, 6, 7), 2) == 1

    def test_check_order_reports_first_failure(self):
        # this certificate violates both subset and size; subset is
        # checked first
        assert (
            check_certificate(TWIN, TWIN_LEAVES, twin_cert(l_prime=(12,)))
            == "subset"
        )


class TestRemoveIrrelevant:
    def test_twin_star_pipeline(self):
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2)
        assert survivors == (4, 5, 9, 10, 11)
        assert [victim for victim, _ in log] == [1, 7, 2, 8, 3]
        for victim, cert in log:
            assert victim == min(cert.l_prime)

    def test_log_replays_against_evolving_member_set(self):
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2)
        members = list(TWIN_LEAVES)
        for victim, cert in log:
            assert verify_certificate(TWIN, members, cert)
            assert victim in cert.l_prime
            members.remove(victim)
        assert tuple(members) == survivors

    def test_every_removal_preserves_the_capped_optimum(self):
        k = 3
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, k, 2)
        members = list(TWIN_LEAVES)
        before = bruteforce.alpha(TWIN, members, 2)
        for victim, _ in log:
            members.remove(victim)
            after = bruteforce.alpha(TWIN, members, 2)
            assert min(after, k) == min(before, k)
            before = after

    def test_round_cap(self):
        survivors, log = remove_irrelevant(
            TWIN, TWIN_LEAVES, 3, 2, KernelPolicy(max_rounds=2)
        )
        assert len(log) == 2
        assert len(survivors) == len(TWIN_LEAVES) - 2

    def test_never_drops_below_threshold_minus_one(self):
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 10, 2)
        assert len(survivors) >= 9
        assert len(TWIN_LEAVES) - len(log) == len(survivors)

    def test_unconverged_closure_breaks_gracefully(self):
        policy = KernelPolicy(closure_target=1, closure_max_additions=0)
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2, policy)
        assert survivors == TWIN_LEAVES
        assert log == ()

    def test_radius_one_never_finds_certificates(self):
        # at radius 1 the half-radius cover contains every member, so no
        # class is ever far from it; the loop must stop without removals
        g = grid_graph(3, 4)
        survivors, log = remove_irrelevant(g, range(12), 2, 1)
        assert survivors == tuple(range(12))
        assert log == ()

    def test_input_validation(self):
        with pytest.raises(GraphError):
            remove_irrelevant(TWIN, TWIN_LEAVES, 0, 2)
        with pytest.raises(GraphError):
            remove_irrelevant(TWIN, TWIN_LEAVES, 2, 0)

    def test_capped_optimum_preserved_on_random_instances(self):
        for seed in range(6):
            g = gnm_random(12, 16, seed)
            a = tuple(range(0, 12, 2)) if seed % 2 else tuple(range(12))
            for r in (2, 3):
                for k in (2, 3):
                    survivors, log = remove_irrelevant(g, a, k, r)
                    want = min(bruteforce.alpha(g, a, r), k)
                    got = min(bruteforce.alpha(g, survivors, r), k)
                    assert got == want, (seed, r, k)


class TestKernelize:
    def test_path_yes_fast_path(self):
        inst = AnnotatedInstance(path_graph(10), tuple(range(10)), 2, 2)
        out = kernelize(inst)
        assert out.tag == "YES"
        assert out.witness == (0, 4, 8)
        assert is_distance_independent(inst.graph, out.witness, 2)
        assert len(out.witness) >= 2

    def test_no_when_too_few_members(self):
        inst = AnnotatedInstance(path_graph(10), (3,), 2, 2)
        out = kernelize(inst)
        assert out.tag == "NO"
        assert out.removal_log == ()

    def test_twin_star_kernel(self):
        inst = AnnotatedInstance(TWIN, TWIN_LEAVES, 2, 3)
        out = kernelize(inst)
        assert out.tag == "KERNEL"
        assert out.b == (4, 5, 9, 10, 11)
        assert out.y == (0, 4, 5, 6, 9, 10, 11)
        assert set(out.b) <= set(out.y)
        assert len(out.removal_log) == 5

    def test_twin_star_yes_at_lower_threshold(self):
        inst = AnnotatedInstance(TWIN, TWIN_LEAVES, 2, 2)
        out = kernelize(inst)
        assert out.tag == "YES"
        assert is_distance_independent(TWIN, out.witness, 2)

    def test_kernel_preserves_independence_number(self):
        inst = AnnotatedInstance(TWIN, TWIN_LEAVES, 2, 3)
        out = kernelize(inst)
        sub, idmap = induced_subgraph(TWIN, out.y)
        inner = bruteforce.alpha(sub, [idmap[v] for v in out.b], 2)
        outer = bruteforce.alpha(TWIN, TWIN_LEAVES, 2)
        assert min(inner, 3) == min(outer, 3)

    def test_kernel_keeps_short_distances_exact(self):
        inst = AnnotatedInstance(TWIN, TWIN_LEAVES, 2, 3)
        out = kernelize(inst)
        sub, idmap = induced_subgraph(TWIN, out.y)
        for u in out.b:
            du = distances_from(TWIN, u, 2)
            inner = distances_from(sub, idmap[u], 2)
            for v in out.b:
                if v in du:
                    assert inner.get(idmap[v]) == du[v]

    def test_outcomes_agree_with_oracle_on_random_instances(self):
        for seed in range(5):
            g = gnm_random(11, 14, 100 + seed)
            a = tuple(range(11))
            for r in (1, 2):
                for k in (2, 3):
                    inst = AnnotatedInstance(g, a, r, k)
                    out = kernelize(inst)
                    truth = bruteforce.alpha(g, a, r) >= k
                    if out.tag == "YES":
                        assert truth, (seed, r, k)
                        assert len(out.witness) >= k
                        assert is_distance_independent(g, out.witness, r)
                    elif out.tag == "NO":
                        assert not truth, (seed, r, k)
                    else:
                        sub, idmap = induced_subgraph(g, out.y)
                        inner = bruteforce.alpha(
                            sub, [idmap[v] for v in out.b], r
                        )
                        assert (inner >= k) == truth, (seed, r, k)

    def test_policy_with_fixed_ladder_target_stays_sound(self):
        inst = AnnotatedInstance(TWIN, TWIN_LEAVES, 2, 3)
        out = kernelize(inst, KernelPolicy(uqw_m=5, uqw_s_max=1))
        assert out.tag == "KERNEL"
        sub, idmap = induced_subgraph(TWIN, out.y)
        inner = bruteforce.alpha(sub, [idmap[v] for v in out.b], 2)
        assert min(inner, 3) == min(bruteforce.alpha(TWIN, TWIN_LEAVES, 2), 3)

    def test_outcome_defaults(self):
        out = KernelOutcome("NO", 2, 3)
        assert out.y == () and out.b == () and out.witness is None


def certificate_seeds():
    """Certificates whose first failing condition is known, plus every
    certificate the pipeline logs on a twin star and a random graph,
    each with the member set it was checked against."""
    seeds = [
        (TWIN, TWIN_LEAVES, twin_cert()),
        (TWIN, TWIN_LEAVES, twin_cert(s=())),
        PROFILE_CASE,
        SIZE_CASE,
        SCATTERED_CASE,
    ]
    for g, a in (
        (corpus.twin_stars(4, 12), corpus.twin_star_leaves(4)),
        (gnm_random(14, 13, 3), tuple(range(14))),
    ):
        for r in (2, 3):
            members = list(a)
            for victim, cert in remove_irrelevant(g, a, 2, r)[1]:
                seeds.append((g, tuple(members), cert))
                members.remove(victim)
    return seeds


@contextlib.contextmanager
def reference_pipeline():
    """Run remove_irrelevant on the full-rescan closure, the uncapped
    ladder and the induced-subgraph certificate check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drisk.kernel, "closure", bruteforce.closure_rescan)
        mp.setattr(
            drisk.kernel,
            "_find_removable_class",
            bruteforce.find_removable_class_uncapped,
        )
        mp.setattr(
            drisk.kernel, "check_certificate", bruteforce.check_certificate_induced
        )
        yield


class TestMatchesInducedSubgraphReference:
    def test_check_certificate_names_the_same_condition(self):
        seeds = certificate_seeds()
        seen = set()

        @settings(max_examples=400)
        @given(st.data())
        def check(data):
            g, a, cert = data.draw(st.sampled_from(seeds), label="seed")
            vertex = st.integers(0, g.n - 1)
            parts = [list(cert.z), list(cert.s), list(cert.l_prime)]
            for part in parts:
                op = data.draw(st.sampled_from(("keep", "keep", "add", "drop")))
                if op == "add":
                    part.append(data.draw(vertex))
                elif op == "drop" and part:
                    part.pop(data.draw(st.integers(0, len(part) - 1)))
            r = data.draw(st.sampled_from((cert.r, cert.r, cert.r + 1)), label="r")
            perturbed = IrrelevanceCertificate(*parts, r, r // 2)
            got = check_certificate(g, a, perturbed)
            assert got == bruteforce.check_certificate_induced(g, a, perturbed)
            seen.add(got)

        check()
        assert {None, "far", "profile", "size", "scattered"} <= seen

    def test_far_members_match(self):
        for g, a, cert in certificate_seeds():
            for s in ((), cert.s, cert.s[:1]):
                b = tuple(x for x in a if x not in s)
                want, _, _ = bruteforce.far_members_induced(g, b, cert.z, s, cert.r)
                assert _far_members(g, b, cert.z, s, cert.r) == want

    def test_remove_irrelevant_keeps_survivors_and_log(self):
        removals = []

        @settings(max_examples=150)
        @given(st.data())
        def check(data):
            if data.draw(st.booleans(), label="twins"):
                p = data.draw(st.integers(2, 8), label="p")
                bridge = data.draw(st.integers(3, 10), label="bridge")
                g, a = corpus.twin_stars(p, bridge), corpus.twin_star_leaves(p)
            else:
                n = data.draw(st.integers(6, 20), label="n")
                m = data.draw(st.integers(n - 2, 2 * n), label="m")
                g = gnm_random(n, m, data.draw(st.integers(0, 999), label="seed"))
                step = data.draw(st.sampled_from((1, 2)), label="step")
                a = tuple(range(0, n, step))
            r = data.draw(st.sampled_from((2, 3)), label="r")
            k = data.draw(st.integers(2, 5), label="k")
            policy = KernelPolicy(
                uqw_s_max=data.draw(st.integers(0, 3), label="s_max"),
                uqw_m=data.draw(st.none() | st.integers(1, 5), label="m"),
            )
            got = remove_irrelevant(g, a, k, r, policy)
            with reference_pipeline():
                want = remove_irrelevant(g, a, k, r, policy)
            assert got == want
            removals.append(len(got[1]))

        check()
        assert sum(removals) > 0

    def test_bad_ladder_budgets_still_rejected(self):
        # a sweep round whose largest class is one vertex still validates
        # the policy before it skips the ladder
        g = grid_graph(7, 7)
        for policy in (KernelPolicy(uqw_s_max=-1), KernelPolicy(uqw_m=0)):
            with pytest.raises(GraphError):
                remove_irrelevant(g, range(49), 11, 2, policy)
            with reference_pipeline(), pytest.raises(GraphError):
                remove_irrelevant(g, range(49), 11, 2, policy)


class TestWorkGuards:
    def test_ladder_skipped_when_largest_class_is_a_singleton(self, monkeypatch):
        entered = []
        real_ladder, real_find = drisk.kernel.scattered_ladder, drisk.kernel.find_uqw

        def ladder(g, a, r, s_max):
            entered.append((len(a), s_max))
            return real_ladder(g, a, r, s_max)

        def find(g, a, r, m, s_max):
            entered.append((len(a), s_max))
            return real_find(g, a, r, m, s_max)

        monkeypatch.setattr(drisk.kernel, "scattered_ladder", ladder)
        monkeypatch.setattr(drisk.kernel, "find_uqw", find)
        g = grid_graph(7, 7)
        for policy in (KernelPolicy(), KernelPolicy(uqw_m=2)):
            # a sweep round: k is the greedy 2-scattered size plus one and
            # the largest profile class is a single vertex
            assert remove_irrelevant(g, range(49), 11, 2, policy) == (
                tuple(range(49)),
                (),
            )
        assert entered == []
        remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2)
        assert entered
        assert all(s_max <= size - 2 for size, s_max in entered)

    def test_certificate_checks_build_no_induced_subgraph(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("induced_subgraph called")

        for module in (drisk.graph, drisk.kernel, drisk.uqw):
            monkeypatch.setattr(module, "induced_subgraph", forbidden, raising=False)
        # the fixed-target ladder also runs UqwResult.validate
        for policy in (KernelPolicy(), KernelPolicy(uqw_m=3)):
            survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2, policy)
            assert log
        for g, a, cert in certificate_seeds():
            check_certificate(g, a, cert)
            b = tuple(x for x in a if x not in cert.s)
            _far_members(g, b, cert.z, cert.s, cert.r)

    def test_closure_rescans_only_touched_vertices(self, monkeypatch):
        calls = []
        real = drisk.projections.multi_source_distances

        def counted(g, sources, *args, **kwargs):
            calls.append(tuple(sources))
            return real(g, sources, *args, **kwargs)

        monkeypatch.setattr(drisk.projections, "multi_source_distances", counted)
        g = corpus.twin_stars(16, 9)
        dom = greedy_ball_cover(g, corpus.twin_star_leaves(16), 1)
        res = closure(g, dom, 6, 1)
        assert res.converged and res.iterations >= 4
        # the first scan alone searches from every vertex outside dom
        assert len(calls) >= g.n - len(dom)
        # one full rescan per iteration would take about
        # (iterations + 1) * n BFS calls
        assert len(calls) < (res.iterations + 1) * g.n
        assert len(calls) < 2 * g.n
