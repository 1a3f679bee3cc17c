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
import drisk.wcol
from drisk import oracle
from drisk.generators import gnm_random, grid_graph, path_graph, star_graph
from drisk.graph import (
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
)
from drisk.projections import closure
from drisk.wcol import greedy_ball_cover

TWIN = corpus.twin_stars(5, 7)
TWIN_LEAVES = corpus.twin_star_leaves(5)
# one certificate, so one round, per star: 25 rounds at k = 3
CHAIN, CHAIN_LEAVES = corpus.star_chain(24, 4, 9)


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


def victims(log):
    """The removed members of a removal log, in removal order."""
    return [victim for _, batch in log for victim in batch]


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
        assert [batch for _, batch in log] == [(1, 2, 3), (7, 8)]
        for cert, batch in log:
            # the smallest ids, as many as leave |s| + 2 of the class
            assert batch == cert.l_prime[:len(batch)]
            assert len(cert.l_prime) - len(batch) == len(cert.s) + 1

    def test_log_replays_against_evolving_member_set(self):
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2)
        members = list(TWIN_LEAVES)
        for cert, batch in log:
            assert check_certificate(TWIN, members, cert) is None
            for victim in batch:
                # the batch argument: the certificate restricted to the
                # class members left holds against the members left
                left = tuple(v for v in cert.l_prime if v in members)
                assert victim in left
                restricted = IrrelevanceCertificate(cert.z, cert.s, left, cert.r, cert.d)
                assert check_certificate(TWIN, members, restricted) is None
                members.remove(victim)
        assert tuple(members) == survivors

    def test_every_removal_preserves_the_capped_optimum(self):
        k = 3
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, k, 2)
        members = list(TWIN_LEAVES)
        before = bruteforce.alpha(TWIN, members, 2)
        for victim in victims(log):
            members.remove(victim)
            after = bruteforce.alpha(TWIN, members, 2)
            assert min(after, k) == min(before, k)
            before = after

    def test_round_cap(self):
        # the cap counts removals, so it cuts the first batch of three short
        survivors, log = remove_irrelevant(
            TWIN, TWIN_LEAVES, 3, 2, KernelPolicy(max_rounds=2)
        )
        assert victims(log) == [1, 2]
        assert len(log) == 1
        assert len(survivors) == len(TWIN_LEAVES) - 2

    def test_never_drops_below_threshold_minus_one(self):
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 10, 2)
        assert len(survivors) >= 9
        assert len(TWIN_LEAVES) - len(victims(log)) == len(survivors)

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
        g = path_graph(10)
        out = kernelize(g, tuple(range(10)), 2, 2)
        assert out.tag == "YES"
        assert out.witness == (0, 4, 8)
        assert is_distance_independent(g, out.witness, 2)
        assert len(out.witness) >= 2

    def test_normalizes_member_set(self):
        g = Graph(5, [(0, 1), (1, 2)])
        assert kernelize(g, [4, 0, 4], 2, 1) == kernelize(g, [0, 4], 2, 1)

    def test_rejects_bad_radius_or_target(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphError, match="radius must be >= 1"):
            kernelize(g, [0], 0, 1)
        with pytest.raises(GraphError, match="target k must be >= 1"):
            kernelize(g, [0], 1, 0)

    def test_rejects_out_of_range_members(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            kernelize(g, [5], 1, 1)

    def test_no_when_too_few_members(self):
        out = kernelize(path_graph(10), (3,), 2, 2)
        assert out.tag == "NO"
        assert out.removal_log == ()

    def test_twin_star_kernel(self):
        out = kernelize(TWIN, TWIN_LEAVES, 2, 3)
        assert out.tag == "KERNEL"
        assert out.b == (4, 5, 9, 10, 11)
        assert out.y == (0, 4, 5, 6, 9, 10, 11)
        assert set(out.b) <= set(out.y)
        assert len(victims(out.removal_log)) == 5
        assert len(out.removal_log) == 2

    def test_members_outside_y_are_refused(self, monkeypatch):
        monkeypatch.setattr(drisk.kernel, "path_closure", lambda g, b, r: ())
        with pytest.raises(RuntimeError, match="^internal: kernel members not inside Y$"):
            kernelize(TWIN, TWIN_LEAVES, 2, 3)

    def test_twin_star_yes_at_lower_threshold(self):
        out = kernelize(TWIN, TWIN_LEAVES, 2, 2)
        assert out.tag == "YES"
        assert is_distance_independent(TWIN, out.witness, 2)

    def test_kernel_preserves_independence_number(self):
        out = kernelize(TWIN, TWIN_LEAVES, 2, 3)
        sub, idmap = induced_subgraph(TWIN, out.y)
        inner = bruteforce.alpha(sub, [idmap[v] for v in out.b], 2)
        outer = bruteforce.alpha(TWIN, TWIN_LEAVES, 2)
        assert min(inner, 3) == min(outer, 3)

    def test_kernel_keeps_short_distances_exact(self):
        out = kernelize(TWIN, TWIN_LEAVES, 2, 3)
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
                    out = kernelize(g, a, r, k)
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

    def test_outcome_defaults(self):
        out = KernelOutcome("NO", 2, 3)
        assert out.y == () and out.b == () and out.witness is None


def reversed_ids(g, a):
    """g and a under the relabelling v -> n - 1 - v."""
    flip = g.n - 1
    return Graph(g.n, [(flip - u, flip - v) for u, v in g.edges]), [flip - v for v in a]


class TestRelabelledKernels:
    """kernelize answers star chains and twin stars in original and
    reversed ids soundly: the order of its searches and tie-breaks
    follows the ids, and the answer may not."""

    def test_star_chains_and_twin_stars(self):
        inputs = [
            (c, *corpus.star_chain(c, p, 9)) for c in (2, 3, 4) for p in (4, 8)
        ] + [
            (2, corpus.twin_stars(p, 9), corpus.twin_star_leaves(p)) for p in (4, 8)
        ]
        tags = set()
        for c, g0, a0 in inputs:
            for g, a in ((g0, a0), reversed_ids(g0, a0)):
                alpha = oracle.independence_number(g, a, 2)[0]
                for k in (c, c + 1):
                    out = kernelize(g, a, 2, k)
                    tags.add(out.tag)
                    case = (g.n, a[0], k, out.tag)
                    if out.tag == "YES":
                        assert alpha >= k, case
                    elif out.tag == "NO":
                        assert alpha < k, case
                    else:
                        sub, idmap = induced_subgraph(g, out.y)
                        inner = oracle.independence_number(
                            sub, [idmap[v] for v in out.b], 2
                        )[0]
                        assert min(inner, k) == min(alpha, k), case
        assert {"YES", "KERNEL"} <= tags


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
            for cert, batch in remove_irrelevant(g, a, 2, r)[1]:
                seeds.append((g, tuple(members), cert))
                members = [v for v in members if v not in batch]
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
            lambda g, members, closed, r, policy: (
                bruteforce.find_removable_class_uncapped(
                    g, members, closed.closed_set, r, policy
                )
            ),
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
            )
            got = remove_irrelevant(g, a, k, r, policy)
            with reference_pipeline():
                want = remove_irrelevant(g, a, k, r, policy)
            assert got == want
            removals.append(len(got[1]))

        check()
        assert sum(removals) > 0

    def test_bad_ladder_budgets_still_rejected(self):
        # the policy refuses a bad budget when it is built, so no input
        # (such as a sweep round that skips the ladder) can let it pass
        for budget in ({"uqw_s_max": -1}, {"closure_target": 0}, {"max_rounds": -1}):
            with pytest.raises(GraphError):
                KernelPolicy(**budget)
        assert KernelPolicy(uqw_s_max=0, closure_target=1, max_rounds=0)


class TestWorkGuards:
    def test_ladder_skipped_when_largest_class_is_a_singleton(self, monkeypatch):
        entered = []
        real_ladder = drisk.kernel.scattered_ladder

        def ladder(g, a, r, s_max):
            entered.append((len(a), s_max))
            return real_ladder(g, a, r, s_max)

        monkeypatch.setattr(drisk.kernel, "scattered_ladder", ladder)
        g = grid_graph(7, 7)
        # a sweep round: k is the greedy 2-scattered size plus one and the
        # largest profile class is a single vertex
        assert remove_irrelevant(g, range(49), 11, 2) == (tuple(range(49)), ())
        assert entered == []
        remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2)
        assert entered
        assert all(s_max <= size - 2 for size, s_max in entered)

    def test_certificate_checks_build_no_induced_subgraph(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("induced_subgraph called")

        for module in (drisk.graph, drisk.kernel, drisk.uqw):
            monkeypatch.setattr(module, "induced_subgraph", forbidden, raising=False)
        survivors, log = remove_irrelevant(TWIN, TWIN_LEAVES, 3, 2)
        assert log
        for g, a, cert in certificate_seeds():
            check_certificate(g, a, cert)
            b = tuple(x for x in a if x not in cert.s)
            _far_members(g, b, cert.z, cert.s, cert.r)

    def test_yes_checks_only_its_witness_at_r(self, monkeypatch):
        # the reach scan's union D is never built into an answer, so a YES
        # runs no domination check and no check at the scan's radius 2*1+1
        checks = []
        for module in (drisk.kernel, drisk.wcol):
            for name in ("is_distance_independent", "is_distance_dominating"):
                real = getattr(module, name)

                def counted(*args, name=name, real=real, **kwargs):
                    checks.append((name, args[-1]))
                    return real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        out = kernelize(grid_graph(12, 12), tuple(range(144)), 2, 5)
        assert out.tag == "YES"
        assert checks == [("is_distance_independent", 2)]

    def test_kernelize_builds_no_reach_set_table(self, monkeypatch):
        # YES reads the reach sets of the joining members only; a KERNEL
        # and a NO after removals run the same scan first
        def forbidden(*args, **kwargs):
            raise AssertionError("weak_reach_sets called")

        monkeypatch.setattr(drisk.wcol, "weak_reach_sets", forbidden)
        assert kernelize(grid_graph(12, 12), tuple(range(144)), 2, 5).tag == "YES"
        assert kernelize(TWIN, TWIN_LEAVES, 2, 3).tag == "KERNEL"
        assert kernelize(star_graph(8), range(1, 9), 2, 3).tag == "NO"

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
        assert res.iterations >= 4
        # the first sizes come from one search per vertex of dom
        assert sorted(calls[:len(dom)]) == [(v,) for v in sorted(dom)]
        # one full rescan per iteration would take about
        # (iterations + 1) * n BFS calls
        assert len(calls) < (res.iterations + 1) * g.n
        assert len(calls) < 2 * g.n


class TestMatchesRebuiltRounds:
    """remove_irrelevant carries the closure, with its profile keys, from
    round to round; bruteforce.remove_irrelevant_rounds rebuilds it and
    the keys in every round, with the closure's max scan."""

    def test_corpus_and_twin_stars(self):
        removals = 0
        for name, g, a in corpus.member_corpus():
            for r in (1, 2, 3):
                got = remove_irrelevant(g, a, 2, r)
                assert got == bruteforce.remove_irrelevant_rounds(g, a, 2, r), (name, r)
                removals += len(got[1])
        assert removals > 0

    def test_random_graphs(self):
        removals = []

        @settings(max_examples=200)
        @given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 14), label="n")
            m = data.draw(st.integers(0, min(2 * n, n * (n - 1) // 2)), label="m")
            g = gnm_random(n, m, data.draw(st.integers(0, 999), label="seed"))
            if data.draw(st.booleans(), label="all"):
                a = tuple(range(n))
            else:
                a = tuple(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="a"))
            r = data.draw(st.integers(1, 3), label="r")
            k = data.draw(st.integers(1, 4), label="k")
            policy = KernelPolicy(
                closure_target=data.draw(st.sampled_from((None, 1, 2)), label="target"),
                uqw_s_max=data.draw(st.integers(0, 3), label="s_max"),
            )
            got = remove_irrelevant(g, a, k, r, policy)
            assert got == bruteforce.remove_irrelevant_rounds(g, a, k, r, policy)
            removals.append(len(got[1]))

        check()
        assert sum(removals) > 0

    @staticmethod
    def record_reuse(monkeypatch, g, a, k, r):
        """Run remove_irrelevant, recording each closure's (cover, target),
        each round's (members, z) and the stop set of every search the
        kernel and drisk.projections make outside a closure."""
        closures, rounds, stops, inside = [], [], [], []
        real_closure = drisk.kernel.closure
        real_find = drisk.kernel._find_removable_class

        def counted_closure(g, x, r, target):
            closures.append((frozenset(x), target))
            inside.append(x)
            try:
                return real_closure(g, x, r, target)
            finally:
                inside.pop()

        def recorded(real):
            def search(g, sources, cutoff=None, blocked=None, stop=()):
                if stop and not inside:
                    stops.append(tuple(sorted(stop)))
                return real(g, sources, cutoff, blocked, stop)

            return search

        def recorded_find(g, members, closed, r, policy):
            rounds.append((members, closed.closed_set))
            return real_find(g, members, closed, r, policy)

        monkeypatch.setattr(drisk.kernel, "closure", counted_closure)
        for module in (drisk.kernel, drisk.projections):
            monkeypatch.setattr(
                module, "multi_source_distances", recorded(module.multi_source_distances)
            )
        monkeypatch.setattr(drisk.kernel, "_find_removable_class", recorded_find)
        got = remove_irrelevant(g, a, k, r)
        return got, closures, rounds, tuple(stops)

    def test_star_chains_reuse_closures_and_profile_keys(self, monkeypatch):
        (_, log), closures, rounds, stops = self.record_reuse(
            monkeypatch, CHAIN, CHAIN_LEAVES, 3, 2
        )
        assert len(log) == len(rounds) - 1 > 20
        # one closure per distinct (cover, target), far fewer than rounds
        assert len(closures) == len(set(closures)) < len(rounds)
        # the closure's profile keys serve every round: the searches made
        # outside it stop at deletion sets, never at z
        assert not hasattr(drisk.kernel, "_profile_key")
        assert stops and not set(stops) & {z for _, z in rounds}

    @staticmethod
    def widen_cover(monkeypatch):
        """Give both loops a cover that also holds the middle member.  It
        still dominates, and it changes as members go, which the true
        cover does not on twin stars or star chains, so z changes too."""
        real_cover = drisk.kernel.greedy_ball_cover

        def cover(g, members, d, table=None):
            picks = real_cover(g, members, d, table)
            return tuple(sorted({*picks, members[len(members) // 2]}))

        monkeypatch.setattr(drisk.kernel, "greedy_ball_cover", cover)
        monkeypatch.setattr(bruteforce, "greedy_ball_cover", cover)

    def test_a_moving_closed_set_matches_rebuilt_rounds(self, monkeypatch):
        self.widen_cover(monkeypatch)
        g, a = corpus.star_chain(4, 8, 9)
        got, closures, rounds, stops = self.record_reuse(monkeypatch, g, a, 3, 2)
        assert got == bruteforce.remove_irrelevant_rounds(g, a, 3, 2)
        assert len({z for _, z in rounds}) > 2
        # one closure per run of rounds with the same cover, fewer than rounds
        covers = [frozenset(drisk.kernel.greedy_ball_cover(g, m, 1)) for m, _ in rounds]
        runs = [x for i, x in enumerate(covers) if i == 0 or x != covers[i - 1]]
        assert [x for x, _ in closures] == runs
        assert len(closures) < len(rounds)
        assert not set(stops) & {z for _, z in rounds}

    def test_bulk_changes_between_rounds_on_drawn_inputs(self, monkeypatch):
        # Under the widened cover z moves, so a round's bulk class is not
        # always the last one's minus its batch; each round's ladder on
        # its own bulk must still give the rungs of a rebuild.
        self.widen_cover(monkeypatch)
        bulks = []
        real_ladder = drisk.kernel.scattered_ladder

        def ladder(g, a, r, s_max):
            bulks[-1].append(tuple(a))
            return real_ladder(g, a, r, s_max)

        monkeypatch.setattr(drisk.kernel, "scattered_ladder", ladder)
        moved = []

        @settings(max_examples=60)
        @given(st.data())
        def check(data):
            p = data.draw(st.integers(3, 10), label="p")
            bridge = data.draw(st.integers(3, 10), label="bridge")
            if data.draw(st.booleans(), label="twins"):
                g, a = corpus.twin_stars(p, bridge), corpus.twin_star_leaves(p)
            else:
                g, a = corpus.star_chain(data.draw(st.integers(2, 5), label="c"), p, bridge)
            r = data.draw(st.sampled_from((2, 3)), label="r")
            bulks.append([])
            got = remove_irrelevant(g, a, 3, r)
            assert got == bruteforce.remove_irrelevant_rounds(g, a, 3, r)
            seen = bulks[-1]
            moved.append(any(
                set(nxt) != set(prev) - set(batch)
                for prev, nxt, (_, batch) in zip(seen, seen[1:], got[1])
            ))

        check()
        assert any(moved)

    def test_star_chains_search_each_ball_trace_once(self, monkeypatch):
        # The cover's table is built once per call with one row per
        # initial member; each scattered_ladder call searches each
        # (member, deletion set) row at most once.  A star's leaves take
        # one batch, so each star's leaves are laddered once, with no
        # deletion set and with their center deleted; the last ladder
        # searches the two leaves its star's batch left behind again.
        built, cover_rows, ladders = [], [], []
        building = []
        real_init = drisk.graph.BallTraces.__init__
        real_search = drisk.graph.multi_source_distances
        real_ladder = drisk.kernel.scattered_ladder

        def init(self, g, members, r, blocked=None):
            built.append((r, frozenset(blocked or ())))
            building.append(self)
            try:
                real_init(self, g, members, r, blocked)
            finally:
                building.pop()

        def search(g, sources, cutoff=None, blocked=None, stop=()):
            if building:
                row = (*sources, cutoff, frozenset(blocked or ()))
                (ladders[-1] if cutoff == 8 else cover_rows).append(row)
            return real_search(g, sources, cutoff, blocked, stop)

        def ladder(g, a, r, s_max):
            ladders.append([])
            return real_ladder(g, a, r, s_max)

        monkeypatch.setattr(drisk.graph.BallTraces, "__init__", init)
        monkeypatch.setattr(drisk.graph, "multi_source_distances", search)
        monkeypatch.setattr(drisk.kernel, "scattered_ladder", ladder)
        g, a = CHAIN, CHAIN_LEAVES
        _, log = remove_irrelevant(g, a, 3, 2)
        assert len(log) > 20
        assert built.count((1, frozenset())) == 1
        assert sorted(cover_rows) == [(u, 1, frozenset()) for u in a]
        assert len(ladders) > 20
        assert all(len(rung_rows) == len(set(rung_rows)) for rung_rows in ladders)
        ladder_rows = [row for rung_rows in ladders for row in rung_rows]
        # a center has the smallest id in its star, p + 1 = 5 ids wide
        assert {(u, 8, frozenset()) for u in a} <= set(ladder_rows)
        assert {(u, 8, frozenset({u - u % 5})) for u in a} <= set(ladder_rows)
        assert len({row[2] for row in ladder_rows}) >= 2
        assert 2 * len(a) <= len(ladder_rows) <= 194
