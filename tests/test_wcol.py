"""Unit tests for weak coloring numbers, the order heuristic, greedy ball
cover, and the paired domination/independence certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
from drisk.generators import (
    complete_graph,
    cycle_graph,
    gnm_random,
    path_graph,
    pendant_construction,
    star_graph,
)
from drisk.graph import (
    Graph,
    GraphError,
    is_distance_dominating,
    is_distance_independent,
)
from drisk.oracle import independence_number, lp_domination
from drisk.wcol import (
    VertexOrder,
    dual_witness,
    duality_report,
    greedy_ball_cover,
    harmonic,
    order_heuristic,
    wcol_given_order,
    weak_reach_sets,
)


class TestVertexOrder:
    def test_accepts_permutation(self):
        o = VertexOrder((2, 0, 1))
        assert o.rank == {2: 0, 0: 1, 1: 2}
        assert len(o) == 3

    def test_rejects_non_permutation(self):
        with pytest.raises(GraphError):
            VertexOrder((0, 0, 1))
        with pytest.raises(GraphError):
            VertexOrder((1, 2))

    def test_length_must_match_graph(self):
        with pytest.raises(GraphError):
            weak_reach_sets(path_graph(3), VertexOrder((0, 1)), 1)


class TestWeakReach:
    def test_single_vertex(self):
        val, reach = wcol_given_order(Graph(1), VertexOrder((0,)), 3)
        assert val == 1 and reach == ((0,),)

    def test_path_natural_order(self):
        # along 0 < 1 < ... the reach of v is the r previous vertices
        g = path_graph(8)
        for r in (1, 2, 3):
            val, reach = wcol_given_order(g, VertexOrder(tuple(range(8))), r)
            assert val == r + 1
            for v in range(8):
                assert reach[v] == tuple(range(max(0, v - r), v + 1))

    def test_complete_graph(self):
        g = complete_graph(5)
        val, _ = wcol_given_order(g, VertexOrder(tuple(range(5))), 1)
        assert val == 5

    def test_reach_requires_interior_above_target(self):
        # order places 1 first: 0 cannot weakly reach 2 at radius 2
        # because the only path dips through the lower-ranked vertex 1
        g = path_graph(3)
        order = VertexOrder((1, 0, 2))
        reach = weak_reach_sets(g, order, 2)
        assert 1 in reach[0] and 1 in reach[2]
        assert 0 not in reach[2] and 2 not in reach[0]

    def test_matches_reference_enumeration(self):
        rng = random.Random(17)
        for trial in range(25):
            n = rng.randint(2, 8)
            m = rng.randint(0, min(12, n * (n - 1) // 2))
            g = gnm_random(n, m, trial)
            seq = list(range(n))
            rng.shuffle(seq)
            order = VertexOrder(tuple(seq))
            for r in (1, 2, 3):
                want = bruteforce.weak_reach(g, seq, r)
                got = weak_reach_sets(g, order, r)
                assert [set(s) for s in got] == want, (n, m, r, seq)
                for v in range(n):
                    assert got[v] == tuple(sorted(got[v])), (n, m, r, seq, v)

    def test_monotone_in_radius(self):
        for name, g in corpus.small_corpus():
            order = order_heuristic(g)
            prev = 0
            for r in (1, 2, 3):
                val, _ = wcol_given_order(g, order, r)
                assert val >= prev, name
                prev = val


class TestOrderHeuristic:
    def test_star_center_is_early(self):
        # leaves peel first and land late; the center is forced early
        g = star_graph(7)
        order = order_heuristic(g)
        val, _ = wcol_given_order(g, order, 1)
        assert val == 2

    def test_trees_get_optimal_radius_one_value(self):
        for g in (path_graph(9), star_graph(5)):
            val, _ = wcol_given_order(g, order_heuristic(g), 1)
            assert val == 2

    def test_is_a_permutation_on_corpus(self):
        for name, g in corpus.small_corpus():
            order = order_heuristic(g)
            assert sorted(order.sequence) == list(range(g.n)), name

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_min_scan_peel_on_simple_graphs(self, data):
        n = data.draw(st.integers(0, 24), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = []
        if pairs:
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
        # trailing isolated vertices
        extra = data.draw(st.integers(0, 4), label="extra")
        g = Graph(n + extra, edges)
        assert order_heuristic(g).sequence == bruteforce.degeneracy_order(g)

    def test_empty_and_edgeless_graphs(self):
        assert order_heuristic(Graph(0)).sequence == ()
        # all degrees tie at 0: peeled by id, so placed in reverse
        assert order_heuristic(Graph(4)).sequence == (3, 2, 1, 0)
        g = Graph(6, [(1, 4)])
        assert order_heuristic(g).sequence == bruteforce.degeneracy_order(g)


class TestGreedyBallCover:
    def test_star_picks_center(self):
        assert greedy_ball_cover(star_graph(6), range(1, 7), 1) == (0,)

    def test_four_cycle(self):
        assert greedy_ball_cover(cycle_graph(4), range(4), 1) == (0, 1)

    def test_empty_members(self):
        assert greedy_ball_cover(path_graph(3), [], 2) == ()

    def test_pick_order_is_by_gain_then_id(self):
        g = path_graph(9)
        picks = greedy_ball_cover(g, range(9), 1)
        assert picks[0] == 1  # first full-gain ball with the smallest id
        assert is_distance_dominating(g, picks, range(9), 1)

    def test_isolated_members_cover_themselves(self):
        g = Graph(3, [(0, 1)])
        picks = greedy_ball_cover(g, [0, 2], 0)
        assert set(picks) == {0, 2}

    def test_negative_radius_rejected(self):
        with pytest.raises(GraphError):
            greedy_ball_cover(path_graph(3), [0], -1)

    def test_always_dominates_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n == 0:
                continue
            for r in (1, 2):
                members = tuple(range(0, g.n, 2))
                picks = greedy_ball_cover(g, members, r)
                assert is_distance_dominating(g, picks, members, r), (name, r)

    def test_logarithmic_bound_on_corpus(self):
        for name, g in corpus.small_corpus():
            if not 2 <= g.n <= 12:
                continue
            members = tuple(range(g.n))
            for r in (1, 2):
                picks = greedy_ball_cover(g, members, r)
                lp = lp_domination(g, members, r).value
                assert Fraction(len(picks)) <= harmonic(len(members)) * lp, (
                    name,
                    r,
                )


class TestDualWitness:
    def test_path_example(self):
        g = path_graph(10)
        dom, wit = dual_witness(g, range(10), 1)
        assert wit == (0, 4, 8)
        assert is_distance_independent(g, wit, 3)
        assert is_distance_dominating(g, dom, range(10), 3)

    def test_postconditions_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n == 0:
                continue
            for r in (1, 2):
                members = tuple(range(g.n))
                dom, wit = dual_witness(g, members, r)
                order = order_heuristic(g)
                wide, _ = wcol_given_order(g, order, 2 * r + 1)
                assert set(wit) <= set(members), name
                assert is_distance_independent(g, wit, 2 * r + 1), name
                assert is_distance_dominating(g, dom, members, 2 * r + 1), name
                assert len(dom) <= wide * len(wit), name

    def test_witness_size_is_a_true_lower_bound(self):
        for name, g in corpus.small_corpus():
            if not 1 <= g.n <= 12:
                continue
            r = 1
            _, wit = dual_witness(g, range(g.n), r)
            best, _ = independence_number(g, range(g.n), 2 * r + 1)
            assert len(wit) <= best, name

    def test_respects_explicit_order(self):
        g = path_graph(6)
        natural = VertexOrder(tuple(range(6)))
        dom, wit = dual_witness(g, range(6), 1, natural)
        assert is_distance_independent(g, wit, 3)
        assert is_distance_dominating(g, dom, range(6), 3)


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        with pytest.raises(ValueError):
            harmonic(-1)


class TestDualityReport:
    def test_four_cycle(self):
        g = cycle_graph(4)
        rep = duality_report(g, range(4), 1)
        assert rep.lp_value == Fraction(4, 3)
        assert len(rep.independent_witness) == 1
        assert len(rep.dominating_set) == 2
        assert rep.greedy_bound == harmonic(4)
        assert Fraction(len(rep.dominating_set)) <= rep.greedy_bound * rep.lp_value

    def test_lp_can_be_skipped(self):
        rep = duality_report(cycle_graph(5), range(5), 1, include_lp=False)
        assert rep.lp_value is None
        assert rep.dominating_set

    def test_empty_member_set(self):
        rep = duality_report(path_graph(4), [], 1)
        assert rep.dominating_set == ()
        assert rep.independent_witness == ()
        assert rep.lp_value == 0

    def test_chain_on_pendant_gadget(self):
        p = pendant_construction(path_graph(3), 3)
        members = tuple(range(p.graph.n))
        rep = duality_report(p.graph, members, 3)
        assert Fraction(len(rep.independent_witness)) <= rep.lp_value
        assert Fraction(len(rep.dominating_set)) <= rep.greedy_bound * rep.lp_value

    def test_chain_on_corpus(self):
        for name, g in corpus.small_corpus():
            if not 1 <= g.n <= 12:
                continue
            rep = duality_report(g, range(g.n), 1)
            assert Fraction(len(rep.independent_witness)) <= rep.lp_value, name
            assert rep.lp_value <= Fraction(len(rep.dominating_set)), name
