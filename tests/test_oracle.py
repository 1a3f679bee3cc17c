"""Unit tests for the exact solvers: independence and domination numbers,
their linear relaxations, and depth-bounded clique-minor search."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
import drisk.oracle
from drisk.ballvc import two_vc_dimension
from drisk.generators import (
    bucket_model,
    complete_graph,
    cycle_graph,
    gnm_random,
    grid_graph,
    path_graph,
    star_graph,
)
from drisk.graph import (
    Graph,
    GraphError,
    is_distance_dominating,
    is_distance_independent,
)
from drisk.oracle import (
    LpSolution,
    MinorModel,
    _audit_packing,
    _connected_sets_bounded,
    _max_clique,
    OracleLimitError,
    domination_number,
    find_clique_minor,
    independence_number,
    lp_domination,
    validate_minor_model,
)


def member_sets(g):
    yield tuple(range(g.n))
    if g.n >= 4:
        yield tuple(range(0, g.n, 2))


class TestIndependenceNumber:
    def test_examples(self):
        p6 = path_graph(6)
        size, witness = independence_number(p6, range(6), 2)
        assert size == 2 and len(witness) == 2
        assert is_distance_independent(p6, witness, 2)
        assert independence_number(p6, range(6), 1)[0] == 3
        assert independence_number(star_graph(5), range(6), 2)[0] == 1
        assert independence_number(complete_graph(4), range(4), 1)[0] == 1
        assert independence_number(p6, [], 1) == (0, ())

    def test_matches_reference_on_corpus(self):
        for name, g in corpus.small_corpus():
            for a in member_sets(g):
                for r in (1, 2, 3):
                    size, witness = independence_number(g, a, r)
                    assert size == bruteforce.alpha(g, a, r), (name, r)
                    assert len(witness) == size
                    assert set(witness) <= set(a)
                    assert is_distance_independent(g, witness, r), (name, r)

    def test_limit_refusal(self):
        g = path_graph(12)
        with pytest.raises(OracleLimitError):
            independence_number(g, range(12), 1, limit=11)

    def test_negative_radius_refused(self):
        with pytest.raises(GraphError, match="radius must be >= 0"):
            independence_number(path_graph(4), range(4), -1)

    def test_witness_is_checked(self, monkeypatch):
        # in MCQ order the ends 0 and 9 come first, then 1, 2, ..., 8, so
        # the clique on bits 0 and 2 is the adjacent pair (0, 1)
        monkeypatch.setattr(drisk.oracle, "_max_clique", lambda n, adj: (2, 0b101))
        with pytest.raises(RuntimeError, match="^internal: invalid independence witness$"):
            independence_number(path_graph(10), range(10), 1)

    def test_runs_one_clique_walk(self, monkeypatch):
        calls = []
        walk = drisk.oracle._max_clique

        def counted(n, adj):
            calls.append(n)
            return walk(n, adj)

        monkeypatch.setattr(drisk.oracle, "_max_clique", counted)
        g = grid_graph(6, 6)
        assert independence_number(g, range(g.n), 2, limit=g.n)[0] == 8
        assert calls == [36]

    @settings(max_examples=150)
    @given(st.data())
    def test_clique_search_matches_recursive_version(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        density = data.draw(st.integers(0, 10), label="density")
        rnd = data.draw(st.randoms(use_true_random=False), label="rnd")
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rnd.randrange(10) < density:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        size, mask = _max_clique(n, adj)
        assert (size, mask) == bruteforce.max_clique_recursive(n, adj)
        # MCQ order: most neighbours first, ties by id
        order = sorted(range(n), key=lambda v: -adj[v].bit_count())
        pos = {v: j for j, v in enumerate(order)}
        permuted = [sum(1 << pos[u] for u in range(n) if adj[v] >> u & 1) for v in order]
        assert _max_clique(n, permuted)[0] == size


def assert_independence_answer(g, a, r, got, value):
    """got is (value, witness): the witness is sorted, lies in a, has
    value members, and its members are pairwise more than r apart by this
    module's own BFS in bruteforce.dist_matrix."""
    size, witness = got
    assert size == value
    assert len(witness) == size and list(witness) == sorted(set(witness))
    assert set(witness) <= set(a)
    dm = bruteforce.dist_matrix(g)
    for i, u in enumerate(witness):
        for v in witness[i + 1:]:
            assert dm[u].get(v, bruteforce.INF) > r, (u, v)


class TestMatchesIdOrderSearch:
    """The size found by the one MCQ-order walk against the id-order walk
    it replaced, kept verbatim in bruteforce: the same value, and a witness
    that is independent by a distance matrix that drisk's BFS does not
    compute."""

    @settings(max_examples=200)
    @given(st.data())
    def test_drawn_graphs(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        density = data.draw(st.integers(1, 8), label="density")
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.randrange(40) < density])
        r = data.draw(st.integers(0, 3), label="r")
        for a in (range(n), rnd.sample(range(n), rnd.randint(0, n))):
            value = bruteforce.independence_number_id_order(g, a, r)[0]
            assert_independence_answer(g, a, r, independence_number(g, a, r), value)

    def test_grids(self):
        for side in (5, 6, 7, 8):
            g = grid_graph(side, side)
            for r in (1, 2):
                value = bruteforce.independence_number_id_order(g, range(g.n), r, limit=g.n)[0]
                got = independence_number(g, range(g.n), r, limit=g.n)
                assert_independence_answer(g, range(g.n), r, got, value)

    def test_bucket_models(self):
        for seed in (1, 2, 3, 4):
            g = bucket_model(64, 3, seed).g
            value = bruteforce.independence_number_id_order(g, range(g.n), 2, limit=g.n)[0]
            got = independence_number(g, range(g.n), 2, limit=g.n)
            assert_independence_answer(g, range(g.n), 2, got, value)


class TestDominationNumber:
    def test_examples(self):
        assert domination_number(star_graph(5), range(6), 1) == (1, (0,))
        p6 = path_graph(6)
        assert domination_number(p6, range(6), 1)[0] == 2
        assert domination_number(p6, range(6), 2)[0] == 2
        assert domination_number(p6, [], 1) == (0, ())

    def test_first_leaf_is_the_incumbent(self):
        # the walk first covers 0 (only the ball of 1 holds it), then 6,
        # then 3 by the smallest id; a greedy cover by largest gain,
        # smallest id, gives (1, 4, 5), also of size 3
        assert domination_number(path_graph(7), range(7), 1) == (3, (1, 2, 5))

    def test_cover_may_use_non_members(self):
        # members are the leaves of a star: the center is the best cover
        g = star_graph(4)
        size, witness = domination_number(g, [1, 2, 3, 4], 1)
        assert size == 1 and witness == (0,)

    def test_matches_reference_on_corpus(self):
        for name, g in corpus.small_corpus():
            for a in member_sets(g):
                for r in (1, 2, 3):
                    size, witness = domination_number(g, a, r)
                    assert size == bruteforce.gamma(g, a, r), (name, r)
                    assert len(witness) == size
                    assert is_distance_dominating(g, witness, a, r), (name, r)

    def test_limit_refusal(self):
        g = path_graph(12)
        with pytest.raises(OracleLimitError):
            domination_number(g, range(12), 1, limit=11)

    def test_negative_radius_refused(self):
        # a ball of radius -1 is empty, so no cover exists
        with pytest.raises(GraphError, match="radius must be >= 0"):
            domination_number(path_graph(4), range(4), -1)
        with pytest.raises(GraphError, match="radius must be >= 0"):
            domination_number(path_graph(4), [], -1)

    def test_witness_is_checked(self, monkeypatch):
        # a ball table in which vertex 0 covers every member
        monkeypatch.setattr(
            drisk.oracle, "_member_traces",
            lambda g, a, r, *_: (tuple(a), [(1 << len(a)) - 1] + [0] * (g.n - 1)),
        )
        with pytest.raises(RuntimeError, match="^internal: invalid domination witness$"):
            domination_number(path_graph(10), range(10), 1)

    def test_search_deeper_than_the_recursion_limit(self):
        # gamma_1 = 2 with a greedy cover of 3, plus k paths on 3 vertices
        # that each need their own ball: the search goes k + 2 picks deep
        base, k = gnm_random(8, 15, 44), 400
        paths = [(8 + 3 * i + j, 8 + 3 * i + j + 1) for i in range(k) for j in range(2)]
        g = Graph(8 + 3 * k, list(base.edges) + paths)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            size, witness = domination_number(g, range(g.n), 1, limit=g.n)
        finally:
            sys.setrecursionlimit(old)
        assert size == k + 2 and len(witness) == size
        assert is_distance_dominating(g, witness, range(g.n), 1)


def assert_domination_answer(g, a, r, got, value):
    """got is (value, witness): the witness is sorted, has value vertices,
    and every member of a is within r of one of them by this module's own
    BFS in bruteforce.dist_matrix."""
    size, witness = got
    assert size == value
    assert len(witness) == size and list(witness) == sorted(set(witness))
    dm = bruteforce.dist_matrix(g)
    for u in a:
        assert any(dm[u].get(v, bruteforce.INF) <= r for v in witness), u


class TestMatchesGainBoundSearch:
    """The size found by the walk whose first leaf is its incumbent
    against the greedy-seeded searches it replaced, the gain-bound-only
    one and the one that scanned every member index for its branching
    member, both kept verbatim in bruteforce: the same value, and a cover
    that dominates by a distance matrix that drisk's BFS does not
    compute."""

    def test_corpus(self):
        for name, g in corpus.small_corpus():
            for a in member_sets(g):
                for r in range(4):
                    value = bruteforce.domination_number_gain_bound(g, a, r)[0]
                    assert bruteforce.domination_number_index_scan(g, a, r)[0] == value, (name, r)
                    assert_domination_answer(g, a, r, domination_number(g, a, r), value)

    @settings(max_examples=250)
    @given(st.data())
    def test_drawn_graphs(self, data):
        # n counts down from 14: draws lean small, and a greedy cover,
        # which no bound can spoil, is seldom beaten on tiny graphs
        n = 14 - data.draw(st.integers(0, 14), label="n")
        density = data.draw(st.integers(1, 6), label="density")
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.randrange(20) < density])
        for a in (range(n), rnd.sample(range(n), rnd.randint(0, n))):
            for r in range(4):
                value = bruteforce.domination_number_gain_bound(g, a, r)[0]
                assert bruteforce.domination_number_index_scan(g, a, r)[0] == value, (list(a), r)
                assert_domination_answer(g, a, r, domination_number(g, a, r), value)


class TestMatchesFullScan:
    """The walk whose nodes stop the largest-gain scan at the first kept
    ball no larger than the best gain so far, and take the branching
    member from one mask per ball count, against the walk that scanned
    every kept ball and took a min over the uncovered bits, kept verbatim
    in bruteforce: the same nodes, so the same value and witness."""

    def test_corpus(self):
        for name, g in corpus.small_corpus():
            for a in member_sets(g):
                for r in range(4):
                    got = domination_number(g, a, r)
                    assert got == bruteforce.domination_number_full_scan(g, a, r), (name, r)

    @settings(max_examples=250)
    @given(st.data())
    def test_drawn_graphs(self, data):
        # sparse draws give many balls of equal size and many members
        # with equal ball counts, so both tie-breaks are exercised
        n = 16 - data.draw(st.integers(0, 16), label="n")
        density = data.draw(st.integers(1, 8), label="density")
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.randrange(20) < density])
        for a in (range(n), rnd.sample(range(n), rnd.randint(0, n))):
            for r in range(4):
                got = domination_number(g, a, r)
                assert got == bruteforce.domination_number_full_scan(g, a, r), (list(a), r)


class TestLinearRelaxations:
    def test_four_cycle_value(self):
        c4 = cycle_graph(4)
        cover = lp_domination(c4, range(4), 1)
        packing = bruteforce.lp_packing(c4, range(4), 1)
        assert cover.value == Fraction(4, 3)
        assert packing.value == Fraction(4, 3)

    def test_strong_duality_on_corpus(self):
        for name, g in corpus.small_corpus():
            for a in member_sets(g):
                for r in (1, 2):
                    got = lp_domination(g, a, r)
                    cover = bruteforce.lp_cover(g, a, r)
                    packing = bruteforce.lp_packing(g, a, r)
                    assert got.value == cover.value == packing.value, (name, r)
                    assert got.dual.value == packing.value, (name, r)

    def test_cover_duals_are_a_feasible_packing_on_corpus(self):
        # checked against the reference distances, not the oracle's BFS
        for name, g in corpus.small_corpus():
            dm = bruteforce.dist_matrix(g)
            for a in member_sets(g):
                for r in (1, 2):
                    cover = lp_domination(g, a, r)
                    weights = cover.dual.weights
                    assert set(weights) == set(a), (name, r)
                    assert all(w >= 0 for w in weights.values()), (name, r)
                    assert sum(weights.values()) == cover.value, (name, r)
                    for v in range(g.n):
                        load = sum(w for u, w in weights.items()
                                   if dm[v].get(u, bruteforce.INF) <= r)
                        assert load <= 1, (name, r, v)

    def test_packing_duals_are_a_feasible_cover_on_corpus(self):
        # checked against the reference distances, not the oracle's BFS
        for name, g in corpus.small_corpus():
            dm = bruteforce.dist_matrix(g)
            for a in member_sets(g):
                for r in (1, 2):
                    cover = lp_domination(g, a, r)
                    weights = cover.weights
                    assert set(weights) == set(range(g.n)), (name, r)
                    assert all(w >= 0 for w in weights.values()), (name, r)
                    assert sum(weights.values()) == cover.value, (name, r)
                    for u in a:
                        seen = sum(w for v, w in weights.items()
                                   if dm[u].get(v, bruteforce.INF) <= r)
                        assert seen >= 1, (name, r, u)

    def test_packing_audit_rejects_bad_duals(self):
        # path 0-1-2, members {0, 2}, r = 1: optimum 1, e.g. weights 1/2, 1/2;
        # vertex 1 sees both members, vertices 0 and 2 only themselves
        masks = [0b01, 0b11, 0b10]
        half = Fraction(1, 2)
        _audit_packing(masks, (half, half), Fraction(1))
        for weights, value in (
            ((Fraction(3, 2), Fraction(-1, 2)), Fraction(1)),  # negative
            ((Fraction(1), Fraction(1)), Fraction(2)),  # vertex 1 loaded 2
            ((half, half), Fraction(3, 2)),  # total differs from the cover
        ):
            with pytest.raises(RuntimeError):
                _audit_packing(masks, weights, value)

    def test_matches_ball_dict_version_on_corpus(self):
        # the same value, weights and dual weights as the per-member
        # distance-dict version kept verbatim in bruteforce
        rng = random.Random(7)
        for name, g in corpus.small_corpus():
            seeded = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            for a in ((), tuple(range(g.n)), seeded):
                for r in (1, 2):
                    # LpSolution equality covers the dual and its weights
                    assert lp_domination(g, a, r) == bruteforce.lp_domination_balls(g, a, r), (name, a, r)

    def test_sandwich_between_integral_optima(self):
        for name, g in corpus.small_corpus():
            if g.n > 10:
                continue
            for a in member_sets(g):
                for r in (1, 2):
                    value = lp_domination(g, a, r).value
                    lo = bruteforce.alpha(g, a, 2 * r)
                    hi = bruteforce.gamma(g, a, r)
                    assert lo <= value <= hi, (name, r)

    def test_matches_float_solver(self):
        pytest.importorskip("scipy")
        for name, g in corpus.small_corpus():
            if g.n > 12:
                continue
            a = tuple(range(g.n))
            for r in (1, 2):
                exact = lp_domination(g, a, r)
                approx = bruteforce.lp_cover_float(g, a, r)
                assert abs(float(exact.value) - approx) < 1e-7, (name, r)

    def test_weights_are_reported_solutions(self):
        g = cycle_graph(5)
        cover = lp_domination(g, range(5), 1)
        assert sum(cover.weights.values()) == cover.value
        packing = bruteforce.lp_packing(g, range(5), 1)
        assert set(packing.weights) == set(range(5))
        assert sum(packing.weights.values()) == packing.value

    def test_empty_member_set(self):
        g = path_graph(3)
        assert lp_domination(g, [], 2).value == 0
        assert lp_domination(g, [], 2).dual == LpSolution(0, {})
        assert bruteforce.lp_packing(g, [], 2).value == 0

    def test_negative_radius_refused(self):
        with pytest.raises(GraphError, match="^radius must be >= 0$"):
            lp_domination(path_graph(5), range(5), -1)


@pytest.mark.parametrize("search", [
    lambda g, limit: independence_number(g, range(g.n), 1, limit),
    lambda g, limit: domination_number(g, range(g.n), 1, limit),
    lambda g, limit: two_vc_dimension(g, range(g.n), 1, limit),
    lambda g, limit: find_clique_minor(g, 2, 1, limit),
], ids=["alpha", "gamma", "vc2", "minor"])
def test_negative_limit_refused(search):
    # malformed input, not an instance above the cap
    with pytest.raises(GraphError, match="^limit must be nonnegative$"):
        search(path_graph(5), -1)
    with pytest.raises(OracleLimitError):
        search(path_graph(5), 0)


def checked_minor(g, t, r):
    """find_clique_minor's answer, with a found model checked against
    the reference's own BFS instead of the validator the search shares."""
    model = find_clique_minor(g, t, r)
    if model is not None:
        assert len(model.branch_sets) == t and model.radius == r
        assert bruteforce.minor_model_holds(g, model), model
    return model


class TestMinorSearch:
    RADIUS_ONE_CENTER = [(0, 1), (0, 2), (0, 7), (0, 8), (1, 2), (1, 4), (1, 5), (1, 6),
                         (2, 6), (3, 4), (3, 5), (3, 6), (5, 8), (7, 8)]

    def test_cycles_contain_triangle_minor(self):
        for n in (3, 6, 9):
            model = checked_minor(cycle_graph(n), 3, 1)
            assert model is not None
            validate_minor_model(cycle_graph(n), model)

    def test_trees_have_no_triangle_minor(self):
        assert checked_minor(path_graph(9), 3, 2) is None
        assert checked_minor(star_graph(8), 3, 2) is None

    def test_complete_graph_minors(self):
        k4 = complete_graph(4)
        assert checked_minor(k4, 4, 1) is not None
        missing_edge = Graph(4, [e for e in k4.edges if e != (2, 3)])
        assert checked_minor(missing_edge, 4, 1) is None
        assert checked_minor(missing_edge, 3, 1) is not None

    def test_depth_matters(self):
        # a triangle subdivided twice per edge: contracting needs radius 1
        sub = Graph(
            9,
            [
                (0, 3), (3, 4), (4, 1),
                (1, 5), (5, 6), (6, 2),
                (2, 7), (7, 8), (8, 0),
            ],
        )
        assert checked_minor(sub, 3, 1) is not None

    def test_single_branch_set(self):
        assert checked_minor(path_graph(2), 1, 1) is not None
        assert checked_minor(Graph(0), 1, 1) is None

    def test_first_model_needs_a_radius_one_center(self):
        # (3, 5, 8) has radius 1 around 5; a radius check that searched
        # one level too deep would return `wide` instead, whose
        # (3, 5, 6, 8) has radius 2
        g = Graph(9, self.RADIUS_ONE_CENTER)
        model = checked_minor(g, 4, 1)
        assert model == MinorModel(((0,), (1,), (2, 6), (3, 5, 8)), 1)
        wide = ((0,), (1,), (2,), (3, 5, 6, 8))
        assert not bruteforce.minor_model_holds(g, MinorModel(wide, 1))
        assert bruteforce.minor_model_holds(g, MinorModel(wide, 2))

    def test_validator_shares_no_radius_test_with_the_search(self, monkeypatch):
        # the search's radius filter accepts every set, so it returns
        # (3, 5, 6, 8), of radius 2; the validator must still refuse it
        g = Graph(9, self.RADIUS_ONE_CENTER)
        monkeypatch.setattr(drisk.oracle, "_radius_at_most", lambda adjm, mask, r: True)
        with pytest.raises(RuntimeError, match="^internal: invalid clique-minor model: "
                           "branch set not connected within the radius bound$"):
            find_clique_minor(g, 4, 1)

    def test_refusals(self):
        with pytest.raises(OracleLimitError):
            find_clique_minor(path_graph(17), 3, 1)
        with pytest.raises(OracleLimitError):
            find_clique_minor(path_graph(4), 6, 1)
        with pytest.raises(GraphError):
            find_clique_minor(path_graph(4), 0, 1)

    def test_negative_radius_refused(self):
        for t in (1, 3):
            with pytest.raises(GraphError, match="radius must be >= 0"):
                find_clique_minor(complete_graph(3), t, -1)


class TestMinorSearchAgainstRecursion:
    """The connected-set enumeration and the minor search on _walk, whose
    nodes pass their compatible candidates down, against the recursive
    enumeration and the floor-skipping walk they replaced, kept verbatim
    in bruteforce."""

    @settings(max_examples=200)
    @given(st.data())
    def test_connected_sets_match_recursive_version(self, data):
        n = data.draw(st.integers(0, 12), label="n")
        cap = data.draw(st.integers(0, 13), label="cap")
        density = data.draw(st.integers(0, 10), label="density")
        rnd = data.draw(st.randoms(use_true_random=False), label="rnd")
        adjm = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rnd.randrange(10) < density:
                    adjm[u] |= 1 << v
                    adjm[v] |= 1 << u
        got = _connected_sets_bounded(adjm, cap)
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(bruteforce.connected_sets_bounded_recursive(adjm, cap))

    def test_deep_path_enumeration(self):
        # deeper than Python's recursion limit: every interval of the path
        n = 1010
        adjm = [0] * n
        for i in range(n - 1):
            adjm[i] |= 1 << (i + 1)
            adjm[i + 1] |= 1 << i
        got = _connected_sets_bounded(adjm, n)
        assert len(got) == n * (n + 1) // 2
        assert all(m & (m + (m & -m)) == 0 for m in got)  # one run of bits
        # an interval is fixed by its lowest vertex and its size
        assert len({((m & -m).bit_length(), m.bit_count()) for m in got}) == len(got)

    def test_models_match_floor_walk_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n > 12:
                continue
            for t in (2, 3, 4):
                for r in (1, 2):
                    got = checked_minor(g, t, r)
                    assert got == bruteforce.find_clique_minor_floor(g, t, r), (name, t, r)

    @settings(max_examples=300)
    @given(st.data())
    def test_models_match_floor_walk_on_drawn_graphs(self, data):
        # n and t count down: draws lean small, and small graphs with
        # t = 2 nearly always hold a model of single vertices
        n = 11 - data.draw(st.integers(0, 11), label="n")
        t = 5 - data.draw(st.integers(0, 3), label="t")
        r = data.draw(st.integers(0, 3), label="r")
        density = data.draw(st.integers(1, 9), label="density")
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.randrange(10) < density])
        assert checked_minor(g, t, r) == bruteforce.find_clique_minor_floor(g, t, r)


class TestMinorSearchCosts:
    """What the search may skip: radius tests it can prove, and rows of
    the candidates its walk never branches on."""

    def test_rows_are_filled_lazily(self):
        # K16 at t = 5, r = 4 keeps all 65,535 connected sets, so rows
        # filled for every candidate would hold about 65,535^2 / 2 bits,
        # some 270 MB of ints; the walk branches on five and is done
        g = complete_graph(16)
        tracemalloc.start()
        try:
            model = find_clique_minor(g, 5, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak
        assert model == bruteforce.find_clique_minor_floor(g, 5, 4)

    @settings(max_examples=300)
    @given(st.data())
    def test_small_connected_sets_have_radius_at_most_r(self, data):
        # grow a connected set of at most 2r + 1 vertices from a random
        # start by random neighbours, then read its radius in G[S] from
        # bruteforce.dist_matrix
        n = data.draw(st.integers(1, 12), label="n")
        r = data.draw(st.integers(0, 3), label="r")
        density = data.draw(st.integers(1, 9), label="density")
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.randrange(10) < density]
        adj = bruteforce.simple_adj(Graph(n, edges))
        s = [rnd.randrange(n)]
        for _ in range(rnd.randint(0, 2 * r)):
            frontier = sorted(set().union(*(adj[v] for v in s)) - set(s))
            if not frontier:
                break
            s.append(rnd.choice(frontier))
        pos = {v: i for i, v in enumerate(s)}
        inner = Graph(len(s), [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos])
        dm = bruteforce.dist_matrix(inner)
        assert any(len(d) == len(s) and max(d.values()) <= r for d in dm), (s, edges)

    def test_radius_tests_only_above_two_r_plus_one(self, monkeypatch):
        calls = []
        test = drisk.oracle._radius_at_most

        def counted(adjm, mask, r):
            calls.append((mask, r))
            return test(adjm, mask, r)

        monkeypatch.setattr(drisk.oracle, "_radius_at_most", counted)
        for name, g in corpus.small_corpus():
            if g.n > 12:
                continue
            for t in (2, 3, 4):
                for r in (0, 1, 2):
                    assert find_clique_minor(g, t, r) == bruteforce.find_clique_minor_floor(g, t, r), (name, t, r)
        assert calls
        assert all(mask.bit_count() > 2 * r + 1 for mask, r in calls)


class TestValidateMinorModel:
    def test_rejects_negative_radius(self):
        with pytest.raises(GraphError, match="radius must be >= 0"):
            validate_minor_model(complete_graph(3), MinorModel(((0,), (1,), (2,)), -1))

    def test_accepts_hand_built_model(self):
        g = cycle_graph(6)
        model = MinorModel(((0, 1), (2, 3), (4, 5)), 1)
        validate_minor_model(g, model)

    def test_rejects_overlap(self):
        g = cycle_graph(6)
        with pytest.raises(GraphError, match="overlap"):
            validate_minor_model(g, MinorModel(((0, 1), (1, 2), (4, 5)), 1))

    def test_rejects_empty_branch_set(self):
        g = cycle_graph(6)
        with pytest.raises(GraphError, match="empty"):
            validate_minor_model(g, MinorModel(((0, 1), (), (4, 5)), 1))

    def test_rejects_missing_cross_edge(self):
        g = path_graph(6)
        with pytest.raises(GraphError, match="no edge"):
            validate_minor_model(g, MinorModel(((0, 1), (4, 5)), 1))

    def test_rejects_radius_violation(self):
        g = path_graph(6)
        with pytest.raises(GraphError, match="radius"):
            validate_minor_model(g, MinorModel(((0, 1, 2, 3, 4),), 1))

    def test_rejects_disconnected_branch_set(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        with pytest.raises(GraphError, match="radius|connected"):
            validate_minor_model(g, MinorModel(((0, 3),), 1))

    @settings(max_examples=400)
    @given(st.data())
    def test_raises_exactly_when_the_reference_refuses(self, data):
        # drawn graphs, and a random subset of their vertices cut into
        # branch sets in a random order
        n = 10 - data.draw(st.integers(0, 9), label="n")
        density = data.draw(st.integers(1, 9), label="density")
        r = data.draw(st.integers(0, 3), label="r")
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.randrange(10) < density])
        chosen = [v for v in range(n) if rnd.randrange(3)] or [0]
        rnd.shuffle(chosen)
        cuts = sorted(rnd.sample(range(1, len(chosen)), rnd.randrange(min(3, len(chosen)))))
        bounds = [0, *cuts, len(chosen)]
        model = MinorModel(tuple(tuple(chosen[i:j]) for i, j in zip(bounds, bounds[1:])), r)
        if bruteforce.minor_model_holds(g, model):
            validate_minor_model(g, model)
        else:
            with pytest.raises(GraphError):
                validate_minor_model(g, model)
