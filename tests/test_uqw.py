"""Unit tests for the deletion/scattering ladder."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
from drisk.generators import grid_graph, path_graph, star_graph
from drisk.graph import Graph, GraphError, induced_subgraph, is_distance_independent
from drisk.uqw import UqwResult, find_uqw, scattered_ladder


class TestScatteredLadder:
    def test_star_first_rung_then_center_deleted(self):
        g = star_graph(8)
        rungs = list(scattered_ladder(g, range(1, 9), 2, 1))
        # rung 0: all leaves pairwise meet through the center, one survives
        assert rungs[0] == ((), (1,))
        # rung 1: deleting the center scatters every leaf
        assert rungs[1] == ((0,), tuple(range(1, 9)))

    def test_path_needs_no_deletions(self):
        g = path_graph(20)
        rungs = list(scattered_ladder(g, range(20), 2, 3))
        assert rungs[0] == ((), (0, 3, 6, 9, 12, 15, 18))

    def test_stops_early_when_nothing_covers(self):
        # no non-member is within radius of any member
        g = Graph(4, [(0, 1), (2, 3)])
        rungs = list(scattered_ladder(g, [0, 1], 1, 5))
        assert len(rungs) == 1  # rung 0 only: no candidate scores > 0

    def test_budget_limits_rung_count(self):
        g = grid_graph(4, 4)
        rungs = list(scattered_ladder(g, range(16), 2, 2))
        assert len(rungs) <= 3
        sizes = [len(s) for s, _ in rungs]
        assert sizes == list(range(len(rungs)))

    def test_deterministic(self):
        g = grid_graph(4, 5)
        a = list(range(0, 20, 2))
        first = list(scattered_ladder(g, a, 2, 3))
        second = list(scattered_ladder(g, a, 2, 3))
        assert first == second

    def test_members_never_deleted(self):
        for name, g in corpus.small_corpus():
            if g.n < 6:
                continue
            a = tuple(range(0, g.n, 2))
            for s, b in scattered_ladder(g, a, 2, 3):
                assert not set(s) & set(a), name
                assert set(b) <= set(a), name

    def test_rungs_are_scattered_in_deleted_graph(self):
        for name, g in corpus.small_corpus():
            if g.n < 6:
                continue
            a = tuple(range(0, g.n, 2))
            for r in (2, 4):
                for s, b in scattered_ladder(g, a, r, 2):
                    keep = [v for v in range(g.n) if v not in set(s)]
                    sub, idmap = induced_subgraph(g, keep)
                    assert is_distance_independent(
                        sub, [idmap[v] for v in b], r
                    ), (name, r, s)

    def test_rejects_bad_parameters(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            list(scattered_ladder(g, [0], 1, -1))
        with pytest.raises(GraphError):
            list(scattered_ladder(g, [0], -1, 1))


class TestMatchesPerVertexSearches:
    """The ladder on one ball-trace table per rung against the per-vertex
    searches it replaced, kept verbatim in bruteforce."""

    @staticmethod
    def same_rungs(g, a, r, s_max):
        got = list(scattered_ladder(g, a, r, s_max))
        assert got == list(bruteforce.scattered_ladder_bfs(g, a, r, s_max)), (a, r, s_max)
        return got

    def test_corpus(self):
        rng = random.Random(11)
        for name, g in corpus.small_corpus() + [("twins", corpus.twin_stars(4, 5))]:
            for _ in range(3):
                a = rng.sample(range(g.n), rng.randint(0, g.n))
                for r in range(9):
                    for s_max in range(4):
                        self.same_rungs(g, a, r, s_max)

    def test_nothing_covers(self):
        # no non-member reaches a member, or there is no non-member at all
        g = Graph(5, [(0, 1), (2, 3)])
        for a, b in (([0, 1], (0,)), ([0, 1, 4], (0, 4)), (range(5), (0, 2, 4))):
            assert self.same_rungs(g, a, 1, 3) == [((), b)]

    @settings(max_examples=200)
    @given(st.data())
    def test_drawn_graphs(self, data):
        n = data.draw(st.integers(1, 14), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)
            if pairs else st.just([]),
            label="edges",
        )
        g = Graph(n, edges)
        a = data.draw(st.sets(st.integers(0, n - 1)), label="members")
        r = data.draw(st.integers(0, 8), label="r")
        s_max = data.draw(st.integers(0, 3), label="s_max")
        self.same_rungs(g, a, r, s_max)


class TestFindUqw:
    def test_star_example(self):
        g = star_graph(8)
        res = find_uqw(g, range(1, 9), 2, 8, 1)
        assert res is not None
        assert res.s == (0,)
        assert res.b == tuple(range(1, 9))
        res.validate(g)

    def test_path_example(self):
        g = path_graph(20)
        res = find_uqw(g, range(20), 2, 7, 0)
        assert res is not None
        assert res.s == ()
        assert res.b == (0, 3, 6, 9, 12, 15, 18)

    def test_returns_none_when_budget_exhausted(self):
        g = star_graph(4)
        assert find_uqw(g, range(1, 5), 2, 4, 0) is None

    def test_returns_none_when_ladder_stalls(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert find_uqw(g, [0, 1], 1, 2, 5) is None

    def test_target_must_be_positive(self):
        with pytest.raises(GraphError):
            find_uqw(path_graph(3), [0], 1, 0, 1)

    def test_first_sufficient_rung_is_returned(self):
        g = star_graph(8)
        res = find_uqw(g, range(1, 9), 2, 1, 3)
        assert res.s == ()  # rung 0 already has one member
        assert len(res.b) == 1


class TestUqwResultValidate:
    def test_rejects_overlap(self):
        g = star_graph(3)
        with pytest.raises(GraphError, match="meets the deletion"):
            UqwResult((1,), (1, 2), 2).validate(g)

    def test_rejects_unscattered_claim(self):
        g = path_graph(5)
        with pytest.raises(GraphError, match="not scattered"):
            UqwResult((), (0, 1), 2).validate(g)

    def test_accepts_valid_claim(self):
        g = path_graph(5)
        UqwResult((2,), (0, 4), 9).validate(g)
