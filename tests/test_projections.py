"""Unit tests for boundary projections, profile classes, and the two
closure procedures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
import drisk.projections
from drisk.generators import cycle_graph, grid_graph, path_graph, star_graph
from drisk.graph import Graph, GraphError, distances_from, induced_subgraph
from drisk.projections import (
    ClosureResult,
    ProjectionProfile,
    closure,
    mu,
    path_closure,
    profile,
    profile_classes,
    projection,
)

INF = math.inf


def draw_sparse_graph(data, min_n=1, max_n=24):
    """A simple graph on min_n..max_n vertices with n-2 to 2n edges."""
    n = data.draw(st.integers(min_n, max_n), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    if pairs:
        edges = data.draw(
            st.lists(
                st.sampled_from(pairs),
                unique=True,
                min_size=min(n - 2, len(pairs)),
                max_size=2 * n,
            ),
            label="edges",
        )
    return Graph(n, edges)


class TestProjection:
    def test_interior_must_avoid_boundary(self):
        # P5 with boundary {1, 3}: vertex 0 reaches 1 but any walk to 3
        # would have to pass through the boundary vertex 1
        g = path_graph(5)
        assert projection(g, 0, [1, 3], 4) == (1,)
        assert projection(g, 2, [1, 3], 1) == (1, 3)

    def test_radius_cuts_off(self):
        g = path_graph(5)
        assert projection(g, 0, [3], 2) == ()
        assert projection(g, 0, [3], 3) == (3,)

    def test_boundary_source_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            projection(g, 1, [1, 2], 1)

    def test_out_of_range_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            projection(g, 7, [1], 1)

    def test_star_leaves_see_only_the_center(self):
        # with every other vertex on the boundary, a leaf's walks all stop
        # at the center
        g = star_graph(5)
        for leaf in range(1, 6):
            boundary = [v for v in range(6) if v != leaf]
            assert projection(g, leaf, boundary, 3) == (0,)


class TestProfile:
    def test_values_and_key(self):
        g = path_graph(5)
        p = profile(g, 2, [0, 4], 2)
        assert p.boundary == (0, 4)
        assert p.values == {0: 2, 4: 2}
        assert p.key() == (2, 2)
        assert p.finite_support() == (0, 4)

    def test_infinity_past_radius(self):
        g = path_graph(5)
        p = profile(g, 0, [3, 4], 2)
        assert p.values == {3: INF, 4: INF}
        assert p.finite_support() == ()

    def test_matches_reference_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n < 4:
                continue
            boundary = tuple(range(0, g.n, 3))
            others = [u for u in range(g.n) if u not in boundary]
            for r in (1, 2, 3):
                for u in others[:4]:
                    want = bruteforce.avoiding_profile(g, u, boundary, r)
                    got = profile(g, u, boundary, r)
                    assert got.key() == want, (name, u, r)


class TestProfileClasses:
    def test_star_leaves_fall_into_one_class(self):
        g = star_graph(5)
        classes = profile_classes(g, range(1, 6), [0], 1)
        assert classes == ((1, 2, 3, 4, 5),)
        assert mu(g, [0], 1) == 1

    def test_largest_class_first_ties_by_members(self):
        # P6 with boundary {2}: vertices 1,3 touch it, 0,4 sit at two steps,
        # 5 is out of radius
        g = path_graph(6)
        classes = profile_classes(g, [0, 1, 3, 4, 5], [2], 2)
        assert classes == ((0, 4), (1, 3), (5,))

    def test_candidate_on_boundary_rejected(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            profile_classes(g, [0, 1], [1, 3], 1)

    def test_mu_counts_distinct_profiles(self):
        g = path_graph(6)
        assert mu(g, [2], 2) == 3
        assert mu(g, list(range(6)), 1) == 0  # nothing outside

    def test_class_partition_is_exact(self):
        for name, g in corpus.small_corpus():
            if g.n < 5:
                continue
            boundary = (0, g.n - 1)
            cands = [u for u in range(1, g.n - 1)]
            classes = profile_classes(g, cands, boundary, 2)
            flat = sorted(v for c in classes for v in c)
            assert flat == cands, name
            for cls in classes:
                keys = {
                    bruteforce.avoiding_profile(g, u, boundary, 2) for u in cls
                }
                assert len(keys) == 1, (name, cls)


    @settings(max_examples=150)
    @given(st.data())
    def test_classes_and_order_match_profile_keys(self, data):
        g = draw_sparse_graph(data)
        boundary = data.draw(
            st.sets(st.integers(0, g.n - 1), max_size=4), label="boundary"
        )
        cands = [u for u in range(g.n) if u not in boundary]
        r = data.draw(st.integers(0, 4), label="r")
        assert profile_classes(g, cands, boundary, r) == (
            bruteforce.profile_classes_via_profile(g, cands, boundary, r)
        )


class TestClosure:
    def test_already_closed_set_returns_immediately(self):
        g = path_graph(6)
        res = closure(g, [0, 5], 1, 1)
        assert res.closed_set == (0, 5)
        assert res.iterations == 0
        assert res.converged
        assert res.max_projection <= 1

    def test_grows_until_projection_target_met(self):
        g = star_graph(6)
        # every leaf projects onto both ends of a two-leaf boundary via the
        # center, so the center must be absorbed
        res = closure(g, [1, 2], 2, 1)
        assert 0 in res.closed_set
        assert res.converged
        assert res.max_projection <= 1

    def test_absorbs_largest_projection_first(self):
        g = star_graph(4)
        res = closure(g, [1, 2, 3], 2, 1)
        # the center sees all three members; absorbing it ends the process
        assert res.closed_set == (0, 1, 2, 3)
        assert res.iterations == 1

    def test_max_additions_reports_non_convergence(self):
        g = grid_graph(4, 4)
        full = closure(g, [0, 3, 12, 15], 3, 1)
        if full.iterations > 1:
            res = closure(g, [0, 3, 12, 15], 3, 1, max_additions=1)
            assert not res.converged
            assert res.iterations == 1
            assert res.max_projection > 1

    def test_bad_target_rejected(self):
        with pytest.raises(GraphError):
            closure(path_graph(3), [0], 1, 0)

    def test_final_projection_bound_holds_on_corpus(self):
        for name, g in corpus.small_corpus():
            if not 4 <= g.n <= 12:
                continue
            res = closure(g, [0, g.n - 1], 2, 2)
            assert res.converged, name
            closed = set(res.closed_set)
            for u in range(g.n):
                if u in closed:
                    continue
                got = len(projection(g, u, res.closed_set, 2))
                assert got <= 2, (name, u)
                assert got <= res.max_projection or res.max_projection <= 2


    @settings(max_examples=200)
    @given(st.data())
    def test_incremental_rescan_matches_full_rescan(self, data):
        g = draw_sparse_graph(data, min_n=4)
        x = data.draw(
            st.sets(st.integers(0, g.n - 1), min_size=2, max_size=8), label="x"
        )
        r = data.draw(st.integers(1, 4), label="r")
        target = data.draw(st.integers(1, 2), label="target")
        cap = data.draw(st.none() | st.integers(0, 6), label="max_additions")
        assert closure(g, x, r, target, cap) == bruteforce.closure_rescan(
            g, x, r, target, cap
        )


class TestPathClosure:
    def test_path_between_close_members_is_added(self):
        g = path_graph(6)
        closed = path_closure(g, [0, 3], 3)
        assert closed == (0, 1, 2, 3)

    def test_distant_members_stay_detached(self):
        g = path_graph(6)
        assert path_closure(g, [0, 5], 3) == (0, 5)

    def test_smallest_id_shortest_path_chosen(self):
        # two parallel length-2 routes between 0 and 3: via 1 or via 2
        g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        assert path_closure(g, [0, 3], 2) == (0, 1, 3)

    def test_one_induced_search_per_member_with_a_partner(self, monkeypatch):
        calls = []
        real = drisk.projections.distances_from

        def counted(g, source, cutoff=None):
            calls.append(g.n)
            return real(g, source, cutoff)

        monkeypatch.setattr(drisk.projections, "distances_from", counted)
        g = path_graph(8)
        # 0, 1 and 2 each have a later member within 3; 3 and 7 do not
        closed = path_closure(g, [0, 1, 2, 3, 7], 3)
        assert closed == (0, 1, 2, 3, 7)
        assert calls == [8] * 5 + [len(closed)] * 3

    def test_unpreserved_distance_is_an_internal_error(self, monkeypatch):
        # a descent that adds no inner vertex cuts 0 from 3 (two apart
        # through 2); 0's other partner, 1, is adjacent and stays fine
        monkeypatch.setattr(drisk.projections, "_descend", lambda g, dist, start: [start])
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        with pytest.raises(RuntimeError, match="induced distance not preserved"):
            path_closure(g, [0, 1, 3], 2)

    def test_preserves_short_distances_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n < 4:
                continue
            members = tuple(range(0, g.n, 2))
            for r in (2, 3):
                closed = path_closure(g, members, r)
                assert set(members) <= set(closed), name
                sub, idmap = induced_subgraph(g, closed)
                for u in members:
                    du = distances_from(g, u, r)
                    inside = distances_from(sub, idmap[u])
                    for v in members:
                        if v in du:
                            assert inside.get(idmap[v]) == du[v], (name, u, v, r)
