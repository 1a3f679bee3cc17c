"""Unit tests for graph constructions: standard families, exact
subdivisions, the pendant gadget, the bucket sampler and the distance
dichotomy gadget."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import drisk.generators
from drisk.generators import (
    BucketModelSample,
    HardnessInstance,
    PendantGraph,
    _family,
    bucket_model,
    complete_graph,
    cycle_graph,
    exact_subdivision,
    gnm_random,
    grid_graph,
    hardness_reduction,
    path_graph,
    pendant_construction,
    star_graph,
    subdivision_vertex_range,
    trim_short_cycles,
)
from drisk.graph import Graph, GraphError, distances_from, girth


class TestFamilies:
    def test_path(self):
        g = path_graph(4)
        assert (g.n, g.m) == (4, 3)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert path_graph(1).m == 0
        with pytest.raises(GraphError):
            path_graph(0)

    def test_cycle(self):
        g = cycle_graph(5)
        assert (g.n, g.m) == (5, 5)
        assert all(g.degree(v) == 2 for v in range(5))
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert (g.n, g.m) == (12, 3 * 3 + 2 * 4)
        assert g.has_edge(0, 1) and g.has_edge(0, 4)
        assert not g.has_edge(3, 4)  # row boundary
        with pytest.raises(GraphError):
            grid_graph(0, 3)

    def test_star(self):
        g = star_graph(6)
        assert (g.n, g.m) == (7, 6)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))
        with pytest.raises(GraphError):
            star_graph(0)

    def test_complete(self):
        g = complete_graph(5)
        assert (g.n, g.m) == (5, 10)
        assert all(g.degree(v) == 4 for v in range(5))

    def test_gnm_is_seeded_and_simple(self):
        a = gnm_random(12, 20, 7)
        b = gnm_random(12, 20, 7)
        c = gnm_random(12, 20, 8)
        assert a.edges == b.edges
        assert a.edges != c.edges
        assert (a.n, a.m) == (12, 20)
        assert len(set(a.edges)) == 20
        with pytest.raises(GraphError):
            gnm_random(3, 4, 0)

    def test_family_dispatch(self):
        assert _family("path", {"n": 3}).edges == path_graph(3).edges
        assert _family("grid", {"rows": 2, "cols": 2}).n == 4
        assert _family("gnm", {"n": 6, "m": 5, "seed": 3}).edges == gnm_random(6, 5, 3).edges
        # a missing seed is 0; bucket gives the sample's trimmed graph
        assert _family("gnm", {"n": 6, "m": 5}).edges == gnm_random(6, 5, 0).edges
        assert _family("bucket", {"n": 10, "d": 3}).edges == bucket_model(10, 3, 0).g.edges
        with pytest.raises(GraphError, match="unknown family kind 'hypercube'"):
            _family("hypercube", {"n": 3})
        with pytest.raises(GraphError, match=r"unknown family kind \['path'\]"):
            _family(["path"], {"n": 3})
        with pytest.raises(KeyError):
            _family("grid", {"rows": 2})


class TestExactSubdivision:
    def test_radius_one_is_identity(self):
        g = cycle_graph(4)
        sub, origin = exact_subdivision(g, 1)
        assert sub.edges == g.edges and sub.n == g.n
        assert origin == {v: v for v in range(4)}
        assert list(subdivision_vertex_range(g, 1)) == []

    def test_chain_layout_per_edge(self):
        g = cycle_graph(3)  # edges (0,1), (0,2), (1,2) in sorted order
        sub, _ = exact_subdivision(g, 3)
        assert sub.n == 3 + 3 * 2
        assert list(subdivision_vertex_range(g, 3)) == [3, 4, 5, 6, 7, 8]
        assert sub.has_edge(0, 3) and sub.has_edge(3, 4) and sub.has_edge(4, 1)
        assert sub.has_edge(0, 5) and sub.has_edge(5, 6) and sub.has_edge(6, 2)
        assert sub.has_edge(1, 7) and sub.has_edge(7, 8) and sub.has_edge(8, 2)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_distances_scale_exactly(self, r):
        for g in (cycle_graph(5), grid_graph(2, 3), gnm_random(7, 9, 1)):
            sub, _ = exact_subdivision(g, r)
            for u in range(g.n):
                base = distances_from(g, u)
                scaled = distances_from(sub, u)
                for v in range(g.n):
                    if v in base:
                        assert scaled[v] == r * base[v]
                    else:
                        assert v not in scaled

    def test_rejects_bad_inputs(self):
        with pytest.raises(GraphError):
            exact_subdivision(cycle_graph(3), 0)


class TestPendantConstruction:
    @pytest.mark.parametrize("r", [2, 3])
    def test_structure(self, r):
        g = path_graph(3)
        p = pendant_construction(g, r)
        subdiv = tuple(subdivision_vertex_range(g, r))
        assert p.subdivision_vertices == subdiv
        assert p.r == r
        # one apex, a private length-r path per subdivision vertex, one
        # pendant path of length r ending at y
        expect_n = (g.n + (r - 1) * g.m) + 1 + (r - 1) * len(subdiv) + (r - 1) + 1
        assert p.graph.n == expect_n
        assert p.y == p.graph.n - 1
        dist = distances_from(p.graph, p.x)
        assert dist[p.y] == r
        assert all(dist[w] == r for w in subdiv)
        # base vertices sit one step beyond the subdivision ring
        assert all(dist[v] == r + 1 for v in range(g.n))

    def test_rejects_radius_one(self):
        with pytest.raises(GraphError):
            pendant_construction(path_graph(3), 1)

    def test_validation_rejects_wrong_claims(self):
        p = pendant_construction(path_graph(3), 2)
        with pytest.raises(GraphError):
            PendantGraph(p.graph, p.origin, p.x, p.x, p.r, p.subdivision_vertices)
        with pytest.raises(GraphError):
            PendantGraph(p.graph, p.origin, p.x, p.y, p.r, (0,))


class TestTrimShortCycles:
    def test_kills_loops_parallels_and_short_cycles(self):
        pairs = [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        g, removed = trim_short_cycles(5, pairs, 3)
        assert removed == 3  # the loop, one parallel copy, one triangle edge
        assert g.edges == ((0, 1), (1, 2), (2, 4), (3, 4))
        assert girth(g) > 3

    def test_low_thresholds_cut_loops_then_parallel_copies(self):
        g, removed = trim_short_cycles(3, [(0, 0), (0, 1), (1, 2), (2, 2)], 1)
        assert removed == 2 and g.edges == ((0, 1), (1, 2))
        pairs = [(0, 0), (0, 1), (0, 1), (0, 1), (0, 2), (1, 2), (1, 2), (2, 3)]
        g, removed = trim_short_cycles(4, pairs, 2)
        assert removed == 4 and g.edges == ((0, 1), (0, 2), (1, 2), (2, 3))

    def test_acyclic_graph_untouched(self):
        pairs = [(0, 1), (1, 2), (2, 3)]
        g, removed = trim_short_cycles(4, pairs, 5)
        assert removed == 0 and g.edges == tuple(pairs)

    def test_girth_exceeds_threshold_on_random_multigraphs(self):
        import random

        rng = random.Random(11)
        for trial in range(20):
            n = rng.randint(4, 10)
            # raw pairs with loops and repeats, normalised and sorted as
            # the bucket sampler hands them over
            edges = sorted(
                tuple(sorted((rng.randrange(n), rng.randrange(n))))
                for _ in range(rng.randint(3, 16))
            )
            for d in (2, 3, 4, 5):
                g, removed = trim_short_cycles(n, edges, d)
                assert bruteforce.girth(g) > d, (n, edges, d)
                assert g.m == len(edges) - removed
                assert set(g.edges) <= set(edges)


    @settings(max_examples=150)
    @given(st.data())
    def test_short_cycle_search_matches_the_reference(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)
            if pairs else st.just([]),
            label="edges",
        )
        # the search follows the dicts' insertion order, which is drawn too
        adj = [dict() for _ in range(n)]
        for u, v in edges:
            adj[u][v] = adj[v][u] = 1
        for root in range(n):
            for d in range(1, 8):
                assert drisk.generators._bfs_short_cycle(
                    adj, root, d
                ) == bruteforce.bfs_short_cycle(adj, root, d), (root, d)


class TestBucketModel:
    @settings(max_examples=40)
    @given(
        n=st.integers(1, 30).map(lambda h: 2 * h),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32),
    )
    def test_samples_match_the_reference_cycle_search(self, n, d, seed):
        got = bucket_model(n, d, seed)
        with mock.patch.object(
            drisk.generators, "_bfs_short_cycle", bruteforce.bfs_short_cycle
        ):
            want = bucket_model(n, d, seed)
        assert got.g.edges == want.g.edges
        assert got.removed_edges == want.removed_edges

    def test_seeded_determinism(self):
        a = bucket_model(20, 3, 4)
        b = bucket_model(20, 3, 4)
        c = bucket_model(20, 3, 5)
        assert a.g.edges == b.g.edges and a.g0 == b.g0
        assert a.g.edges != c.g.edges

    @pytest.mark.parametrize("n,d,seed", [(10, 3, 0), (14, 4, 2), (20, 5, 9)])
    def test_invariants(self, n, d, seed):
        s = bucket_model(n, d, seed)
        assert len(s.g0) == d * n // 2
        assert list(s.g0) == sorted(s.g0) and all(u <= v for u, v in s.g0)
        # every vertex ends d pairs, a loop counting at both ends
        ends = [v for pair in s.g0 for v in pair]
        assert all(ends.count(v) == d for v in range(n))
        assert all(s.g.degree(v) <= d for v in range(n))
        assert bruteforce.girth(s.g) > d
        assert s.g.m == len(s.g0) - s.removed_edges
        # the trim gets the raw pairs, loops and repeats included, as
        # each of these samples has
        assert any(u == v for u, v in s.g0) and len(set(s.g0)) < len(s.g0)
        g, removed = trim_short_cycles(n, s.g0, d)
        assert (g.edges, removed) == (s.g.edges, s.removed_edges)

    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            bucket_model(7, 3, 0)  # odd n
        with pytest.raises(GraphError):
            bucket_model(0, 3, 0)
        with pytest.raises(GraphError):
            bucket_model(10, 0, 0)

    def test_validation_rejects_wrong_claims(self):
        s = bucket_model(10, 3, 1)
        # a trim to girth > 2 only keeps a triangle here
        kept, removed = trim_short_cycles(s.n, s.g0, 2)
        assert girth(kept) == 3
        with pytest.raises(GraphError):
            BucketModelSample(s.g0, kept, s.n, s.d, s.seed, removed)
        with pytest.raises(GraphError):
            BucketModelSample(s.g0[1:], s.g, s.n, s.d, s.seed, s.removed_edges)
        with pytest.raises(GraphError):
            shifted = ((0, 0),) + s.g0[1:]  # one end moved: not 3-regular
            BucketModelSample(shifted, s.g, s.n, s.d, s.seed, s.removed_edges)
        with pytest.raises(GraphError):
            star = Graph(s.n, [(0, v) for v in range(1, 5)])  # degree 4 > 3
            BucketModelSample(s.g0, star, s.n, s.d, s.seed, 0)


class TestHardnessReduction:
    @pytest.mark.parametrize("r", [1, 2])
    def test_distance_dichotomy_over_base_vertices(self, r):
        g = gnm_random(5, 6, 3)
        inst = hardness_reduction(g, r)
        assert inst.o_set == tuple(range(g.n))
        mat = {u: distances_from(inst.graph, u) for u in inst.o_set}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    assert mat[u][v] == 3 * r
                else:
                    assert mat[u][v] == 6 * r

    def test_apex_and_pendant_distances(self):
        g = cycle_graph(4)
        for r in (1, 2):
            inst = hardness_reduction(g, r)
            dist = distances_from(inst.graph, inst.x)
            assert dist[inst.y] == 3 * r
            # every base vertex sits exactly 3r from the apex
            assert all(dist[v] == 3 * r for v in inst.o_set)

    def test_validation_rejects_wrong_claims(self):
        inst = hardness_reduction(cycle_graph(4), 1)
        with pytest.raises(GraphError):
            HardnessInstance(inst.graph, inst.origin, inst.x, inst.x, inst.r, inst.o_set)

    def test_rejects_bad_inputs(self):
        with pytest.raises(GraphError):
            hardness_reduction(cycle_graph(3), 0)
