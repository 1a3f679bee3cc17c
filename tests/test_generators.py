"""Unit tests for graph constructions: standard families, exact
subdivisions, the pendant gadget, the bucket sampler and the distance
dichotomy gadget."""

import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
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
from drisk.graph import Graph, GraphError, _CycleSearch, distances_from, girth


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

    def test_gnm_matches_the_listed_sampler(self):
        # n up to 39 reaches both branches of random.sample: a pool copy
        # for draws near the pair count and a seen-set for sparse ones
        cases = [(n, m) for n in range(40)
                 for m in {0, 1, n * (n - 1) // 6, n * (n - 1) // 4,
                           n * (n - 1) // 2 - 1, n * (n - 1) // 2}
                 if 0 <= m <= n * (n - 1) // 2]
        cases += [(200, 10), (200, 300), (1000, 10), (1000, 1500)]
        for n, m in cases:
            for seed in range(3):
                want = bruteforce.gnm_random_listed(n, m, seed)
                assert gnm_random(n, m, seed).edges == want.edges, (n, m, seed)

    def test_gnm_keeps_the_listed_sampler_errors(self):
        for n, m in ((-1, 0), (-1, 1), (-3, 0), (3, 4), (3, -1)):
            with pytest.raises((GraphError, ValueError)) as want:
                bruteforce.gnm_random_listed(n, m, 0)
            with pytest.raises(want.type, match=str(want.value)):
                gnm_random(n, m, 0)

    def test_sparse_gnm_never_lists_the_pairs(self):
        # 2,000 vertices have 1,999,000 pairs; as a list of tuples they
        # take about 190 MB, while the graph itself needs well under 1 MB
        tracemalloc.start()
        try:
            g = gnm_random(2000, 10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (2000, 10)
        assert peak < 2_000_000

    def test_family_dispatch(self):
        assert _family("path", {"n": 3}).edges == path_graph(3).edges
        assert _family("grid", {"rows": 2, "cols": 2}).n == 4
        assert _family("gnm", {"n": 6, "m": 5, "seed": 3}).edges == gnm_random(6, 5, 3).edges
        # bucket gives the whole sample, whose trimmed graph is .g
        bucket = _family("bucket", {"n": 10, "d": 3, "seed": 0})
        sample = bucket_model(10, 3, 0)
        assert (bucket.g0, bucket.g.edges, bucket.removed_edges) == (
            sample.g0, sample.g.edges, sample.removed_edges
        )
        with pytest.raises(KeyError):
            _family("grid", {"rows": 2})


class TestExactSubdivision:
    def test_radius_one_is_identity(self):
        g = cycle_graph(4)
        sub = exact_subdivision(g, 1)
        assert sub.edges == g.edges and sub.n == g.n
        assert list(subdivision_vertex_range(g, 1)) == []

    def test_chain_layout_per_edge(self):
        g = cycle_graph(3)  # edges (0,1), (0,2), (1,2) in sorted order
        sub = exact_subdivision(g, 3)
        assert sub.n == 3 + 3 * 2
        assert list(subdivision_vertex_range(g, 3)) == [3, 4, 5, 6, 7, 8]
        assert sub.has_edge(0, 3) and sub.has_edge(3, 4) and sub.has_edge(4, 1)
        assert sub.has_edge(0, 5) and sub.has_edge(5, 6) and sub.has_edge(6, 2)
        assert sub.has_edge(1, 7) and sub.has_edge(7, 8) and sub.has_edge(8, 2)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_distances_scale_exactly(self, r):
        for g in (cycle_graph(5), grid_graph(2, 3), gnm_random(7, 9, 1)):
            sub = exact_subdivision(g, r)
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
            PendantGraph(p.graph, p.x, p.x, p.r, p.subdivision_vertices)
        with pytest.raises(GraphError):
            PendantGraph(p.graph, p.x, p.y, p.r, (0,))


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
        # repeated pairs merge into one edge at every d, since a Graph is
        # simple, and each extra copy counts as removed, at d = 1 too
        for d in (1, 2, 3):
            g, removed = trim_short_cycles(2, [(0, 1), (1, 0), (0, 1)], d)
            assert g.edges == ((0, 1),) and removed == 2, d

    def test_acyclic_graph_untouched(self):
        pairs = [(0, 1), (1, 2), (2, 3)]
        g, removed = trim_short_cycles(4, pairs, 5)
        assert removed == 0 and g.edges == tuple(pairs)

    def test_girth_exceeds_threshold_on_random_multigraphs(self):
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

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 3), (3, 3)])
    def test_out_of_range_pairs_are_rejected(self, pair):
        with pytest.raises(GraphError):
            trim_short_cycles(3, [(0, 1), pair], 3)

    @settings(max_examples=150)
    @given(st.data())
    def test_short_cycle_search_matches_the_reference(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        # raw pairs in any order and orientation, loops and repeats
        # included: the search follows the order the pairs first list
        # each neighbour, which is drawn too
        vertex = st.integers(0, n - 1)
        pairs = data.draw(
            st.lists(st.tuples(vertex, vertex), max_size=3 * n), label="pairs"
        )
        links = [tuple(sorted(p)) for p in pairs if p[0] != p[1]]
        repeats = len(links) - len(set(links))
        for d in range(1, 8):
            g, removed = trim_short_cycles(n, pairs, d)
            want_g, want_removed = bruteforce.trim_short_cycles(n, pairs, d)
            assert g.edges == want_g.edges, d
            # at d = 1 the reference merges repeats without counting them
            if d == 1:
                want_removed += repeats
            assert removed == want_removed == len(pairs) - g.m, d

    @settings(max_examples=150)
    @given(st.data())
    def test_each_root_closes_the_reference_cycle(self, data):
        n = data.draw(st.integers(1, 14), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)
            if pairs else st.just([]),
            label="edges",
        )
        # both searches follow the order the edges list each neighbour
        adj = [[] for _ in range(n)]
        ref_adj = [dict() for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
            ref_adj[u][v] = ref_adj[v][u] = 1
        search = _CycleSearch(adj)
        for root in range(n):
            # the search is confined to root and the vertices above it,
            # so the reference searches that part of the graph
            upper = [{w: 1 for w in nbrs if w >= root} if v >= root else {}
                     for v, nbrs in enumerate(ref_adj)]
            for d in range(1, 8):
                want = bruteforce.bfs_short_cycle(upper, root, d)
                found = search.at(root, d)
                if want is None:
                    assert found is None, (root, d)
                    continue
                # the reference cycle runs from u to w over the edge u < w
                assert found is not None and found[1:] == (want[0], want[-1]), (root, d)
                got = {tuple(sorted(e)) for e in search.cycle_edges(found[1], found[2])}
                ring = zip(want, want[1:] + want[:1])
                assert got == {tuple(sorted(e)) for e in ring}, (root, d)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_root_is_decided_as_the_whole_search_decides_it(self, seed):
        # replay the trim's root loop with the reference search of the
        # whole graph beside the confined one, and check that the two
        # find the same cycle at every search of the loop, and that a
        # root with fewer neighbours above it than a short closed walk
        # needs (two when d <= 4, one when d >= 5) has none to find
        rng = random.Random(seed)
        searches = skipped = 0
        for _ in range(150):
            n = rng.randint(1, 30)
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))]
            if rng.random() < 0.5:  # sorted and normalised, as bucket_model hands them over
                pairs = sorted((min(p), max(p)) for p in pairs)
            norm = [(u, v) if u <= v else (v, u) for u, v in pairs]
            for d in range(3, 9):
                adj = [[] for _ in range(n)]
                ref_adj = [dict() for _ in range(n)]
                for u, v in dict.fromkeys(norm):
                    if u != v:
                        adj[u].append(v)
                        adj[v].append(u)
                        ref_adj[u][v] = ref_adj[v][u] = 1
                search = _CycleSearch(adj)
                for root in range(n):
                    if sum(w > root for w in adj[root]) < (2 if d <= 4 else 1):
                        assert bruteforce.bfs_short_cycle(ref_adj, root, d) is None
                        skipped += 1
                        continue
                    while True:
                        want = bruteforce.bfs_short_cycle(ref_adj, root, d)
                        found = search.at(root, d)
                        if want is None:
                            assert found is None, (seed, n, pairs, d, root)
                            break
                        searches += 1
                        assert found is not None and found[1:] == (want[0], want[-1]), (
                            seed, n, pairs, d, root)
                        cycle = [tuple(sorted(e)) for e in search.cycle_edges(found[1], found[2])]
                        ring = zip(want, want[1:] + want[:1])
                        assert set(cycle) == {tuple(sorted(e)) for e in ring}
                        eu, ev = min(cycle)
                        adj[eu].remove(ev)
                        adj[ev].remove(eu)
                        del ref_adj[eu][ev], ref_adj[ev][eu]
                kept = sorted((u, v) for u in range(n) for v in adj[u] if u < v)
                assert trim_short_cycles(n, pairs, d)[0].edges == tuple(kept)
        # the draws reach both searches that find a cycle and the skip
        assert searches > 100 and skipped > 100, (searches, skipped)

    def test_a_search_marks_nothing_below_its_root(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 25)
            adj = [[] for _ in range(n)]
            for u, v in {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}:
                adj[u].append(v)
                adj[v].append(u)
            search = _CycleSearch(adj)
            for root in range(n):
                for d in (3, 6, 9):
                    base = search.top + 1
                    search.at(root, d)
                    assert search.mark[root] == base
                    assert all(m < base for m in search.mark[:root]), (n, adj, root, d)

    @pytest.mark.parametrize("seed", range(3))
    def test_drawn_multigraphs_match_the_reference_trim(self, seed):
        # multigraphs up to 300 vertices, against the trim from before the
        # stamped search, at every threshold where a cycle search runs
        rng = random.Random(seed)
        cut = 0  # edges removed from cycles of length >= 3
        for _ in range(20):
            n = rng.randint(2, 300)
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(n // 2, 2 * n))]
            if rng.random() < 0.5:
                pairs = sorted((min(p), max(p)) for p in pairs)
            links = {(min(p), max(p)) for p in pairs if p[0] != p[1]}
            for d in range(3, 11):
                g, removed = trim_short_cycles(n, pairs, d)
                want_g, want_removed = bruteforce.trim_short_cycles(n, pairs, d)
                assert (g.edges, removed) == (want_g.edges, want_removed), (seed, n, d)
                cut += len(links) - g.m
        assert cut > 2000, cut


class TestBucketModel:
    @settings(max_examples=40)
    @given(
        n=st.integers(1, 30).map(lambda h: 2 * h),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32),
    )
    def test_samples_match_the_reference_cycle_search(self, n, d, seed):
        got = bucket_model(n, d, seed)
        want_g, want_removed = bruteforce.trim_short_cycles(n, got.g0, d)
        assert got.g.edges == want_g.edges
        assert got.removed_edges == want_removed

    @pytest.mark.parametrize("n", [100, 300])
    @pytest.mark.parametrize("d", range(3, 8))
    def test_larger_samples_match_the_reference_cycle_search(self, n, d):
        for seed in range(3):
            got = bucket_model(n, d, seed)
            want_g, want_removed = bruteforce.trim_short_cycles(n, got.g0, d)
            assert got.g.edges == want_g.edges, seed
            assert got.removed_edges == want_removed, seed

    @pytest.mark.parametrize("n,d", [(2, 1), (4, 3), (10, 3), (50, 4), (200, 5), (64, 12), (1000, 3)])
    def test_g0_is_the_matching_random_shuffle_draws(self, n, d):
        for seed in (0, 1, 7, 2**32 + 5):
            points = list(range(d * n))
            random.Random(seed).shuffle(points)
            ends = [p // d for p in points]
            pairs = sorted(tuple(sorted(e)) for e in zip(ends[::2], ends[1::2]))
            assert bucket_model(n, d, seed).g0 == tuple(pairs), seed

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
        with pytest.raises(GraphError, match="short cycle survived trimming"):
            BucketModelSample(s.g0, kept, s.n, s.d, s.seed, removed)
        with pytest.raises(GraphError, match="wrong edge count in g0"):
            BucketModelSample(s.g0[1:], s.g, s.n, s.d, s.seed, s.removed_edges)
        with pytest.raises(GraphError, match="g0 is not d-regular"):
            shifted = ((0, 0),) + s.g0[1:]  # one end moved: not 3-regular
            BucketModelSample(shifted, s.g, s.n, s.d, s.seed, s.removed_edges)
        with pytest.raises(GraphError, match="g0 is not d-regular"):
            # the count is right, but one vertex lies outside range(n)
            moved = tuple((u, 10 if v == 9 else v) for u, v in s.g0)
            BucketModelSample(moved, s.g, s.n, s.d, s.seed, s.removed_edges)
        with pytest.raises(GraphError, match="degree bound violated"):
            star = Graph(s.n, [(0, v) for v in range(1, 5)])  # degree 4 > 3
            BucketModelSample(s.g0, star, s.n, s.d, s.seed, 0)
        # the sample itself passes every check
        BucketModelSample(s.g0, s.g, s.n, s.d, s.seed, s.removed_edges)


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
            HardnessInstance(inst.graph, inst.x, inst.x, inst.r, inst.o_set)

    def test_rejects_bad_inputs(self):
        with pytest.raises(GraphError):
            hardness_reduction(cycle_graph(3), 0)


# Per base graph and r: the first 16 hex digits of the SHA-256 of
# repr(edges) of exact_subdivision, pendant_construction (None at r = 1,
# which it refuses) and hardness_reduction, with the pendant's and the
# hardness gadget's (x, y).  Read from the constructions before they
# were rebuilt on one path-gluing step.
GADGET_PINS = {
    ("cycle5", 1): ("356248cf1c122888", None, None, "c4d9e07a4407e0f1", (15, 28)),
    ("cycle5", 2): ("7d99428433a487e9", "99a0e8a51830f368", (10, 17), "1c8aebdb6a309b07", (15, 28)),
    ("cycle5", 3): ("affa307e0e5f30a6", "35e9434fd1e7904c", (15, 38), "161fae5fa6ff3a62", (15, 28)),
    ("grid2x3", 1): ("f845c6049969f91c", None, None, "9f66fe581f2d58bd", (20, 37)),
    ("grid2x3", 2): ("86259fbe624600ab", "5b1e2aacf8938c27", (13, 22), "e07ee89974b36cba", (20, 37)),
    ("grid2x3", 3): ("ba527db63d4dbb31", "85833e410b637b9e", (20, 51), "7fea0cd4e3ef24b4", (20, 37)),
    ("gnm7", 1): ("3a3723c5306eeba1", None, None, "9dbe0572f60aa1d0", (27, 50)),
    ("gnm7", 2): ("37ac0a69a86753bc", "95a3e1abc24f40fe", (17, 29), "2515a1934a690f9a", (27, 50)),
    ("gnm7", 3): ("010ba1b2b1c527e9", "07454d0026f89855", (27, 70), "2446a74fb91d4682", (27, 50)),
}


class TestGadgetPins:
    BASES = {"cycle5": cycle_graph(5), "grid2x3": grid_graph(2, 3), "gnm7": gnm_random(7, 10, 3)}

    @staticmethod
    def digest(g):
        return hashlib.sha256(repr(g.edges).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("name,r", sorted(GADGET_PINS))
    def test_constructions_match_pins(self, name, r):
        sub, pend, pend_xy, hard, hard_xy = GADGET_PINS[name, r]
        g = self.BASES[name]
        assert self.digest(exact_subdivision(g, r)) == sub
        if pend is not None:
            p = pendant_construction(g, r)
            assert (self.digest(p.graph), (p.x, p.y)) == (pend, pend_xy)
        inst = hardness_reduction(g, r)
        assert (self.digest(inst.graph), (inst.x, inst.y)) == (hard, hard_xy)
