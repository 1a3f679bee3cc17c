"""Unit tests for the core graph type and its BFS-based distance queries."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
import drisk.graph
from drisk.graph import (
    BallTraces,
    Graph,
    GraphError,
    _descend,
    ball,
    distances_from,
    girth,
    induced_subgraph,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)


class TestConstruction:
    def test_edges_are_normalized_and_sorted(self):
        g = Graph(4, [(2, 1), (3, 0), (0, 1)])
        assert g.edges == ((0, 1), (0, 3), (1, 2))
        assert g.adjacency == ((1, 3), (0, 2), (1,), (0,))
        assert g.n == 4 and g.m == 3

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(3, [(-1, 0)])

    def test_simple_mode_rejects_loops_and_parallels(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])
        with pytest.raises(GraphError):
            Graph(2, [(0, 1), (1, 0)])

    def test_refusal_order_is_range_then_loops_then_parallels(self):
        # one list with all three faults; the range error names its pair
        bad = [(1, 0), (2, 2), (0, 1), (0, 3)]
        with pytest.raises(GraphError, match=r"edge \(0,3\) out of range for n=3"):
            Graph(3, bad)
        with pytest.raises(GraphError, match="loops are not allowed"):
            Graph(3, bad[:3])
        with pytest.raises(GraphError, match="parallel edges are not allowed"):
            Graph(3, [bad[0], bad[2]])

    @settings(max_examples=200)
    @given(st.data())
    def test_shuffled_and_flipped_edges_give_sorted_views(self, data):
        n = data.draw(st.integers(0, 20), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]),
            label="edges",
        )
        edges = data.draw(st.permutations(edges), label="order")
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)),
                          label="flips")
        g = Graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])
        assert g.edges == tuple(sorted(edges))
        for v in range(n):
            want = sorted({u for e in edges if v in e for u in e} - {v})
            assert g.adjacency[v] == tuple(want)

    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0 and g.edges == ()

    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2) and not g.has_edge(0, 0)
        g = Graph(4, [(0, 1), (1, 2)])
        assert not g.has_edge(3, 3) and not g.has_edge(0, 3)
        assert not g.has_edge(0, 4) and not g.has_edge(-1, 0)


class TestVset:
    def test_sorts_and_deduplicates(self):
        assert vset([3, 1, 3, 2]) == (1, 2, 3)

    def test_range_check_against_graph(self):
        g = Graph(3)
        assert vset([2, 0], g) == (0, 2)
        with pytest.raises(GraphError):
            vset([3], g)
        with pytest.raises(GraphError):
            vset([-1], g)

    def test_empty_is_fine(self):
        assert vset([], Graph(2)) == ()


class TestDistances:
    def test_single_source_matches_reference_bfs(self):
        for name, g in corpus.small_corpus():
            adj = bruteforce.simple_adj(g)
            for s in range(0, g.n, max(1, g.n // 3)):
                want = bruteforce.bfs_dists(adj, s)
                got = distances_from(g, s)
                assert got == want, name

    def test_cutoff_truncates(self):
        g = Graph(6, [(i, i + 1) for i in range(5)])
        assert distances_from(g, 0, 2) == {0: 0, 1: 1, 2: 2}
        assert distances_from(g, 0, 0) == {0: 0}

    def test_multi_source_is_min_over_sources(self):
        g = Graph(7, [(i, i + 1) for i in range(6)])
        got = multi_source_distances(g, [0, 6])
        for v in range(7):
            assert got[v] == min(v, 6 - v)

    def test_multi_source_empty_sources(self):
        g = Graph(3, [(0, 1)])
        assert multi_source_distances(g, []) == {}

    def test_blocked_vertices_are_deleted(self):
        g = Graph(7, [(i, i + 1) for i in range(6)])
        # 3 cuts the path; the blocked source 6 is dropped
        assert multi_source_distances(g, [0, 6], blocked={3, 6}) == {
            0: 0, 1: 1, 2: 2
        }
        assert multi_source_distances(g, [3], blocked=[3]) == {}
        assert is_distance_independent(g, [1, 5], 3, blocked=[3])
        assert not is_distance_independent(g, [1, 5], 4)

    @settings(max_examples=150)
    @given(st.data())
    def test_blocked_search_matches_the_deleted_graph(self, data):
        n = data.draw(st.integers(1, 16), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]),
            label="edges",
        )
        g = Graph(n, edges)
        vertex = st.integers(0, n - 1)
        blocked = data.draw(st.sets(vertex, max_size=4), label="blocked")
        sources = data.draw(st.lists(vertex, max_size=4), label="sources")
        cutoff = data.draw(st.none() | st.integers(0, 5), label="cutoff")
        full = bruteforce.simple_adj(g)
        adj = [set() if v in blocked else full[v] - blocked for v in range(n)]
        want = {}
        for src in set(sources) - blocked:
            for v, d in bruteforce.bfs_dists(adj, src).items():
                if (cutoff is None or d <= cutoff) and d < want.get(v, math.inf):
                    want[v] = d
        assert multi_source_distances(g, sources, cutoff, blocked) == want
        members = [v for v in set(sources) if v not in blocked]
        spread = cutoff if cutoff is not None else 2
        want_ind = all(
            bruteforce.bfs_dists(adj, u).get(v, math.inf) > spread
            for u in members
            for v in members
            if u != v
        )
        assert is_distance_independent(g, members, spread, blocked) == want_ind


class TestBall:
    def test_examples(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        assert ball(g, 1, 1) == (0, 1, 2)
        assert ball(g, 4, 2) == (4,)
        assert ball(g, 0, 0) == (0,)

    def test_negative_radius_rejected(self):
        with pytest.raises(GraphError):
            ball(Graph(1), 0, -1)


class TestInducedSubgraph:
    def test_ids_follow_sorted_order(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sub, idmap = induced_subgraph(g, [4, 1, 2])
        assert idmap == {1: 0, 2: 1, 4: 2}
        assert sub.n == 3
        assert sub.edges == ((0, 1),)

    def test_distances_never_shrink(self):
        for name, g in corpus.small_corpus():
            if g.n < 4:
                continue
            keep = list(range(0, g.n, 2))
            sub, idmap = induced_subgraph(g, keep)
            orig = bruteforce.dist_matrix(g)
            subm = bruteforce.dist_matrix(sub)
            for u in keep:
                for v in keep:
                    got = subm[idmap[u]].get(idmap[v], math.inf)
                    assert got >= orig[u].get(v, math.inf), name


class TestPredicates:
    def test_independent_examples(self):
        p = Graph(6, [(i, i + 1) for i in range(5)])
        assert is_distance_independent(p, [0, 3], 2)
        assert not is_distance_independent(p, [0, 2], 2)
        assert is_distance_independent(p, [0], 5)
        assert is_distance_independent(p, [], 1)

    def test_dominating_examples(self):
        p = Graph(6, [(i, i + 1) for i in range(5)])
        assert is_distance_dominating(p, [1, 4], [0, 1, 2, 3, 4, 5], 1)
        assert not is_distance_dominating(p, [1], [0, 1, 2, 3, 4, 5], 1)
        assert is_distance_dominating(p, [], [], 3)
        assert not is_distance_dominating(p, [], [0], 3)

    def test_predicates_match_reference_distances(self):
        for name, g in corpus.small_corpus():
            if g.n < 3:
                continue
            mat = bruteforce.dist_matrix(g)
            sets = [tuple(range(0, g.n, 3)), (0, g.n - 1)]
            for s in sets:
                for r in (1, 2):
                    want = all(
                        mat[u].get(v, math.inf) > r for u in s for v in s if u != v
                    )
                    assert is_distance_independent(g, s, r) == want, name
                    targets = tuple(range(g.n))
                    want_dom = all(
                        min(mat[u].get(v, math.inf) for u in s) <= r for v in targets
                    )
                    assert is_distance_dominating(g, s, targets, r) == want_dom, name


class TestGirth:
    def test_acyclic_graphs_have_no_cycle(self):
        assert girth(Graph(1)) == math.inf
        assert girth(Graph(5, [(i, i + 1) for i in range(4)])) == math.inf

    def test_examples(self):
        assert girth(Graph(3, [(0, 1), (1, 2), (2, 0)])) == 3
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert girth(c5) == 5

    def test_cap_semantics(self):
        c7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
        assert girth(c7, cap=6) == math.inf
        assert girth(c7, cap=7) == 7
        assert girth(c7, cap=20) == 7

    def test_matches_reference_on_corpus(self):
        for name, g in corpus.small_corpus():
            assert girth(g) == bruteforce.girth(g), name

    def test_matches_reference_on_random_graphs(self):
        import random

        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(2, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randint(0, min(2 * n, len(pairs))))
            g = Graph(n, edges)
            want = bruteforce.girth(g)
            assert girth(g) == want, (n, edges)
            # a capped search gives the girth within the cap, inf beyond it
            for cap in range(1, 8):
                assert girth(g, cap) == (want if want <= cap else math.inf), (n, edges, cap)


def draw_graph(data, max_n=12):
    """A graph on 1..max_n vertices with up to 2n distinct edges."""
    n = data.draw(st.integers(1, max_n), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)
        if pairs else st.just([]),
        label="edges",
    )
    return Graph(n, edges)


class TestSharedSearches:
    """The shared BFS, cycle search and level descent against the
    hand-rolled loops they replaced, kept verbatim in bruteforce."""

    @settings(max_examples=200)
    @given(st.data())
    def test_stop_search_matches_the_avoiding_bfs(self, data):
        g = draw_graph(data)
        vertex = st.integers(0, g.n - 1)
        source = data.draw(vertex, label="source")
        stop = data.draw(st.sets(vertex, max_size=6), label="stop")
        cutoff = data.draw(st.integers(0, 6), label="cutoff")
        got = multi_source_distances(g, (source,), cutoff, stop=stop)
        want = bruteforce.avoiding_bfs(g, source, stop, cutoff)
        assert list(got.items()) == list(want.items())

    @settings(max_examples=200)
    @given(st.data())
    def test_sources_stop_and_blocked_together(self, data):
        g = draw_graph(data)
        vertex = st.integers(0, g.n - 1)
        sources = data.draw(st.lists(vertex, max_size=4), label="sources")
        blocked = data.draw(st.sets(vertex, max_size=3), label="blocked")
        stop = data.draw(st.sets(vertex, max_size=5), label="stop")
        cutoff = data.draw(st.none() | st.integers(0, 6), label="cutoff")
        # each source's own stop search in g minus blocked, nearest wins
        cut = Graph(g.n, [e for e in g.edges if not blocked.intersection(e)])
        want = {}
        for src in set(sources) - blocked:
            reach = bruteforce.avoiding_bfs(cut, src, stop, math.inf if cutoff is None else cutoff)
            for v, d in reach.items():
                want[v] = min(d, want.get(v, d))
        assert multi_source_distances(g, sources, cutoff, blocked, stop) == want

    @settings(max_examples=200)
    @given(st.data())
    def test_descent_matches_the_minor_walk(self, data):
        g = draw_graph(data)
        target = data.draw(st.integers(0, g.n - 1), label="target")
        cutoff = data.draw(st.none() | st.integers(0, 5), label="cutoff")
        dist = distances_from(g, target, cutoff)
        for start in dist:
            assert _descend(g, dist, start) == bruteforce.walk(
                g, {target: dist}, start, target
            )


class TestBallMasks:
    """BallTraces, the one table of radius-r balls traced on a member
    list (mostly through bruteforce.ball_masks)."""

    @settings(max_examples=200)
    @given(st.data())
    def test_bits_match_the_distance_matrix(self, data):
        g = draw_graph(data)
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n),
            label="members",
        )
        r = data.draw(st.integers(0, 4), label="r")
        blocked = data.draw(
            st.none() | st.sets(st.integers(0, g.n - 1), max_size=4), label="blocked"
        )
        if blocked is None:
            dm = bruteforce.dist_matrix(g)
        else:
            dm = [multi_source_distances(g, (u,), r, blocked) for u in range(g.n)]
        masks = bruteforce.ball_masks(g, members, r, blocked)
        assert len(masks) == g.n
        for v in range(g.n):
            for i, u in enumerate(members):
                near = dm[u].get(v, math.inf) <= r
                assert bool(masks[v] >> i & 1) == near, (v, u)
            assert masks[v] >> len(members) == 0

    def test_empty_members_and_radius_zero(self):
        g = corpus.twin_stars(3, 2)
        assert bruteforce.ball_masks(g, (), 3) == [0] * g.n
        assert bruteforce.ball_masks(Graph(0), (), 1) == []
        members = (0, 2, 5)
        masks = bruteforce.ball_masks(g, members, 0)
        assert masks == [1 << members.index(v) if v in members else 0 for v in range(g.n)]
        # a blocked member's bit is set nowhere, and a blocked vertex's mask is 0
        masks = bruteforce.ball_masks(g, members, 2, blocked={0, 2})
        assert masks[0] == masks[2] == 0
        assert not any(m & 0b11 for m in masks)
        assert masks[5] & 0b100

    def test_rows_are_searched_when_built(self, monkeypatch):
        # one search per member when the table is built; bits only reads
        searched = []
        real = drisk.graph.multi_source_distances

        def counted(g, sources, *args, **kwargs):
            searched.append(tuple(sources))
            return real(g, sources, *args, **kwargs)

        monkeypatch.setattr(drisk.graph, "multi_source_distances", counted)
        table = BallTraces(corpus.twin_stars(3, 2), (0, 2, 5), 2)
        assert searched == [(0,), (2,), (5,)]
        assert table.bits((5, 0)) == 0b101 and table.bits(()) == 0
        assert len(searched) == 3
