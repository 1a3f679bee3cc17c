"""Unit tests for profile classes and the two closure procedures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
import drisk.projections
from drisk.generators import path_graph, star_graph
from drisk.graph import (
    Graph,
    GraphError,
    distances_from,
    induced_subgraph,
    multi_source_distances,
)
from drisk.projections import closure, path_closure, profile_classes
from drisk.wcol import greedy_ball_cover

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


def assert_classes_are_profiles(g, boundary, r, name):
    """profile_classes over every non-boundary vertex puts each vertex in
    exactly one class, one reference profile per class and a different
    one per class."""
    cands = [u for u in range(g.n) if u not in boundary]
    classes = profile_classes(g, cands, boundary, r)
    flat = sorted(v for c in classes for v in c)
    assert flat == cands, name
    keys = [
        {bruteforce.avoiding_profile(g, u, boundary, r) for u in cls}
        for cls in classes
    ]
    assert all(len(k) == 1 for k in keys), (name, r)
    assert len(set().union(*keys)) == len(classes), (name, r)


def assert_projections_are_profiles(g, res, r, name):
    """closure's projections hold every outside vertex's finite
    bruteforce.stop_profile entries on the closed set, and the longest
    key has max_projection entries."""
    outside = [u for u in range(g.n) if u not in set(res.closed_set)]
    assert sorted(res.projections) == outside, name
    for u in outside:
        profile = bruteforce.stop_profile(g, u, res.closed_set, r)
        assert res.projections[u] == tuple(
            (b, d) for b, d in zip(res.closed_set, profile) if d != INF
        ), (name, u, r)
    sizes = [len(key) for key in res.projections.values()]
    assert max(sizes, default=0) == res.max_projection, (name, r)


@pytest.mark.parametrize("call", [
    lambda g: closure(g, [0], -1, 1),
    lambda g: profile_classes(g, [0, 1], [3], -1),
    lambda g: path_closure(g, [0, 3], -1),
], ids=["closure", "profile_classes", "path_closure"])
def test_negative_radius_is_refused(call):
    with pytest.raises(GraphError, match=r"^radius must be >= 0$"):
        call(path_graph(4))


class TestProjection:
    def test_interior_must_avoid_boundary(self):
        # P5 with boundary {1, 3} and a detour 1-5-6-7-3: both 0 and 5 are
        # 1 and 3 steps from 1 and 3, but 0 reaches 3 only through the
        # boundary vertex 1, so their profiles differ until the radius
        # cuts the detour off
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (3, 7)])
        assert profile_classes(g, [0, 5], [1, 3], 4) == ((0,), (5,))
        assert profile_classes(g, [0, 5], [1, 3], 2) == ((0, 5),)

    def test_radius_cuts_off(self):
        # P5 plus an isolated vertex 5: vertex 0 sees the boundary vertex 3
        # at three steps, so within two it looks as far away as vertex 5
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert profile_classes(g, [0, 5], [3], 2) == ((0, 5),)
        assert profile_classes(g, [0, 5], [3], 3) == ((0,), (5,))


class TestProfile:
    def test_infinity_past_radius(self):
        # boundary {3, 4} on P5 plus an isolated vertex 5 at r = 2: vertex 0
        # is past the radius on both, like 5; vertex 1 sees 3 but not 4,
        # which lies behind the boundary vertex 3
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert profile_classes(g, [0, 1, 5], [3, 4], 2) == ((0, 5), (1,))
        assert profile_classes(g, [0, 1, 5], [3, 4], 4) == ((0,), (1,), (5,))

    def test_matches_reference_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n < 4:
                continue
            for r in (1, 2, 3):
                assert_classes_are_profiles(g, tuple(range(0, g.n, 3)), r, name)


class TestProfileClasses:
    def test_star_leaves_fall_into_one_class(self):
        g = star_graph(5)
        classes = profile_classes(g, range(1, 6), [0], 1)
        assert classes == ((1, 2, 3, 4, 5),)

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

    def test_class_partition_is_exact(self):
        for name, g in corpus.small_corpus():
            if g.n >= 4:
                assert_classes_are_profiles(g, (0, g.n - 1), 2, name)


    @settings(max_examples=150)
    @given(st.data())
    def test_reached_pair_keys_group_as_profiles(self, data):
        # the kernel keys candidates by the (boundary vertex, length) pairs
        # their stop search reaches, not by a full profile tuple
        g = draw_sparse_graph(data)
        boundary = sorted(data.draw(
            st.sets(st.integers(0, g.n - 1), max_size=8), label="boundary"
        ))
        bset = set(boundary)
        cands = [u for u in range(g.n) if u not in bset]
        r = data.draw(st.integers(0, 4), label="r")
        keys = {
            u: drisk.projections._profile_key(
                multi_source_distances(g, (u,), r, stop=bset), bset
            )
            for u in cands
        }
        profiles = {u: bruteforce.stop_profile(g, u, boundary, r) for u in cands}
        assert drisk.projections._profile_groups(cands, keys) == (
            drisk.projections._profile_groups(cands, profiles)
        )
        for u in cands:
            assert keys[u] == tuple(
                (b, d) for b, d in zip(boundary, profiles[u]) if d != INF
            )

    @settings(max_examples=150)
    @given(st.data())
    def test_classes_and_order_match_profile_keys(self, data):
        g = draw_sparse_graph(data)
        boundary = data.draw(
            st.sets(st.integers(0, g.n - 1), max_size=8), label="boundary"
        )
        # every non-boundary vertex, or a subset of them
        cands = [u for u in range(g.n) if u not in boundary]
        if cands and data.draw(st.booleans(), label="subset"):
            cands = data.draw(st.lists(st.sampled_from(cands), unique=True), label="cands")
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
        assert res.max_projection <= 1

    def test_grows_until_projection_target_met(self):
        g = star_graph(6)
        # every leaf projects onto both ends of a two-leaf boundary via the
        # center, so the center must be absorbed
        res = closure(g, [1, 2], 2, 1)
        assert 0 in res.closed_set
        assert res.max_projection <= 1

    def test_absorbs_largest_projection_first(self):
        g = star_graph(4)
        res = closure(g, [1, 2, 3], 2, 1)
        # the center sees all three members; absorbing it ends the process
        assert res.closed_set == (0, 1, 2, 3)
        assert res.iterations == 1

    def test_bad_target_rejected(self):
        with pytest.raises(GraphError):
            closure(path_graph(3), [0], 1, 0)

    def test_final_projection_bound_holds_on_corpus(self):
        for name, g in corpus.small_corpus():
            if not 4 <= g.n <= 12:
                continue
            res = closure(g, [0, g.n - 1], 2, 2)
            closed = set(res.closed_set)
            for u in range(g.n):
                if u in closed:
                    continue
                got = sum(d != INF for d in bruteforce.stop_profile(g, u, res.closed_set, 2))
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
        res = closure(g, x, r, target)
        assert res == bruteforce.closure_rescan(g, x, r, target)
        assert_projections_are_profiles(g, res, r, "drawn")

    def test_projections_are_the_final_profiles(self):
        for name, g, a in corpus.member_corpus():
            for r in (1, 2, 3, 4):
                for target in (1, 2):
                    assert_projections_are_profiles(g, closure(g, a, r, target), r, name)


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
        monkeypatch.setattr(drisk.projections, "_descend", lambda g, dist, start, stop=(): [start])
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        with pytest.raises(RuntimeError, match="induced distance not preserved"):
            path_closure(g, [0, 1, 3], 2)

    def test_all_of_v_walks_nothing_and_copies_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on a member set that is all of V")

        for name in ("_descend", "induced_subgraph"):
            monkeypatch.setattr(drisk.projections, name, forbidden)
        for name, g in corpus.small_corpus():
            for r in (1, 2, 3):
                assert path_closure(g, range(g.n), r) == tuple(range(g.n)), (name, r)

    def test_all_of_v_still_checks_every_pair(self, monkeypatch):
        # on all of V each member's one search finds its partners and
        # serves as its check; the last member, a bridge vertex with no
        # later partner, reports every other vertex one step too far, so
        # only its earlier partners' searches of it can disagree
        g = corpus.twin_stars(3, 4)
        calls = []
        real = drisk.projections.distances_from

        def last_wrong(g, source, cutoff=None):
            calls.append(source)
            dist = real(g, source, cutoff)
            if source == g.n - 1:
                dist = {v: d + (v != source) for v, d in dist.items()}
            return dist

        monkeypatch.setattr(drisk.projections, "distances_from", last_wrong)
        with pytest.raises(RuntimeError, match="induced distance not preserved"):
            path_closure(g, range(g.n), 2)
        assert len(calls) == g.n

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


def assert_matches_scans(g, a, r, target, name):
    """closure on a and on its half-radius cover at 2r, and path_closure
    at r, against the scanning versions they replaced."""
    for x in (a, greedy_ball_cover(g, a, r // 2)):
        got = closure(g, x, 2 * r, target)
        assert got == bruteforce.closure_maxscan(g, x, 2 * r, target), (name, r, target)
    assert path_closure(g, a, r) == bruteforce.path_closure_pairs(g, a, r), (name, r)


class TestMatchesScanningVersions:
    """closure picks from a lazy heap and path_closure stops its walks at
    vertices walked before; bruteforce.closure_maxscan scans all sizes per
    pick and bruteforce.path_closure_pairs walks every pair in full."""

    def test_corpus_and_twin_stars(self):
        for name, g, a in corpus.member_corpus():
            for r in (1, 2, 3):
                for target in (1, 2, 3):
                    assert_matches_scans(g, a, r, target, name)

    @settings(max_examples=200)
    @given(st.data())
    def test_random_graphs(self, data):
        g = draw_sparse_graph(data, max_n=14)
        if data.draw(st.booleans(), label="all"):
            a = tuple(range(g.n))
        else:
            a = tuple(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1), label="a"))
        r = data.draw(st.integers(1, 3), label="r")
        target = data.draw(st.integers(1, 3), label="target")
        assert_matches_scans(g, a, r, target, "drawn")
