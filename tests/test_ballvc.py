"""Unit tests for the pair-shattering dimension of ball traces and
clique-minor extraction from pair-shattered sets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
import drisk.ballvc
from drisk.ballvc import (
    TwoShatterWitness,
    _search_pair_shattered,
    _two_shattered,
    extract_minor_model,
    two_vc_dimension,
    validate_two_shatter,
)
from drisk.generators import (
    cycle_graph,
    path_graph,
    star_graph,
)
from drisk.graph import Graph, GraphError, ball
from drisk.oracle import OracleLimitError, validate_minor_model


class TestTwoVcDimension:
    def test_path_example(self):
        dim, w = two_vc_dimension(path_graph(3), range(3), 1)
        assert dim == 2
        assert len(w.members) == 2
        validate_two_shatter(path_graph(3), 1, w)

    def test_star_leaves_pair_but_never_triple(self):
        # the center ball realizes any leaf pair exactly, but a third leaf
        # inside the candidate set spoils every trace
        g = star_graph(4)
        dim, w = two_vc_dimension(g, [1, 2, 3, 4], 1)
        assert dim == 2
        assert bruteforce.pair_shattered(
            [frozenset(ball(g, v, 1)) for v in range(g.n)], (1, 2, 3)
        ) is False

    def test_radius_zero_traces_no_pair(self):
        # every 0-ball is one vertex, so only single members are shattered
        dim, w = two_vc_dimension(path_graph(3), range(3), 0)
        assert dim == 1
        assert w.members == (0,) and w.pair_witnesses == {}

    def test_empty_universe(self):
        assert two_vc_dimension(path_graph(3), (), 1) == (0, None)
        assert two_vc_dimension(Graph(0), (), 1) == (0, None)

    def test_limit_refusal(self):
        with pytest.raises(OracleLimitError, match="limited to 4 elements, got 5"):
            two_vc_dimension(path_graph(5), range(5), 1, limit=4)

    def test_rejects_negative_radius(self):
        with pytest.raises(GraphError, match="radius"):
            two_vc_dimension(path_graph(2), range(2), -1)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            two_vc_dimension(path_graph(3), [2, 9], 1)

    def test_witness_is_checked(self, monkeypatch):
        # the 1-ball of vertex 5 misses both 0 and 2, so it traces no pair
        bad = TwoShatterWitness((0, 2), {(0, 2): 5})
        monkeypatch.setattr(drisk.ballvc, "_two_shattered", lambda members, masks: (2, bad))
        with pytest.raises(RuntimeError) as err:
            two_vc_dimension(path_graph(10), range(10), 1)
        assert str(err.value) == (
            "internal: invalid pair-shattering witness: "
            "ball of 5 meets the set in [], expected {0, 2}"
        )

    def test_matches_reference_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n > 12:
                continue
            for r in (1, 2):
                sets = [frozenset(ball(g, v, r)) for v in range(g.n)]
                want = bruteforce.two_vc(range(g.n), sets)
                dim, w = two_vc_dimension(g, range(g.n), r)
                assert dim == want, (name, r)
                if w is not None and len(w.members) >= 2:
                    validate_two_shatter(g, r, w)

    def test_never_below_classic_dimension(self):
        # a shattered set has every pair among its traces, so the largest
        # shattered set (found by brute force) is pair-shattered too
        for name, g in corpus.small_corpus():
            if g.n > 10 or g.n == 0:
                continue
            for r in (1, 2):
                sets = [frozenset(ball(g, v, r)) for v in range(g.n)]
                classic = max(
                    size
                    for size in range(g.n + 1)
                    if any(
                        bruteforce.shattered_exactly(sets, x)
                        for x in itertools.combinations(range(g.n), size)
                    )
                )
                assert classic <= two_vc_dimension(g, range(g.n), r)[0], (name, r)


class TestTwoVcAgainstResidueSearch:
    """The trace-based search against the per-pair residue search it
    replaced, kept verbatim in bruteforce: the same dimension, members
    and pair witnesses."""

    @staticmethod
    def assert_same(got, universe, masks, label):
        want = bruteforce.two_vc_dimension_residues(universe, masks)
        assert got == want, label
        if want[1] is not None:
            assert got[1].pair_witnesses == want[1].pair_witnesses, label
            assert list(got[1].pair_witnesses) == list(want[1].pair_witnesses), label

    def test_corpus_ball_systems(self):
        # the reference reads traces built from ball(), not from the table
        rng = random.Random(5)
        for name, g in corpus.small_corpus():
            for r in (1, 2):
                balls = [set(ball(g, v, r)) for v in range(g.n)]
                for keep in [range(g.n)] + [
                    rng.sample(range(g.n), rng.randint(0, g.n)) for _ in range(3)
                ]:
                    members = sorted(keep)
                    masks = [
                        sum(1 << i for i, u in enumerate(members) if u in b) for b in balls
                    ]
                    got = two_vc_dimension(g, keep, r)
                    self.assert_same(got, members, masks, (name, r, members))

    @settings(max_examples=300)
    @given(st.data())
    def test_set_systems_with_empty_and_repeated_sets(self, data):
        # in a wide system masks often meet X three times or more, and
        # past 64 masks the transposed incidence outgrows a machine word
        wide = data.draw(st.booleans(), label="wide")
        n = data.draw(st.integers(0, 14 if wide else 10), label="n")
        universe = tuple(range(n))
        if wide:
            drawn = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=40, max_size=90), label="sets")
            sets = [tuple(i for i in range(n) if m >> i & 1) for m in drawn]
        else:
            member = st.lists(st.integers(0, n - 1), unique=True).map(
                lambda s: tuple(sorted(s))
            ) if n else st.just(())
            sets = data.draw(st.lists(member, max_size=16), label="sets")
        repeats = data.draw(
            st.lists(st.sampled_from(sets), max_size=4) if sets else st.just([]),
            label="repeats",
        )
        sets = sets + repeats + [()]
        masks = [sum(1 << i for i in member) for member in sets]
        self.assert_same(_two_shattered(universe, masks), universe, masks, sets)


class TestPairSearchAgainstCoOccurrenceSearch:
    """The search that carries its pair masks and gives each child only
    the partners in a mask missing X, against the search that took every
    partner sharing a mask with the new element, kept verbatim in
    bruteforce: the same mask."""

    @staticmethod
    def assert_same(n, masks, label):
        want = bruteforce.search_pair_shattered_co(n, masks)
        assert _search_pair_shattered(n, masks) == want, label

    def test_corpus_ball_systems(self):
        rng = random.Random(26)
        for name, g in corpus.small_corpus():
            for r in range(4):
                for keep in [range(g.n)] + [
                    rng.sample(range(g.n), rng.randint(0, g.n)) for _ in range(3)
                ]:
                    members = sorted(keep)
                    masks = bruteforce.ball_masks(g, members, r)
                    self.assert_same(len(members), masks, (name, r, members))

    @settings(max_examples=400)
    @given(st.data())
    def test_drawn_set_systems(self, data):
        # wide systems hold 40-90 distinct masks, so past 64 the
        # incidence of an element outgrows a machine word, and masks
        # often meet X three times or more
        wide = data.draw(st.booleans(), label="wide")
        n = data.draw(st.integers(7, 14) if wide else st.integers(0, 10), label="n")
        masks = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=40, max_size=90, unique=True)
            if wide else st.lists(st.integers(0, (1 << n) - 1), max_size=16),
            label="masks",
        )
        self.assert_same(n, masks, masks)

    def test_children_keep_only_partners_in_a_mask_missing_x(self, monkeypatch):
        # every candidate c of a node X pairs with each x of X through a
        # mask that holds both and misses the elements that joined before x
        nodes = []
        walk = drisk.ballvc._walk

        def recorded(root, children):
            for node in walk(root, children):
                nodes.append(node[1:3])
                yield node

        monkeypatch.setattr(drisk.ballvc, "_walk", recorded)
        for name, g in corpus.small_corpus():
            for r in (1, 2, 3):
                masks = bruteforce.ball_masks(g, range(g.n), r)
                nodes.clear()
                _search_pair_shattered(g.n, masks)
                for xs, cands in nodes:
                    for c in range(g.n):
                        if not cands >> c & 1:
                            continue
                        for i, x in enumerate(xs):
                            missed = sum(1 << z for z in xs[:i])
                            assert any(
                                m >> x & 1 and m >> c & 1 and not m & missed for m in masks
                            ), (name, r, xs, c)


class TestValidateTwoShatter:
    def _witness(self):
        return TwoShatterWitness((0, 2), {(0, 2): 1})

    def test_accepts_good_witness(self):
        validate_two_shatter(path_graph(3), 1, self._witness())

    def test_rejects_wrong_trace(self):
        # ball of vertex 2 misses member 0, so the pair is not realized
        w = TwoShatterWitness((0, 1), {(0, 1): 2})
        with pytest.raises(GraphError, match="meets the set"):
            validate_two_shatter(path_graph(3), 1, w)

    def test_rejects_missing_pair(self):
        w = TwoShatterWitness((0, 2), {})
        with pytest.raises(GraphError, match="misses a pair"):
            validate_two_shatter(path_graph(3), 1, w)

    def test_rejects_malformed_pairs(self):
        with pytest.raises(GraphError, match="malformed"):
            validate_two_shatter(
                path_graph(3), 1, TwoShatterWitness((0, 2), {(2, 0): 1})
            )
        with pytest.raises(GraphError, match="malformed"):
            validate_two_shatter(
                path_graph(3), 1, TwoShatterWitness((0, 2), {(0, 1): 1})
            )

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(GraphError, match="duplicate"):
            validate_two_shatter(
                path_graph(3), 1, TwoShatterWitness((0, 0), {})
            )
        with pytest.raises(GraphError, match="out of range"):
            validate_two_shatter(
                path_graph(3), 1, TwoShatterWitness((0, 2), {(0, 2): 9})
            )


class TestExtractMinorModel:
    def test_distance_two_pair_on_six_cycle(self):
        g = cycle_graph(6)
        w = TwoShatterWitness((0, 3), {(0, 3): 1})
        # ball of 1 at radius 2 is {5,0,1,2,3}: trace on {0,3} is the pair
        model = extract_minor_model(g, 2, w)
        assert len(model.branch_sets) == 2
        validate_minor_model(g, model)

    def test_one_branch_set_per_member_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n > 12 or g.n == 0:
                continue
            for r in (1, 2):
                dim, w = two_vc_dimension(g, range(g.n), r)
                if w is None or not w.members:
                    continue
                model = extract_minor_model(g, r, w)
                assert len(model.branch_sets) == dim, (name, r)
                validate_minor_model(g, model)

    def test_rejects_invalid_witness(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            # ball of 0 at radius 1 misses member 2
            extract_minor_model(g, 1, TwoShatterWitness((0, 2), {(0, 2): 0}))
        with pytest.raises(GraphError):
            extract_minor_model(g, 1, TwoShatterWitness((), {}))
