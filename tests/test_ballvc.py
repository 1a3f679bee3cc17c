"""Unit tests for ball set systems, the pair-shattering dimension, and
clique-minor extraction from pair-shattered sets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
from drisk.ballvc import (
    SetSystem,
    TwoShatterWitness,
    balls_system,
    extract_minor_model,
    restrict_system,
    two_vc_dimension,
    validate_two_shatter,
)
from drisk.generators import (
    cycle_graph,
    path_graph,
    star_graph,
)
from drisk.graph import GraphError
from drisk.oracle import OracleLimitError, validate_minor_model


class TestBallsSystem:
    def test_path_radius_one(self):
        sys = balls_system(path_graph(3), 1)
        assert sys.universe == (0, 1, 2)
        assert sys.sets == ((0, 1), (0, 1, 2), (1, 2))
        assert sys.centers == (0, 1, 2)

    def test_radius_zero_gives_singletons(self):
        sys = balls_system(path_graph(3), 0)
        assert sys.sets == ((0,), (1,), (2,))

    def test_rejects_bad_inputs(self):
        with pytest.raises(GraphError):
            balls_system(path_graph(2), -1)

    def test_member_leaving_universe_rejected(self):
        with pytest.raises(GraphError):
            SetSystem((0, 1), ((0, 5),), (0,))
        with pytest.raises(GraphError):
            SetSystem((0, 1), ((0,), (1,)), (0,))


class TestRestrictSystem:
    def test_traces(self):
        sys = balls_system(path_graph(4), 1)
        sub = restrict_system(sys, [0, 3])
        assert sub.universe == (0, 3)
        assert sub.sets == ((0,), (0,), (3,), (3,))
        assert sub.centers == sys.centers

    def test_ids_outside_universe_ignored(self):
        sys = balls_system(path_graph(3), 1)
        sub = restrict_system(sys, [2, 9])
        assert sub.universe == (2,)


class TestTwoVcDimension:
    def test_path_example(self):
        dim, w = two_vc_dimension(balls_system(path_graph(3), 1))
        assert dim == 2
        assert len(w.members) == 2
        validate_two_shatter(path_graph(3), 1, w)

    def test_star_leaves_pair_but_never_triple(self):
        # the center ball realizes any leaf pair exactly, but a third leaf
        # inside the candidate set spoils every trace
        g = star_graph(4)
        sys = restrict_system(balls_system(g, 1), [1, 2, 3, 4])
        dim, w = two_vc_dimension(sys)
        assert dim == 2
        assert bruteforce.pair_shattered(
            [frozenset(s) for s in sys.sets], (1, 2, 3)
        ) is False

    def test_empty_universe(self):
        assert two_vc_dimension(SetSystem((), (), ())) == (0, None)

    def test_limit_refusal(self):
        with pytest.raises(OracleLimitError):
            two_vc_dimension(balls_system(path_graph(5), 1), limit=4)

    def test_matches_reference_on_corpus(self):
        for name, g in corpus.small_corpus():
            if g.n > 12:
                continue
            for r in (1, 2):
                sys = balls_system(g, r)
                sets = [frozenset(s) for s in sys.sets]
                want = bruteforce.two_vc(sys.universe, sets)
                dim, w = two_vc_dimension(sys)
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
                sys = balls_system(g, r)
                sets = [frozenset(s) for s in sys.sets]
                classic = max(
                    size
                    for size in range(len(sys.universe) + 1)
                    if any(
                        bruteforce.shattered_exactly(sets, x)
                        for x in itertools.combinations(sys.universe, size)
                    )
                )
                assert classic <= two_vc_dimension(sys)[0], (name, r)


class TestTwoVcAgainstResidueSearch:
    """The trace-based search against the per-pair residue search it
    replaced, kept verbatim in bruteforce: the same dimension, members
    and pair witnesses."""

    @staticmethod
    def assert_same(sys, label):
        got = two_vc_dimension(sys)
        want = bruteforce.two_vc_dimension_residues(sys)
        assert got == want, label
        if want[1] is not None:
            assert got[1].pair_witnesses == want[1].pair_witnesses, label
            assert list(got[1].pair_witnesses) == list(want[1].pair_witnesses), label

    def test_corpus_ball_systems(self):
        rng = random.Random(5)
        for name, g in corpus.small_corpus():
            for r in (1, 2):
                full = balls_system(g, r)
                self.assert_same(full, (name, r))
                for trial in range(3):
                    keep = rng.sample(range(g.n), rng.randint(0, g.n))
                    self.assert_same(restrict_system(full, keep), (name, r, keep))

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
        sets = tuple(sets + repeats + [()])
        sys = SetSystem(universe, sets, tuple(range(len(sets))))
        self.assert_same(sys, sets)


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
                dim, w = two_vc_dimension(balls_system(g, r))
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
