"""Unit tests for the exact rational simplex solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from drisk.simplex import LpUnbounded, solve_max

F = Fraction

# Coefficients: mostly zero, small integers, or fractions with small
# denominators, both signs.
COEFF = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def random_lps(draw, bounded):
    """(c, rows, rhs) for max c.x : rows.x <= rhs, x >= 0, with rhs >= 0.

    Some columns are zeroed out and some rows are repeated.  With
    bounded=True a row sum(x) <= t bounds the objective; otherwise the LP
    may be unbounded."""
    nvars = draw(st.integers(1, 5), label="nvars")
    m = draw(st.integers(1, 5), label="m")
    rows = draw(st.lists(st.lists(COEFF, min_size=nvars, max_size=nvars),
                         min_size=m, max_size=m), label="rows")
    zero_cols = draw(st.sets(st.integers(0, nvars - 1)), label="zero_cols")
    for row in rows:
        for j in zero_cols:
            row[j] = F(0)
    c = draw(st.lists(COEFF, min_size=nvars, max_size=nvars), label="c")
    rhs = draw(st.lists(COEFF.map(abs), min_size=m, max_size=m), label="rhs")
    if bounded:
        rows.append([F(1)] * nvars)
        rhs.append(draw(COEFF.map(abs), label="t"))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3), label="dups"):
        rows.append(list(rows[i]))
        rhs.append(rhs[i])
    return c, rows, rhs


def outcome(solver, c, rows, rhs):
    try:
        return solver(c, rows, rhs)
    except LpUnbounded:
        return LpUnbounded


class TestSolveMax:
    def test_textbook_instance(self):
        # max 3x + 5y : x <= 4, 2y <= 12, 3x + 2y <= 18
        res = solve_max([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
        assert res.value == 36
        assert res.x == (F(2), F(6))

    def test_exact_fractions_no_rounding(self):
        res = solve_max([F(1, 3)], [[1]], [F(1, 7)])
        assert res.value == F(1, 21)
        assert res.x == (F(1, 7),)

    def test_degenerate_instance_terminates(self):
        # classic cycling-prone instance; Bland's rule must terminate
        res = solve_max(
            [F(3, 4), -150, F(1, 50), -6],
            [
                [F(1, 4), -60, F(-1, 25), 9],
                [F(1, 2), -90, F(-1, 50), 3],
                [0, 0, 1, 0],
            ],
            [0, 0, 1],
        )
        assert res.value == F(1, 20)

    def test_unbounded_detected(self):
        with pytest.raises(LpUnbounded):
            solve_max([1, 1], [[1, -1]], [1])

    def test_negative_rhs_refused(self):
        # x = 0 must be feasible: -x <= -3 (x >= 3) would need a phase 1
        with pytest.raises(ValueError):
            solve_max([-1], [[-1]], [-3])

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_max([1, 1], [[1]], [1])


class TestAgainstFloatSolver:
    def test_random_covering_lps_match_scipy(self):
        scipy = pytest.importorskip("scipy")
        from scipy.optimize import linprog

        rng = random.Random(3)
        for trial in range(20):
            nvars = rng.randint(2, 6)
            nrows = rng.randint(2, 6)
            rows = [
                [rng.choice([0, 0, 1, 1, 2]) for _ in range(nvars)]
                for _ in range(nrows)
            ]
            # guarantee feasibility: every row gets at least one positive entry
            for row in rows:
                if not any(row):
                    row[rng.randrange(nvars)] = 1
            cost = [rng.randint(1, 4) for _ in range(nvars)]
            # min cost.x : rows.x >= 1 through its dual packing
            # max 1.y : rows^T.y <= cost
            columns = [list(col) for col in zip(*rows)]
            exact = solve_max([1] * nrows, columns, cost)
            approx = linprog(
                cost,
                A_ub=[[-a for a in row] for row in rows],
                b_ub=[-1] * nrows,
                method="highs",
            )
            assert approx.status == 0
            assert abs(float(exact.value) - approx.fun) < 1e-8, (rows, cost)


class TestSparsePivot:
    """The fraction-free pivot follows the dense `Fraction` simplex step for step."""

    @settings(max_examples=150)
    @given(st.booleans(), st.data())
    def test_matches_dense_update(self, bounded, data):
        c, rows, rhs = data.draw(random_lps(bounded), label="lp")
        want = outcome(bruteforce.dense_solve_max, c, rows, rhs)
        got = outcome(solve_max, c, rows, rhs)
        if isinstance(want, type):
            assert got is want
        else:
            assert (got.value, got.x) == want


class TestFractionFree:
    """The integer tableau returns what the sparse `Fraction` pivot did:
    the same value, primal optimum and row duals."""

    @settings(max_examples=150)
    @given(st.booleans(), st.data())
    def test_matches_sparse_fraction_pivot(self, bounded, data):
        c, rows, rhs = data.draw(random_lps(bounded), label="lp")
        assert outcome(solve_max, c, rows, rhs) == outcome(bruteforce.sparse_solve_max, c, rows, rhs)


class TestDuals:
    @settings(max_examples=150)
    @given(random_lps(bounded=True))
    def test_solve_max_duals_certify_optimum(self, lp):
        c, rows, rhs = lp
        res = solve_max(c, rows, rhs)
        assert len(res.y) == len(rows)
        assert all(y >= 0 for y in res.y)
        for j, cj in enumerate(c):
            assert sum(y * row[j] for y, row in zip(res.y, rows)) >= cj
        assert sum(y * b for y, b in zip(res.y, rhs)) == res.value

    def test_textbook_duals(self):
        # max 3x + 5y : x <= 4, 2y <= 12, 3x + 2y <= 18 has duals (0, 3/2, 1)
        res = solve_max([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
        assert res.y == (F(0), F(3, 2), F(1))
