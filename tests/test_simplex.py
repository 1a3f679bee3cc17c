"""Unit tests for the exact rational simplex solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from drisk.simplex import (
    LpInfeasible,
    LpUnbounded,
    solve_max,
    solve_min,
)

F = Fraction

# Coefficients: mostly zero, small integers, or fractions with small
# denominators, both signs.
COEFF = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def random_lps(draw, feasible):
    """(c, rows, rhs) for max c.x : rows.x <= rhs, x >= 0.

    Some columns are zeroed out, some rows are repeated, and some rows
    are paired with their negation (a >= twin with the same bound when
    it is tight), so phase 1 may end with an artificial still basic at
    level zero that must be driven out.  With feasible=True the right-hand
    side is rows.x0 + slack for a drawn x0 >= 0 (often negative, so
    phase 1 runs) and a row sum(x) <= sum(x0) + t bounds the objective;
    otherwise it is drawn freely, and the LP may be infeasible or
    unbounded."""
    nvars = draw(st.integers(1, 5), label="nvars")
    m = draw(st.integers(1, 5), label="m")
    rows = draw(st.lists(st.lists(COEFF, min_size=nvars, max_size=nvars),
                         min_size=m, max_size=m), label="rows")
    zero_cols = draw(st.sets(st.integers(0, nvars - 1)), label="zero_cols")
    for row in rows:
        for j in zero_cols:
            row[j] = F(0)
    c = draw(st.lists(COEFF, min_size=nvars, max_size=nvars), label="c")
    if feasible:
        x0 = draw(st.lists(COEFF.map(abs), min_size=nvars, max_size=nvars), label="x0")
        at_x0 = [sum(a * x for a, x in zip(row, x0)) for row in rows]
        slack = draw(st.lists(COEFF.map(abs), min_size=m, max_size=m), label="slack")
        rhs = [v + s for v, s in zip(at_x0, slack)]
        rows.append([F(1)] * nvars)
        rhs.append(sum(x0) + draw(COEFF.map(abs), label="t"))
    else:
        rhs = draw(st.lists(COEFF, min_size=m, max_size=m), label="rhs")
        at_x0 = rhs
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2), label="twins"):
        rows.append([-a for a in rows[i]])
        rhs.append(-at_x0[i])
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3), label="dups"):
        rows.append(list(rows[i]))
        rhs.append(rhs[i])
    return c, rows, rhs


def outcome(solver, c, rows, rhs):
    try:
        return solver(c, rows, rhs)
    except (LpInfeasible, LpUnbounded) as exc:
        return type(exc)


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

    def test_negative_rhs_forces_phase_one(self):
        # max -x : -x <= -3  (i.e. x >= 3) has optimum -3 at x = 3
        res = solve_max([-1], [[-1]], [-3])
        assert res.value == -3
        assert res.x == (F(3),)

    def test_infeasible_detected(self):
        # x <= 1 and x >= 2 cannot both hold
        with pytest.raises(LpInfeasible):
            solve_max([1], [[1], [-1]], [1, -2])

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_max([1, 1], [[1]], [1])

    def test_redundant_equality_rows_survive_phase_one(self):
        # x >= 1 stated twice plus x <= 1 pins x = 1; phase 1 ends with
        # two artificials basic at level 0, and both are driven out
        res = solve_max([1], [[-1], [-1], [1]], [-1, -1, 1])
        assert res.value == 1
        assert min(res.y) >= 0 and -res.y[0] - res.y[1] + res.y[2] == 1


class TestSolveMin:
    def test_covering_instance(self):
        # min x + y : x + y >= 2, x >= 1
        res = solve_min([1, 1], [[1, 1], [1, 0]], [2, 1])
        assert res.value == 2

    def test_solution_vector_is_feasible(self):
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        res = solve_min([1, 1, 1], rows, [1, 1, 1])
        assert res.value == F(3, 2)
        for row in rows:
            assert sum(F(a) * xv for a, xv in zip(row, res.x)) >= 1

    def test_infeasible_detected(self):
        # -x >= 1 cannot hold for x >= 0
        with pytest.raises(LpInfeasible):
            solve_min([1], [[-1]], [1])


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
            rhs = [1] * nrows
            cost = [rng.randint(1, 4) for _ in range(nvars)]
            exact = solve_min(cost, rows, rhs)
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
    def test_matches_dense_update(self, feasible, data):
        c, rows, rhs = data.draw(random_lps(feasible), label="lp")
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
    def test_matches_sparse_fraction_pivot(self, feasible, data):
        c, rows, rhs = data.draw(random_lps(feasible), label="lp")
        assert outcome(solve_max, c, rows, rhs) == outcome(bruteforce.sparse_solve_max, c, rows, rhs)


class TestDuals:
    @settings(max_examples=150)
    @given(random_lps(feasible=True))
    def test_solve_max_duals_certify_optimum(self, lp):
        c, rows, rhs = lp
        res = solve_max(c, rows, rhs)
        assert len(res.y) == len(rows)
        assert all(y >= 0 for y in res.y)
        for j, cj in enumerate(c):
            assert sum(y * row[j] for y, row in zip(res.y, rows)) >= cj
        assert sum(y * b for y, b in zip(res.y, rhs)) == res.value

    @settings(max_examples=150)
    @given(random_lps(feasible=True))
    def test_solve_min_duals_certify_optimum(self, lp):
        # min -c.x : -rows.x >= -rhs is the same feasible, bounded LP
        c, rows, rhs = lp
        c = [-v for v in c]
        rows = [[-v for v in row] for row in rows]
        rhs = [-v for v in rhs]
        res = solve_min(c, rows, rhs)
        assert all(y >= 0 for y in res.y)
        for j, cj in enumerate(c):
            assert sum(y * row[j] for y, row in zip(res.y, rows)) <= cj
        assert sum(y * b for y, b in zip(res.y, rhs)) == res.value

    def test_textbook_duals(self):
        # max 3x + 5y : x <= 4, 2y <= 12, 3x + 2y <= 18 has duals (0, 3/2, 1)
        res = solve_max([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
        assert res.y == (F(0), F(3, 2), F(1))
