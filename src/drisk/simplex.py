"""Exact-arithmetic simplex over the rationals.

Two-phase tableau with Bland's anti-cycling rule: entering variable
is the smallest index with a positive reduced cost, leaving row breaks
ratio ties by the smallest basic variable.  That rule is slow in theory
but terminates unconditionally, and exactness matters more than pivot
count at the sizes this package solves.

The tableau is stored fraction-free: each row is a list of integers whose
common denominator is its entry in its basic column (which stands for 1),
and the cost row carries its denominator as one extra last entry.  A pivot
updates only the rows with a nonzero entry in the pivot column, by integer
cross-multiplication, and divides each such row by the gcd of its entries.
Every sign and ratio the pivot rule reads is the exact rational one, so the
pivot sequence and every value match a dense `Fraction` update; only the
result is turned back into `Fraction`s.

Conventions: maximize c.x subject to A.x <= b, x >= 0, where b may be
negative (phase 1 introduces artificials for those rows).  Minimization
over >= rows is handled by negating through solve_min.

The optimum carries the row duals y, read from the final cost row: the
reduced cost of row i's slack column is -y_i.  They solve the dual LP
(minimize y.b subject to y.A >= c, y >= 0) with y.b equal to the optimum,
so one solve answers both sides of the duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

F0 = Fraction(0)
F1 = Fraction(1)


class LpInfeasible(Exception):
    """The constraint system admits no nonnegative solution."""


class LpUnbounded(Exception):
    """The objective can be pushed beyond every bound."""


class SimplexStall(Exception):
    """Safety valve; Bland's rule should make this unreachable."""


@dataclass(frozen=True)
class LpOptimum:
    """Optimal value, a primal optimum x, and the row duals y of the
    same basis (one per constraint row, in input order)."""

    value: Fraction
    x: Tuple[Fraction, ...]
    y: Tuple[Fraction, ...]


_MAX_PIVOTS = 200_000


def _combine(line: List[int], prow: List[int], col: int) -> List[int]:
    """line - (line[col] / prow[col]) * prow, scaled by prow[col] > 0 to
    stay integral and divided by the gcd of its entries.  Entries of line
    past the end of prow (the cost row's denominator) scale only."""
    f, pc = line[col], prow[col]
    new = [a * pc - f * b for a, b in zip(line, prow)]
    new += [a * pc for a in line[len(prow):]]
    g = gcd(*new)
    return new if g == 1 else [a // g for a in new]


def _pivot(tableau: List[List[int]], cost: List[int], basis: List[int], row: int, col: int) -> None:
    prow = tableau[row]
    if prow[col] < 0:
        prow = tableau[row] = [-a for a in prow]
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            tableau[i] = _combine(other, prow, col)
    if cost[col]:
        cost[:] = _combine(cost, prow, col)
    basis[row] = col


def _bland_loop(tableau, cost, basis, ncols) -> None:
    for _ in range(_MAX_PIVOTS):
        col = next((j for j in range(ncols) if cost[j] > 0), -1)
        if col < 0:
            return
        # least ratio rhs / a over a > 0, ties to the least basic variable;
        # a row's denominator cancels from its ratio
        row = -1
        for i, trow in enumerate(tableau):
            a = trow[col]
            if a > 0:
                d = 0 if row < 0 else trow[-1] * tableau[row][col] - tableau[row][-1] * a
                if row < 0 or d < 0 or (d == 0 and basis[i] < basis[row]):
                    row = i
        if row < 0:
            raise LpUnbounded
        _pivot(tableau, cost, basis, row, col)
    raise SimplexStall("pivot budget exhausted")


def _integral(values: Sequence[Fraction]) -> List[int]:
    """values times the least common multiple of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def _cost_row(obj: List[Fraction], tableau, basis) -> List[int]:
    """The cost row of objective obj priced out on the basis: integers
    over the denominator that follows the rhs entry."""
    cost = _integral(obj + [F0, F1])
    for i, bi in enumerate(basis):
        if cost[bi]:
            cost = _combine(cost, tableau[i], bi)
    return cost


def solve_max(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LpOptimum:
    """Maximize c.x subject to rows.x <= rhs, x >= 0 (exact rationals).

    The returned y satisfies y >= 0, y.rows >= c and y.rhs == value."""
    nvars = len(c)
    m = len(rows)
    c = [Fraction(v) for v in c]
    nslack = m
    art_rows = [i for i in range(m) if Fraction(rhs[i]) < 0]
    nart = len(art_rows)
    ncols = nvars + nslack + nart
    art_col = {i: nvars + nslack + k for k, i in enumerate(art_rows)}

    tableau: List[List[int]] = []
    basis: List[int] = []
    for i in range(m):
        b = Fraction(rhs[i])
        coeffs = [Fraction(v) for v in rows[i]]
        if len(coeffs) != nvars:
            raise ValueError("row length does not match objective length")
        sign = F1
        if b < 0:
            sign = -F1
            b = -b
        line = [sign * v for v in coeffs]
        line.extend(F0 for _ in range(nslack + nart))
        # the slack column keeps the row's sign, so -cost of it is the
        # dual of the row as given, not of its negation
        line[nvars + i] = sign
        if i in art_col:
            line[art_col[i]] = F1
            basis.append(art_col[i])
        else:
            basis.append(nvars + i)
        line.append(b)
        tableau.append(_integral(line))

    if nart:
        # phase 1: maximize -sum(artificials), priced out on the artificial basis
        cost = _cost_row([F0] * (nvars + nslack) + [-F1] * nart, tableau, basis)
        _bland_loop(tableau, cost, basis, ncols)
        if cost[-2] != 0:
            raise LpInfeasible
        # Drive the artificials left basic (at level 0) out of the basis.
        # Each row has its own slack column, so the tableau's slack block
        # is B^-1 diag(sign), an invertible matrix: every row has a nonzero
        # x or slack entry to pivot on, and no row is ever redundant.
        for i, bi in enumerate(basis):
            if bi >= nvars + nslack:
                piv_col = next(j for j in range(nvars + nslack) if tableau[i][j])
                _pivot(tableau, cost, basis, i, piv_col)
        tableau = [row[: nvars + nslack] + row[-1:] for row in tableau]
        ncols = nvars + nslack

    cost = _cost_row(c + [F0] * nslack, tableau, basis)
    _bland_loop(tableau, cost, basis, ncols)

    x = [F0] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = Fraction(tableau[i][-1], tableau[i][bi])
    y = tuple(Fraction(-cost[nvars + i], cost[-1]) for i in range(m))
    return LpOptimum(Fraction(-cost[-2], cost[-1]), tuple(x), y)


def solve_min(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LpOptimum:
    """Minimize c.x subject to rows.x >= rhs, x >= 0 (exact rationals).

    The returned y satisfies y >= 0, y.rows <= c and y.rhs == value."""
    neg_rows = [[-Fraction(v) for v in row] for row in rows]
    neg_rhs = [-Fraction(v) for v in rhs]
    neg_c = [-Fraction(v) for v in c]
    res = solve_max(neg_c, neg_rows, neg_rhs)
    return LpOptimum(-res.value, res.x, res.y)
