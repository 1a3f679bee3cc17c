"""Exact-arithmetic simplex over the rationals.

Two-phase tableau with Bland's anti-cycling rule: entering variable
is the smallest index with a positive reduced cost, leaving row breaks
ratio ties by the smallest basic variable.  That rule is slow in theory
but terminates unconditionally, and exactness matters more than pivot
count at the sizes this package solves.

The tableau is stored as dense rows of `Fraction`s, but a pivot is sparse:
it collects the pivot row's nonzero entries once and updates only those
columns, in place, in every row (and the cost row) with a nonzero entry in
the pivot column.  A zero entry b of the pivot row leaves a - f*b == a, so
the pivot sequence and every value match a full dense update.

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


def _eliminate(line: List[Fraction], f: Fraction, nz) -> None:
    for j, b in nz:
        line[j] -= f * b


def _pivot(tableau: List[List[Fraction]], cost: List[Fraction], basis: List[int], row: int, col: int) -> None:
    prow = tableau[row]
    piv = prow[col]
    nz = [(j, a) for j, a in enumerate(prow) if a]
    if piv != F1:
        nz = [(j, a / piv) for j, a in nz]
        for j, a in nz:
            prow[j] = a
    for i, other in enumerate(tableau):
        if i == row:
            continue
        f = other[col]
        if f:
            _eliminate(other, f, nz)
    f = cost[col]
    if f:
        _eliminate(cost, f, nz)
    basis[row] = col


def _bland_loop(tableau, cost, basis, ncols) -> None:
    for _ in range(_MAX_PIVOTS):
        col = -1
        for j in range(ncols):
            if cost[j] > 0:
                col = j
                break
        if col < 0:
            return
        row = -1
        best = None
        for i, trow in enumerate(tableau):
            a = trow[col]
            if a > 0:
                ratio = trow[-1] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    row = i
        if row < 0:
            raise LpUnbounded
        _pivot(tableau, cost, basis, row, col)
    raise SimplexStall("pivot budget exhausted")


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
    art_col = {}
    for k, i in enumerate(art_rows):
        art_col[i] = nvars + nslack + k

    tableau: List[List[Fraction]] = []
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
        tableau.append(line)

    if nart:
        # phase 1: maximize -sum(artificials); price out the artificial basis
        cost = [F0] * (ncols + 1)
        for i in art_rows:
            cost = [a + b for a, b in zip(cost, tableau[i])]
        for k in range(nart):
            cost[nvars + nslack + k] = F0
        _bland_loop(tableau, cost, basis, ncols)
        if cost[-1] != 0:
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

    cost = [F0] * (ncols + 1)
    cost[:nvars] = list(c)
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f:
            _eliminate(cost, f, [(j, a) for j, a in enumerate(tableau[i]) if a])
    _bland_loop(tableau, cost, basis, ncols)

    x = [F0] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = tableau[i][-1]
    y = tuple(-cost[nvars + i] for i in range(m))
    return LpOptimum(-cost[-1], tuple(x), y)


def solve_min(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LpOptimum:
    """Minimize c.x subject to rows.x >= rhs, x >= 0 (exact rationals).

    The returned y satisfies y >= 0, y.rows <= c and y.rhs == value."""
    neg_rows = [[-Fraction(v) for v in row] for row in rows]
    neg_rhs = [-Fraction(v) for v in rhs]
    neg_c = [-Fraction(v) for v in c]
    res = solve_max(neg_c, neg_rows, neg_rhs)
    return LpOptimum(-res.value, res.x, res.y)
