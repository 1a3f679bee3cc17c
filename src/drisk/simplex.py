"""Exact-arithmetic simplex over the rationals.

One phase from the slack basis, with Bland's anti-cycling rule: entering
variable is the smallest index with a positive reduced cost, leaving row
breaks ratio ties by the smallest basic variable.  That rule is slow in
theory but terminates unconditionally, and exactness matters more than
pivot count at the sizes this package solves.

The tableau is stored fraction-free: each row is a list of integers whose
common denominator is its entry in its basic column (which stands for 1),
and the cost row carries its denominator as one extra last entry.  A pivot
updates only the rows with a nonzero entry in the pivot column, by integer
cross-multiplication, and divides each such row by the gcd of its entries.
Every sign and ratio the pivot rule reads is the exact rational one, so the
pivot sequence and every value match a dense `Fraction` update; only the
result is turned back into `Fraction`s.

Conventions: maximize c.x subject to A.x <= b, x >= 0, with b >= 0, so
x = 0 is feasible and the slack basis starts the search.  A covering LP
(minimize over >= rows) is solved as its dual packing, whose row duals
are the cover.

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


class LpUnbounded(Exception):
    """The objective can be pushed beyond every bound."""


class SimplexStall(RuntimeError):
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


def _bland_loop(tableau: List[List[int]], cost: List[int], basis: List[int]) -> None:
    for _ in range(_MAX_PIVOTS):
        # the cost row ends with the rhs entry and its denominator
        col = next((j for j in range(len(cost) - 2) if cost[j] > 0), -1)
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
        prow = tableau[row]
        for i, other in enumerate(tableau):
            if i != row and other[col]:
                tableau[i] = _combine(other, prow, col)
        if cost[col]:
            cost[:] = _combine(cost, prow, col)
        basis[row] = col
    raise SimplexStall("pivot budget exhausted")


def _integral(values: Sequence[Fraction]) -> List[int]:
    """values times the least common multiple of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def solve_max(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LpOptimum:
    """Maximize c.x subject to rows.x <= rhs, x >= 0 (exact rationals),
    for rhs >= 0.

    The returned y satisfies y >= 0, y.rows >= c and y.rhs == value."""
    nvars = len(c)
    m = len(rows)
    tableau: List[List[int]] = []
    for i in range(m):
        b = Fraction(rhs[i])
        if b < 0:
            raise ValueError("negative right-hand side")
        line = [Fraction(v) for v in rows[i]]
        if len(line) != nvars:
            raise ValueError("row length does not match objective length")
        line.extend(F0 for _ in range(m))
        line[nvars + i] = F1
        line.append(b)
        tableau.append(_integral(line))
    basis = list(range(nvars, nvars + m))

    # the slack basis has zero cost, so the cost row starts priced out
    cost = _integral([Fraction(v) for v in c] + [F0] * (m + 1) + [F1])
    _bland_loop(tableau, cost, basis)

    x = [F0] * nvars
    for i, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = Fraction(tableau[i][-1], tableau[i][bi])
    y = tuple(Fraction(-cost[nvars + i], cost[-1]) for i in range(m))
    return LpOptimum(Fraction(-cost[-2], cost[-1]), tuple(x), y)
