"""Exact rational linear programming (all-integer primal simplex).

Solves   maximize c.x   subject to   A x <= b,  x >= 0
exactly, for the small feasibility systems that decide chamber realizability.
The callers arrange b >= 0, so the all-slack basis is feasible and no phase-1
is needed.

Inputs may be ints or Fractions.  Each row is cleared to integers up front by
the lcm of its denominators, with no Fraction built; a row of ints, as every
row of the realizability LP is, has lcm 1 and keeps its entries.

The tableau is condensed (Tucker form): it stores one entry per basic row and
the objective for each nonbasic variable and the rhs, so it has n+1 columns
instead of the n+m+1 of the full tableau.  It is kept by columns: ``T[k]`` is
the column of the k-th nonbasic variable (``T[n]`` the rhs), with its m basic
rows first and the objective entry last.  Variables are labelled 0..n-1 (the
x_j) and n..n+m-1 (the slacks); ``cols`` holds the labels of the nonbasic
columns and ``basis`` those of the rows.  Pivoting uses the fraction-free
update x' = (piv*x - f*y) / d, where piv is the pivot, f the entry of x's row
in the pivot column, y the pivot row's entry in x's column and d the previous
pivot.  The divisions are exact (Bareiss: every entry stays a minor of the
original integer matrix) and the running tableau is d times the usual rational
one, with d > 0, so sign tests and cross-multiplied ratio tests are unchanged.
The pivot row itself is left as it is.  The pivot column then stands for the
leaving variable, whose full-tableau column after the pivot is d in the pivot
row and -f in every other row, the objective included; the two labels swap.

A pivot rewrites only the columns it changes.  When the pivot equals the
previous one (piv == d, the common case on the 0/+-1 rows of the
realizability LP), a column whose pivot row entry y is 0 is skipped: each of
its entries would become (d*x - f*0) / d = x, so the column is exactly
unchanged.  Every other column takes the full update.

Every condensed entry equals an entry of the full tableau, whose basic columns
are unit columns with objective 0.  So Bland's rule reads the same on labels:
enter at the nonbasic label with the smallest index and a negative reduced
cost, break ratio ties on the smallest basic label.  The condensed tableau
visits exactly the bases of the full one, and Bland's rule guarantees
termination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _int_row(xs) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    scale = lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


def simplex_max(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, an optimal x) for max c.x, A x <= b, x >= 0.

    Requires b >= 0 and a bounded objective; raises ValueError otherwise.
    """
    if any(bi < 0 for bi in b):
        raise ValueError("simplex_max requires b >= 0")
    n = len(c)
    m = len(A)
    # The slack of a scaled row is a scaled slack variable, which leaves the
    # x-solution set unchanged.
    rows = [_int_row([*ai, bi])[0] for ai, bi in zip(A, b)]
    obj, scale_obj = _int_row(c)
    T = [list(col) for col in zip(*rows, [-x for x in obj] + [0])]
    cols = list(range(n))
    basis = list(range(n, n + m))
    d = 1  # common positive scale of the tableau

    while True:
        enter = -1
        for k, label in enumerate(cols):
            if T[k][m] < 0 and (enter < 0 or label < cols[enter]):
                enter = k
        if enter < 0:
            break
        pcol, rhs = T[enter], T[n]
        leave = -1
        bn = bd = 0  # best ratio bn/bd, bd > 0
        for i in range(m):
            a = pcol[i]
            if a > 0:
                ri = rhs[i]
                if leave < 0 or ri * bd < bn * a or (
                    ri * bd == bn * a and basis[i] < basis[leave]
                ):
                    bn, bd = ri, a
                    leave = i
        if leave < 0:
            raise ValueError("objective is unbounded")
        piv = pcol[leave]
        for k, col in enumerate(T):
            if k == enter:
                continue
            y = col[leave]
            if piv == d and not y:
                continue
            nv = [(piv * x - f * y) // d for x, f in zip(col, pcol)]
            nv[leave] = y
            T[k] = nv
        nv = [-f for f in pcol]
        nv[leave] = d
        T[enter] = nv
        cols[enter], basis[leave] = basis[leave], cols[enter]
        d = piv

    rhs = T[n]
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rhs[i], d)
    return Fraction(rhs[m], d * scale_obj), x
