"""Exact rational linear programming (all-integer primal simplex).

Solves   maximize c.x   subject to   A x <= b,  x >= 0
exactly, for the small feasibility systems that decide chamber realizability.
The callers arrange b >= 0, so the all-slack basis is feasible and no phase-1
is needed.

Inputs may be ints or Fractions.  Each row is cleared to integers up front by
the lcm of its denominators, with no Fraction built.

The tableau is condensed (Tucker form): it stores the m basic rows and the
objective row, each with one entry per nonbasic variable and the rhs, so a row
has n+1 entries instead of the n+m+1 of the full tableau.  Variables are
labelled 0..n-1 (the x_j) and n..n+m-1 (the slacks); ``cols`` holds the labels
of the nonbasic columns and ``basis`` those of the rows.  Pivoting uses the
fraction-free update x' = (piv*x - f*y) / d, where piv is the pivot, f the
row's entry in the pivot column, y the pivot row's entry and d the previous
pivot.  The divisions are exact (Bareiss: every entry stays a minor of the
original integer matrix) and the running tableau is d times the usual rational
one, with d > 0, so sign tests and cross-multiplied ratio tests are unchanged.
The pivot row itself is left as it is.  The pivot column then stands for the
leaving variable, whose full-tableau column after the pivot is d in the pivot
row and -f in every other row, the objective included; the two labels swap.

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
    M = [_int_row([*ai, bi])[0] for ai, bi in zip(A, b)]
    obj, scale_obj = _int_row(c)
    obj = [-x for x in obj] + [0]
    cols = list(range(n))
    basis = list(range(n, n + m))
    d = 1  # common positive scale of the tableau

    while True:
        enter = -1
        for k, label in enumerate(cols):
            if obj[k] < 0 and (enter < 0 or label < cols[enter]):
                enter = k
        if enter < 0:
            break
        leave = -1
        bn = bd = 0  # best ratio bn/bd, bd > 0
        for i in range(m):
            a = M[i][enter]
            if a > 0:
                ri, rd = M[i][-1], a
                if leave < 0 or ri * bd < bn * rd or (
                    ri * bd == bn * rd and basis[i] < basis[leave]
                ):
                    bn, bd = ri, rd
                    leave = i
        if leave < 0:
            raise ValueError("objective is unbounded")
        piv = M[leave][enter]
        pivrow = M[leave]
        for i in range(m):
            if i != leave:
                row = M[i]
                f = row[enter]
                if f:
                    M[i] = [(piv * x - f * y) // d for x, y in zip(row, pivrow)]
                else:
                    M[i] = [(piv * x) // d for x in row]
                M[i][enter] = -f
        f = obj[enter]
        obj = [(piv * x - f * y) // d for x, y in zip(obj, pivrow)]
        obj[enter] = -f
        pivrow[enter] = d
        cols[enter], basis[leave] = basis[leave], cols[enter]
        d = piv

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(M[i][-1], d)
    return Fraction(obj[-1], d * scale_obj), x
