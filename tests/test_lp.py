"""Exact simplex: cross-validated against brute-force vertex enumeration and
against the full-tableau simplex it replaced."""

import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

import wpvol.chambers as chambers
from wpvol.chambers import Chamber, StabilitySpace, WeightVector, classify, enumerate_chambers
from wpvol.lp import simplex_max


def brute_force_max(c, A, b):
    """Enumerate all basic feasible points of {Ax <= b, x >= 0} exactly."""
    n = len(c)
    rows = [list(r) for r in A] + [[-F(i == j) for j in range(n)] for i in range(n)]
    rhs = list(b) + [F(0)] * n
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        m = [[F(rows[i][j]) for j in range(n)] + [F(rhs[i])] for i in combo]
        ok = True
        for col in range(n):
            p = next((r for r in range(col, n) if m[r][col] != 0), None)
            if p is None:
                ok = False
                break
            m[col], m[p] = m[p], m[col]
            m[col] = [v / m[col][col] for v in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [a - f * bb for a, bb in zip(m[r], m[col])]
        if not ok:
            continue
        x = [m[i][n] for i in range(n)]
        if all(xj >= 0 for xj in x) and all(
            sum(rows[i][j] * x[j] for j in range(n)) <= rhs[i] for i in range(len(rows))
        ):
            v = sum(c[j] * x[j] for j in range(n))
            best = v if best is None else max(best, v)
    return best


def test_simple_cases():
    value, x = simplex_max([F(1)], [[F(1)]], [F(2)])
    assert value == 2 and x == [F(2)]
    value, x = simplex_max([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(3)])
    assert value == 4
    value, _ = simplex_max([F(0)], [[F(1)]], [F(5)])
    assert value == 0


def test_unbounded_detected():
    with pytest.raises(ValueError):
        simplex_max([F(1)], [[F(-1)]], [F(0)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        simplex_max([F(1)], [[F(1)]], [F(-1)])


def degenerate_instance():
    """A classic instance on which the textbook rule cycles."""
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    A = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    b = [F(0), F(0), F(1)]
    return c, A, b


def test_degenerate_does_not_cycle():
    # Bland's rule must terminate.  The instance times 100 is all ints; given
    # as ints, as Fractions of denominator 1 and with its rows divided by 2, 3
    # and 7, it has the same optimal x and 100 times the value.
    c, A, b = degenerate_instance()
    x = [F(1, 25), F(0), F(1), F(0)]
    ci = [int(100 * v) for v in c]
    Ai = [[int(100 * v) for v in row] for row in A]
    bi = [int(100 * v) for v in b]
    ks = (2, 3, 7)
    for form, value in [
        ((c, A, b), F(1, 20)),
        ((ci, Ai, bi), 5),
        (([F(v) for v in ci], [[F(v) for v in row] for row in Ai], [F(v) for v in bi]), 5),
        ((ci, [[F(v, k) for v in row] for row, k in zip(Ai, ks)], [F(v, k) for v, k in zip(bi, ks)]), 5),
    ]:
        got = simplex_max(*form)
        assert got == (value, x)
        assert type(got[0]) is F and all(type(v) is F for v in got[1])


def test_random_against_brute_force():
    rng = random.Random(20260808)
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        c = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        A = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)]
        try:
            got, x = simplex_max(c, A, b)
        except ValueError as exc:
            assert "unbounded" in str(exc)
            continue
        want = brute_force_max(c, A, b)
        assert want is not None and got == want
        # returned point must be feasible and achieve the value
        assert all(xj >= 0 for xj in x)
        assert all(sum(ai * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(A, b))
        assert sum(ci * xi for ci, xi in zip(c, x)) == got


def full_tableau_simplex_max(c, A, b):
    """Reference: the full-tableau all-integer simplex (slack columns kept).

    Rows are cleared to integers through Fraction; Bareiss update and Bland's
    rule on column indices, as in ``simplex_max``.
    """
    if any(F(bi) < 0 for bi in b):
        raise ValueError("simplex_max requires b >= 0")
    n = len(c)
    scale_obj = lcm(*(F(x).denominator for x in c)) if n else 1
    obj = [-int(F(x) * scale_obj) for x in c]
    M = []
    for i, (ai, bi) in enumerate(zip(A, b)):
        scale = lcm(*(F(x).denominator for x in list(ai) + [bi]))
        M.append([int(F(x) * scale) for x in ai] + [0] * len(A) + [int(F(bi) * scale)])
        M[-1][n + i] = 1
    m = len(M)
    obj = obj + [0] * m + [0]
    basis = list(range(n, n + m))
    d = 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        bn = bd = 0
        for i in range(m):
            a = M[i][enter]
            if a > 0:
                ri = M[i][-1]
                if leave < 0 or ri * bd < bn * a or (ri * bd == bn * a and basis[i] < basis[leave]):
                    bn, bd, leave = ri, a, i
        if leave < 0:
            raise ValueError("objective is unbounded")
        pivrow = M[leave]
        piv = pivrow[enter]
        for i in range(m):
            if i != leave:
                f = M[i][enter]
                M[i] = [(piv * x - f * y) // d for x, y in zip(M[i], pivrow)]
        f = obj[enter]
        obj = [(piv * x - f * y) // d for x, y in zip(obj, pivrow)]
        basis[leave] = enter
        d = piv
    x = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = F(M[i][-1], d)
    return F(obj[-1], d * scale_obj), x


def outcome(solver, c, A, b):
    try:
        return solver(c, A, b)
    except ValueError as exc:
        return str(exc)


def test_matches_full_tableau_on_random_lps():
    """Same (value, x), or the same error, on random rational LPs; b is mostly
    0 and the coefficients small, so most instances are degenerate."""
    rng = random.Random(20261018)
    instances = [degenerate_instance()]
    for _ in range(1500):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        c = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        A = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.choice([0, 0, 0, 1, 2]), rng.randint(1, 3)) for _ in range(m)]
        instances.append((c, A, b))
    solved = 0
    for c, A, b in instances:
        want = outcome(full_tableau_simplex_max, c, A, b)
        assert outcome(simplex_max, c, A, b) == want
        solved += not isinstance(want, str)
    assert solved > 800


@pytest.fixture(scope="module")
def realizability_lps():
    """Each chamber of D_{0,4}, D_{1,4} and D_{0,5} and each chamber one
    simple crossing below it (one minimal heavy set made light), with the
    result of its realizability LP solved afresh, and every (c, A, b) those
    LPs pass to simplex_max."""
    spaces = [StabilitySpace(g, n) for g, n in [(0, 4), (1, 4), (0, 5)]]
    found = [c for space in spaces for c in enumerate_chambers(space)]
    fresh = {}
    recorded = []

    def recording(c, A, b):
        recorded.append((c, A, b))
        return simplex_max(c, A, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chambers, "simplex_max", recording)
        for c in found:
            below = [Chamber(c.space, c.light_max + (tuple(sorted(S)),)) for S in c.heavy_min()]
            for x in [c, *below]:
                if x not in fresh:
                    fresh[x] = chambers._solve(x)
    return fresh, recorded


def test_matches_full_tableau_on_realizability_lps(realizability_lps):
    """Every LP that realize solves on a memo miss (chambers._solve), for each
    chamber of D_{0,4}, D_{1,4} and D_{0,5} and for each chamber one simple
    crossing below it, gives the reference's (value, x)."""
    _, recorded = realizability_lps
    assert len(recorded) > 2500
    for c, A, b in recorded:
        assert simplex_max(c, A, b) == full_tableau_simplex_max(c, A, b)


def test_orbit_realize_matches_fresh_lp(realizability_lps, monkeypatch):
    """From empty memo tables, realize through the S_n orbit table, keyed by
    the sorted key and solved on the chamber of the key, agrees with the
    fresh LP on every chamber above, candidates of the enumeration included:
    on realizability and on the witness and slack, bit for bit, and the
    witness lies in the chamber; most answers are orbit hits."""
    fresh, _ = realizability_lps
    monkeypatch.setattr(chambers, "_realize_cache", {})
    monkeypatch.setattr(chambers, "_realize_orbits", {})
    for c, want in sorted(fresh.items(), key=lambda item: (item[0].space.g, item[0].space.n, item[0].light_max)):
        got = chambers.realize(c)
        assert (got is None) == (want is None), c
        if got is not None:
            assert got == want, c
            assert classify(WeightVector(c.space, got[0])) == c
    assert len(chambers._realize_orbits) < len(fresh) // 10


def test_matches_full_tableau_on_d06_search_lps(monkeypatch):
    """Every LP of the D_{0,6} representative search and of the witnesses of
    its representatives, solved from empty memo tables, gives the reference's
    (value, x)."""
    for name in ("_realize_cache", "_realize_orbits", "_enum_cache"):
        monkeypatch.setattr(chambers, name, {})
    recorded = []

    def recording(c, A, b):
        recorded.append((c, A, b))
        return simplex_max(c, A, b)

    monkeypatch.setattr(chambers, "simplex_max", recording)
    for c in enumerate_chambers(StabilitySpace(0, 6), up_to_symmetry=True):
        chambers.realize(c)
    assert len(recorded) == 511
    for c, A, b in recorded:
        assert simplex_max(c, A, b) == full_tableau_simplex_max(c, A, b)


def test_empty_shapes():
    """No rows: a positive objective entry is unbounded, otherwise the optimum
    is 0 at x = 0.  No variables: the optimum is 0 at the empty point."""
    with pytest.raises(ValueError, match="objective is unbounded"):
        simplex_max([F(0), F(1)], [], [])
    assert simplex_max([F(-1), F(0)], [], []) == (0, [0, 0])
    assert simplex_max([], [[], []], [F(1), F(2)]) == (0, [])
    assert simplex_max([], [], []) == (0, [])
