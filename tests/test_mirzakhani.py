"""Main-chamber volumes against Mirzakhani's recursion.

``mirzakhani_volume`` builds V_{g,n} from Witten-Kontsevich numbers and the
kappa_1-to-psi reduction (``wpvol.intersection``).  Mirzakhani's recursion
(M. Mirzakhani, Invent. Math. 167, 2007) reaches the same polynomials from
V_{0,3} = 1 and V_{1,1}(L) = (L^2 + 4 pi^2)/48 with no kappa class, and is
proven equal to the intersection route (K. Liu and H. Xu, 2009), so it is an
independent reference.  With L = (L_1, L_K), K = (2, ..., n), and the kernel
H(x, t) = 1/(1 + e^((x+t)/2)) + 1/(1 + e^((x-t)/2)):

    d/dL_1 (L_1 V_{g,n}(L)) =
        1/2 int int x y H(x+y, L_1) ( V_{g-1,n+1}(x, y, L_K)
            + sum_{g1+g2=g, I u J=K} V_{g1}(x, L_I) V_{g2}(y, L_J) ) dx dy
      + 1/2 sum_{j in K} int x (H(x, L_1+L_j) + H(x, L_1-L_j)) V_{g,n-1}(x, L_{K-j}) dx

In coefficient form every integral is exact, with pi formal
(M. Mulase and B. Safnuk, 2008):

    int_0^oo x^(2k+1) H(x, t) dx
        = (2k+1)! sum_{i=0}^{k+1} z_i pi^(2i) t^(2k+2-2i) / (2k+2-2i)!,
    z_i = zeta(2i) (2^(2i+1) - 4) / pi^(2i),  zeta(0) = -1/2,

and int int x^(2a+1) y^(2b+1) f(x+y) = (2a+1)!(2b+1)!/(2a+2b+3)! int z^(2a+2b+3) f.
A volume is kept as its coefficients c_alpha of L^(2 alpha); the power of pi
follows from homogeneity, pi^(2(3g-3+n-|alpha|)).  The recursion is symmetric
in L_2, ..., L_n by construction, so only coefficients with a non-decreasing
tail alpha_2 <= ... <= alpha_n are computed and stored; that reaches every
main chamber the CLI bounds allow (n <= 7, degree 3g-3+n <= 9: 21 spaces) in
about 1.5 s with the engine side included.  The cone-angle form is L = i theta,
so c_alpha L^(2 alpha) is (-1)^|alpha| c_alpha theta^(2 alpha).
"""

from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial

import pytest

from wpvol import reference as ref
from wpvol.cli import MAX_DEGREE, MAX_POINTS
from wpvol.volumes import mirzakhani_volume


@cache
def bernoulli(m: int) -> F:
    if m == 0:
        return F(1)
    return -sum(comb(m + 1, k) * bernoulli(k) for k in range(m)) / (m + 1)


@cache
def kernel(i: int) -> F:
    """z_i = zeta(2i) (2^(2i+1) - 4) / pi^(2i), by zeta(2i) =
    (-1)^(i+1) B_2i (2 pi)^(2i) / (2 (2i)!)."""
    zeta = (-1) ** (i + 1) * bernoulli(2 * i) * F(4**i, 2 * factorial(2 * i))
    return zeta * (2 ** (2 * i + 1) - 4)


def stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def tails(length: int, top: int):
    """Non-decreasing tuples of ``length`` entries with sum <= top."""
    for t in combinations_with_replacement(range(top + 1), length):
        if sum(t) <= top:
            yield t


def splits(tail: tuple[int, ...]):
    """(tail_I, tail_J, count) over the subsets I of positions, merged by value."""
    out = Counter()
    for mask in range(1 << len(tail)):
        out[
            tuple(e for j, e in enumerate(tail) if mask >> j & 1),
            tuple(e for j, e in enumerate(tail) if not mask >> j & 1),
        ] += 1
    return out.items()


def first_slot(v: dict, g: int, n: int, tail: tuple[int, ...]) -> dict[int, F]:
    """a -> (2a+1)! c_(a, tail) for the volume ``v`` of V_{g,n}: the weights
    of x^(2a+1) when its first argument x is glued to L_1."""
    top = 3 * g - 3 + n - sum(tail)
    return {a: factorial(2 * a + 1) * c for a in range(top + 1) if (c := v.get((a,) + tail))}


@cache
def volume(g: int, n: int) -> dict[tuple[int, ...], F]:
    """(alpha_1, sorted alpha_2..alpha_n) -> c_alpha of V_{g,n}(L)."""
    if (g, n) == (0, 3):
        return {(0, 0, 0): F(1)}
    if (g, n) == (1, 1):
        return {(1,): F(1, 48), (0,): F(4, 48)}
    d = 3 * g - 3 + n
    low = volume(g, n - 1) if stable(g, n - 1) else {}
    con = volume(g - 1, n + 1) if stable(g - 1, n + 1) else {}
    out = {}
    for p in range(d + 1):
        for tail in tails(n - 1, d - p):
            # B: x glued to L_1 and L_j, once per distinct exponent e of L_j
            total = F(0)
            for j, e in enumerate(tail):
                if j and tail[j - 1] == e:
                    continue
                rest, m = tail[:j] + tail[j + 1 :], p + e
                s = F(0)
                for k in range(max(m - 1, 0), d):
                    if c := low.get((k,) + rest):
                        s += c * factorial(2 * k + 1) * kernel(k + 1 - m)
                total += tail.count(e) * s / (factorial(2 * p) * factorial(2 * e))
            # A: x and y glued to L_1; conv[a + b] sums (2a+1)! (2b+1)! c c'
            conv = Counter()
            for b in range(d - 1):
                for a, c in first_slot(con, g - 1, n + 1, tuple(sorted((b,) + tail))).items():
                    conv[a + b] += factorial(2 * b + 1) * c
            for (ti, tj), count in splits(tail):
                for g1 in range(g + 1):
                    g2, n1, n2 = g - g1, len(ti) + 1, len(tj) + 1
                    if stable(g1, n1) and stable(g2, n2):
                        u = first_slot(volume(g1, n1), g1, n1, ti)
                        for b, cb in first_slot(volume(g2, n2), g2, n2, tj).items():
                            for a, ca in u.items():
                                conv[a + b] += count * ca * cb
            for s, c in conv.items():
                if s + 2 >= p:
                    total += c * kernel(s + 2 - p) / (2 * factorial(2 * p))
            if total:
                out[(p,) + tail] = total / (2 * p + 1)  # undo d/dL_1 (L_1 .)
    return out


def angle_terms(g: int, n: int) -> dict[tuple[int, ...], F]:
    """The recursion's V_{g,n}(i theta) as Poly terms (pi, theta_1, ..., theta_n)."""
    d = 3 * g - 3 + n
    out = {}
    for alpha, c in volume(g, n).items():
        pi = (2 * (d - sum(alpha)),)
        for tail in set(permutations(alpha[1:])):
            out[pi + tuple(2 * a for a in (alpha[0],) + tail)] = (-1) ** sum(alpha) * c
    return out


# every main chamber within the CLI bounds: n <= MAX_POINTS, 3g-3+n <= MAX_DEGREE
MAIN_CHAMBERS = [
    (g, n)
    for g in range(MAX_DEGREE // 3 + 2)
    for n in range(1, MAX_POINTS + 1)
    if stable(g, n) and 3 * g - 3 + n <= MAX_DEGREE
]


def test_kernel_constants_and_scope():
    # zeta(0) = -1/2, zeta(2) = pi^2/6, zeta(4) = pi^4/90
    assert [kernel(i) for i in range(3)] == [1, F(2, 3), F(14, 45)]
    assert len(MAIN_CHAMBERS) == 21 and (2, 6) in MAIN_CHAMBERS and (3, 3) in MAIN_CHAMBERS


@pytest.mark.parametrize("g,n,fixture", [(0, 4, ref.v_main_04), (1, 2, ref.v_main_12), (2, 1, ref.v_main_21)])
def test_recursion_reproduces_hand_fixtures(g, n, fixture):
    assert angle_terms(g, n) == dict(fixture().terms)


@pytest.mark.parametrize("g,n", MAIN_CHAMBERS)
def test_main_chamber_matches_mirzakhani_recursion(g, n):
    assert dict(mirzakhani_volume(g, n).poly.terms) == angle_terms(g, n)
