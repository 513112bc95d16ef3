"""Exact psi and kappa_1 intersection numbers on the Deligne-Mumford space.

Conventions, pinned by two anchors that every published normalization must
reproduce before it is trusted:

    <tau_0^3>_0 = 1          <tau_1>_1 = 1/24

together with the genus-0 closed form <tau_{d_1}...tau_{d_n}>_0
= (n-3)!/prod(d_i!), the string and dilaton equations, and the
Virasoro/KdV recursion in double-factorial normalization for the remaining
genus >= 2 correlators:

    (2k+1)!! <tau_k X>_g =
        sum_j ((2k+2d_j-1)!!/(2d_j-1)!!) <tau_{k+d_j-1} X/tau_{d_j}>_g
      + 1/2 sum_{a+b=k-2} (2a+1)!!(2b+1)!! ( <tau_a tau_b X>_{g-1}
            + sum_{g1+g2=g, X1 u X2 = X} <tau_a X1>_{g1} <tau_b X2>_{g2} )

applied to a largest index k >= 2; correlators that are unstable or violate
the dimension constraint sum(d) = 3g-3+n vanish inside the recursion.  The
mixed kappa_1 correlators reduce to pure psi ones one kappa at a time:

    <k1^m prod tau_d>_{g,n}
        = sum_{j=0}^{m-1} C(m-1,j) (-1)^j <k1^{m-1-j} tau_{j+2} prod tau_d>_{g,n+1}

Every value is memoized in one module dict, ``default_cache()``, keyed by
(g, m, sorted d), with m = 0 for pure psi correlators.  Inserts are guarded:
a key is written once, and a second, different value under it raises
``ValueError``, so the table cannot silently serve a wrong number.  Equal
re-inserts are harmless, so concurrent writers need no lock.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from .errors import DimensionMismatchError, UnstableError


def _odd_double_factorial(m: int) -> int:
    """m!! for odd m >= -1, with (-1)!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _df(d: int) -> int:
    """(2d+1)!!"""
    return _odd_double_factorial(2 * d + 1)


_cache: dict[tuple[int, int, tuple[int, ...]], Fraction] = {}


def default_cache() -> dict[tuple[int, int, tuple[int, ...]], Fraction]:
    """The memo table: (g, m, sorted d) -> <kappa_1^m prod tau_d>_g."""
    return _cache


def _put(key: tuple[int, int, tuple[int, ...]], value: Fraction) -> Fraction:
    """The guarded insert: a second, different value under ``key`` raises."""
    old = _cache.setdefault(key, value)
    if old != value:
        raise ValueError(f"cache corruption at {key}: {old} != {value}")
    return old


def _stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def _checked(g: int, m: int, d: Iterable[int]) -> tuple[int, ...]:
    """d sorted, once g, m and every d_i are non-negative ints, (g, n) is
    stable and m + sum(d) = 3g-3+n; raises ValueError, UnstableError or
    DimensionMismatchError otherwise."""
    d = tuple(d)
    if not all(type(x) is int and x >= 0 for x in (g, m, *d)):  # bools are not indices
        raise ValueError(f"indices must be non-negative ints: g={g!r}, m={m!r}, d={d!r}")
    n = len(d)
    if not _stable(g, n):
        raise UnstableError(f"unstable (g,n)=({g},{n})")
    if m + sum(d) != 3 * g - 3 + n:
        raise DimensionMismatchError(
            f"m+sum(d)={m + sum(d)} != 3g-3+n={3 * g - 3 + n} for g={g}, m={m}, d={d}"
        )
    return tuple(sorted(d))


# -- pure psi correlators ------------------------------------------------------


def psi_intersection(g: int, d: Iterable[int]) -> Fraction:
    """<tau_{d_1}...tau_{d_n}>_g with the 1/24 orbifold convention.

    The dimension constraint sum(d) = 3g-3+n is a strict precondition: a
    mismatch is a caller bug, not a zero.
    """
    return _psi(g, _checked(g, 0, d))


def _psi_lenient(g: int, d: tuple[int, ...]) -> Fraction:
    """Internal: 0 for unstable or dimension-mismatched indices."""
    n = len(d)
    if not _stable(g, n) or sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    return _psi(g, tuple(sorted(d)))


def _psi(g: int, d: tuple[int, ...]) -> Fraction:
    key = (g, 0, d)
    got = _cache.get(key)
    if got is not None:
        return got
    n = len(d)
    if g == 0:
        value = Fraction(factorial(n - 3))
        for x in d:
            value /= factorial(x)
    elif g == 1 and d == (1,):
        value = Fraction(1, 24)
    elif d[0] == 0:
        # string equation
        rest = d[1:]
        value = Fraction(0)
        for j, dj in enumerate(rest):
            if dj >= 1:
                value += _psi(g, tuple(sorted(rest[:j] + (dj - 1,) + rest[j + 1 :])))
    elif d[0] == 1:
        # dilaton equation
        value = (2 * g - 2 + n - 1) * _psi(g, d[1:])
    else:
        value = _dvv(g, d)
    return _put(key, value)


def _dvv(g: int, d: tuple[int, ...]) -> Fraction:
    """Virasoro/KdV step on the largest index; requires all d_i >= 2."""
    k = d[-1]
    rest = d[:-1]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        merged = tuple(sorted(rest[:j] + rest[j + 1 :] + (k + dj - 1,)))
        total += Fraction(
            _odd_double_factorial(2 * (k + dj) - 1), _odd_double_factorial(2 * dj - 1)
        ) * _psi(g, merged)
    nrest = len(rest)
    for a in range(k - 1):
        b = k - 2 - a
        w = Fraction(_df(a) * _df(b), 2)
        total += w * _psi_lenient(g - 1, rest + (a, b))
        for g1 in range(g + 1):
            g2 = g - g1
            for mask in range(1 << nrest):
                part1 = tuple(rest[i] for i in range(nrest) if mask >> i & 1)
                part2 = tuple(rest[i] for i in range(nrest) if not mask >> i & 1)
                f1 = _psi_lenient(g1, (a,) + part1)
                if f1:
                    f2 = _psi_lenient(g2, (b,) + part2)
                    if f2:
                        total += w * f1 * f2
    return total / _df(k)


# -- mixed kappa_1 correlators -------------------------------------------------


def kappa_psi_intersection(g: int, m: int, d: Iterable[int]) -> Fraction:
    """<kappa_1^m tau_{d_1}...tau_{d_n}>_g via one-kappa-at-a-time reduction."""
    return _kappa_psi(g, m, _checked(g, m, d))


def _kappa_psi(g: int, m: int, d: tuple[int, ...]) -> Fraction:
    if m == 0:
        return _psi(g, d)
    key = (g, m, d)
    got = _cache.get(key)
    if got is not None:
        return got
    total = Fraction(0)
    for j in range(m):
        sign = -1 if j % 2 else 1
        total += sign * comb(m - 1, j) * _kappa_psi(g, m - 1 - j, tuple(sorted(d + (j + 2,))))
    return _put(key, total)
