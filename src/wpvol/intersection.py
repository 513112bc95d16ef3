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

All computations are cached in memory, in the one table ``default_cache()``.
Insertions are idempotent -- the same key always maps to the same value -- so
concurrent writers are harmless and single-threaded use pays no
synchronization cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class TauIndex:
    """Canonical index of a pure psi correlator <tau_{d_1}...tau_{d_n}>_g."""

    g: int
    d: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(sorted(int(x) for x in self.d)))
        if self.g < 0 or any(x < 0 for x in self.d):
            raise ValueError("genus and psi exponents must be non-negative")
        n = len(self.d)
        if n < 1 or (self.g == 0 and n < 3):
            raise UnstableError(f"(g,n)=({self.g},{n}) not allowed for TauIndex")

    @property
    def n(self) -> int:
        return len(self.d)

    def dimension_matched(self) -> bool:
        return sum(self.d) == 3 * self.g - 3 + self.n


@dataclass(frozen=True)
class KappaTauIndex:
    """Canonical index of a mixed correlator <kappa_1^m tau_{d_1}...tau_{d_n}>_g."""

    g: int
    m: int
    d: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(sorted(int(x) for x in self.d)))
        if self.g < 0 or self.m < 0 or any(x < 0 for x in self.d):
            raise ValueError("indices must be non-negative")

    @property
    def n(self) -> int:
        return len(self.d)

    def dimension_matched(self) -> bool:
        return self.m + sum(self.d) == 3 * self.g - 3 + self.n


@dataclass
class IntersectionCache:
    """In-memory memo table from (g, m, sorted d) to Fraction."""

    table: dict[tuple[int, int, tuple[int, ...]], Fraction] = field(default_factory=dict)

    def get(self, key):
        return self.table.get(key)

    def put(self, key, value: Fraction) -> Fraction:
        old = self.table.get(key)
        if old is not None:
            if old != value:
                raise ValueError(f"cache corruption at {key}: {old} != {value}")
            return old
        self.table[key] = value
        return value

    def __len__(self) -> int:
        return len(self.table)


_default_cache = IntersectionCache()


def default_cache() -> IntersectionCache:
    return _default_cache


# -- pure psi correlators ------------------------------------------------------


def psi_intersection(g: int, d: Iterable[int]) -> Fraction:
    """<tau_{d_1}...tau_{d_n}>_g with the 1/24 orbifold convention.

    The dimension constraint sum(d) = 3g-3+n is a strict precondition: a
    mismatch is a caller bug, not a zero.
    """
    idx = TauIndex(g, tuple(d))
    if 2 * idx.g - 2 + idx.n <= 0:
        raise UnstableError(f"unstable (g,n)=({idx.g},{idx.n})")
    if not idx.dimension_matched():
        raise DimensionMismatchError(
            f"sum(d)={sum(idx.d)} != 3g-3+n={3 * idx.g - 3 + idx.n} for {idx}"
        )
    return _psi(idx.g, idx.d)


def _psi_lenient(g: int, d: tuple[int, ...]) -> Fraction:
    """Internal: 0 for unstable or dimension-mismatched indices."""
    n = len(d)
    if g < 0 or n < 1 or 2 * g - 2 + n <= 0 or (g == 0 and n < 3):
        return Fraction(0)
    if sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    return _psi(g, tuple(sorted(d)))


def _psi(g: int, d: tuple[int, ...]) -> Fraction:
    key = (g, 0, d)
    got = _default_cache.get(key)
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
    return _default_cache.put(key, value)


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
    idx = KappaTauIndex(g, m, tuple(d))
    if 2 * idx.g - 2 + idx.n <= 0 or (idx.g == 0 and idx.n < 3) or idx.n < 1:
        raise UnstableError(f"unstable (g,n)=({idx.g},{idx.n})")
    if not idx.dimension_matched():
        raise DimensionMismatchError(
            f"m+sum(d)={idx.m + sum(idx.d)} != 3g-3+n={3 * idx.g - 3 + idx.n} for {idx}"
        )
    return _kappa_psi(idx.g, idx.m, idx.d)


def _kappa_psi(g: int, m: int, d: tuple[int, ...]) -> Fraction:
    if m == 0:
        return _psi(g, d)
    key = (g, m, d)
    got = _default_cache.get(key)
    if got is not None:
        return got
    total = Fraction(0)
    for j in range(m):
        sign = -1 if j % 2 else 1
        total += sign * comb(m - 1, j) * _kappa_psi(g, m - 1 - j, tuple(sorted(d + (j + 2,))))
    return _default_cache.put(key, total)
