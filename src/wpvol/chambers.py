"""Hassett stability space combinatorics: walls, chambers, paths, hulls.

A chamber of D_{g,n} = {a in (0,1]^n : sum a_j > 2-2g} is encoded as the
order-preserving function C : P({1..n}) -> {0,1}, stored canonically as the
antichain of maximal light sets (the maximal J with |J| >= 2 and C(J) = 0).
C(J) = 1 means the points of J cannot collide, i.e. sum_{j in J} a_j > 1 on
the chamber.

A ``Chamber`` holds that antichain as label masks (label j is bit j-1), in
ascending order, and every chamber operation runs on them; ``light_max``,
the antichain as sorted label tuples, is a view.  The light closure (every
light set, as a 2^n-bit set of masks) is built only by the operations that
need it -- minimal heavy sets, desirability and orbit keys -- and kept in the
chamber.  The two steps of the volume path need none:

* the light sets of the quotient C/S are the light sets of C inside the
  complement of S, so its maximal light sets are the maximal sets of size
  >= 2 among M - S, over the maximal light sets M, with the labels left
  renumbered in order (``Chamber.quotient``);
* for a maximal light set S, the chamber above W_S has the other maximal
  light sets and the sets S - j, |S| > 2, that none of them contains
  (``Chamber._above``).

Realizability is decided by exact rational LP with slack maximization: the
open system {0 < a_j <= 1, sum_J a < 1 on light walls, sum_J a > 1 on heavy
walls, sum a > 2-2g} is feasible iff the maximized common margin is positive.
No floating point is involved anywhere.  For g >= 1 the sum condition holds
on the whole cube, so every D_{g,n} with g >= 1 has the walls, chambers and
witnesses of D_{1,n} (``_genus_class``); only the volumes depend on g.

All types are immutable values; module-level memo tables are idempotent, so
sharing between threads is safe.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Container, Iterable, Mapping, Optional

from .errors import (
    BoundExceededError,
    NoFlatHullError,
    NotComparableError,
    NotIncidentError,
    NotRealizableError,
    OnWallError,
    UnstableError,
)
from .lp import simplex_max
from .poly import Poly, PolyRing

# Bounds enumeration alone: realizability and the orbit tables hold at any n.
# n = 7 stays off.  With the bound raised to 7, the orbit search
# (``up_to_symmetry=True``) ends with 13 642 representatives of D_{0,7} in
# 85 s (18 684 LPs) and 28 262 of D_{1,7} in 163 s (35 791 LPs), where the
# D_{0,6} and D_{1,6} searches take about 0.5 s and 0.8 s; measured on a
# 2-core x86_64 machine with Python 3.11.7, the two n = 7 searches running
# side by side.  D_{g,6} for g >= 2 then takes none (``_genus_class``).
ENUMERATION_BOUND = 6


@dataclass(frozen=True)
class StabilitySpace:
    """The space D_{g,n} of stability conditions."""

    g: int
    n: int

    def __post_init__(self):
        if self.g < 0 or self.n < 1:
            raise UnstableError(f"bad (g,n)=({self.g},{self.n})")
        if 2 * self.g - 2 + self.n <= 0:
            raise UnstableError(f"unstable moduli problem (g,n)=({self.g},{self.n})")

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def subsets(self) -> list[frozenset[int]]:
        """Every label set of at least 2 elements, by size, then lexicographic."""
        return [frozenset(J) for r in range(2, self.n + 1) for J in itertools.combinations(self.labels, r)]


@dataclass(frozen=True, slots=True)
class WeightVector:
    """a in (0,1]^n with sum a_j > 2-2g; dual angles theta_j = 2 pi (1 - a_j).

    The integer form is computed once, at construction: ``den`` is the lcm
    of the weight denominators and ``nums`` the numerators over it, a_j =
    nums[j] / den.  Validation runs on it, and ``classify`` and point
    queries read it; equality, hashing and repr see ``space`` and ``a`` only.
    Slots, and numerators shared with ``a`` where a weight is already over
    ``den``, keep the integer form cheap in memory.
    """

    space: StabilitySpace
    a: tuple[Fraction, ...]
    den: int = field(init=False, repr=False, compare=False)
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(Fraction(x) for x in self.a)
        object.__setattr__(self, "a", a)
        if len(a) != self.space.n:
            raise ValueError("weight count does not match n")
        den = lcm(*(x.denominator for x in a))
        # a numerator already over den is the Fraction's own int, not a copy
        nums = tuple(
            x.numerator if x.denominator == den else x.numerator * (den // x.denominator) for x in a
        )
        self._check(nums, den)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def _check(self, nums: tuple[int, ...], den: int) -> None:
        """Validation on the integer form: 0 < a_j <= 1 and sum a_j > 2-2g."""
        for k in nums:
            if not 0 < k <= den:
                raise ValueError(f"weight {Fraction(k, den)} outside (0,1]")
        if sum(nums) <= (2 - 2 * self.space.g) * den:
            raise ValueError("total weight violates sum a_j > 2-2g")

    @classmethod
    def _from_ints(cls, space: StabilitySpace, nums: Iterable[int], den: int) -> "WeightVector":
        """The weight vector a_j = nums[j] / den, for den > 0: validated as
        by the constructor, then put over the least denominator, so ``den``,
        ``nums`` and ``a`` are those of ``WeightVector(space, a)``."""
        nums = tuple(nums)
        w = object.__new__(cls)
        object.__setattr__(w, "space", space)
        if len(nums) != space.n:
            raise ValueError("weight count does not match n")
        w._check(nums, den)
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(k // g for k in nums)
        object.__setattr__(w, "a", tuple(Fraction(k, den) for k in nums))
        object.__setattr__(w, "den", den)
        object.__setattr__(w, "nums", nums)
        return w

    def theta_values(self, ring: PolyRing) -> list[Poly]:
        """Angles theta_j = (2-2a_j)*pi as polynomials of ``ring``: the
        one-term Poly 2(den - nums[j])/den * pi, and zero for a_j = 1."""
        return [ring.pi_multiple(2 * (self.den - k), self.den) for k in self.nums]

    def permuted(self, perm: Mapping[int, int]) -> "WeightVector":
        """Relabel points: new weight at position perm[j] is a_j."""
        b = [Fraction(0)] * self.space.n
        for j, aj in enumerate(self.a, start=1):
            b[perm[j] - 1] = aj
        return WeightVector(self.space, tuple(b))


@dataclass(frozen=True)
class Wall:
    """W_J = {a : sum_{j in J} a_j = 1} for |J| >= 2."""

    space: StabilitySpace
    J: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "J", frozenset(self.J))
        if len(self.J) < 2 or not self.J <= set(self.space.labels):
            raise ValueError(f"invalid wall set {sorted(self.J)}")


# One object per space, for the spaces that chamber operations reach.
_space = functools.cache(StabilitySpace)


@functools.cache
def _label_set(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


def _mask(J: Iterable[int]) -> int:
    """The bitmask of a label set: label j is bit j-1."""
    m = 0
    for j in J:
        m |= 1 << (j - 1)
    return m


def _labels(m: int) -> tuple[int, ...]:
    """The ascending label tuple of a mask, the inverse of ``_mask``."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length())
        m ^= low
    return tuple(out)


def _maximal(masks: Iterable[int]) -> tuple[int, ...]:
    """The maximal members of size >= 2 of a family of masks, distinct and
    ascending.

    A proper superset is a larger mask, so in descending order a mask is
    maximal iff no maximal mask before it contains it.
    """
    out = []
    for a in sorted(set(masks), reverse=True):
        if not a & (a - 1):
            continue  # at most one label
        for b in out:
            if a & b == a:
                break
        else:
            out.append(a)
    out.reverse()
    return tuple(out)


def _compressed(masks: Iterable[int], drop: int) -> Iterable[int]:
    """``masks`` with the labels of the mask ``drop`` removed and the labels
    left renumbered 1, 2, ... in their order."""
    out = masks
    while drop:
        low = (1 << drop.bit_length() - 1) - 1  # the labels below the highest in drop
        out = [m & low | m >> 1 & ~low for m in out]
        drop &= low
    return out


class Chamber:
    """A chamber: the order-preserving C : P({1..n}) -> {0,1} whose maximal
    light sets (maximal J with |J| >= 2 and C(J) = 0) are the masks
    ``_masks``, ascending.

    ``light_max``, the same antichain as label tuples in lexicographic order,
    is a view of the masks.  Equality and the hash, computed once at
    construction, read ``space`` and the masks.  The light closure, every
    light set as a set of masks (``_light_closure``, 2^n bits), is built on
    the first call that needs it and kept.
    """

    __slots__ = ("space", "_masks", "_hash", "_light")

    def __new__(cls, space: StabilitySpace, light_max: Iterable[Iterable[int]]):
        masks = []
        for s in light_max:
            s = set(s)
            if len(s) < 2 or not s <= _label_set(space.n):
                raise ValueError(f"invalid light set {sorted(s)}")
            masks.append(_mask(s))
        return _adopt(space, _maximal(masks))

    def __setattr__(self, *_):
        raise AttributeError("Chamber is immutable")

    def __reduce__(self):
        return _adopt, (self.space, self._masks)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Chamber:
            return NotImplemented
        return self._masks == other._masks and self.space == other.space

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Chamber(space={self.space!r}, light_max={self.light_max!r})"

    @property
    def light_max(self) -> tuple[tuple[int, ...], ...]:
        """The maximal light sets as ascending label tuples, in lexicographic
        order."""
        return tuple(sorted(map(_labels, self._masks)))

    def _closure(self) -> int:
        """The light sets, as a set of masks (``_light_closure``)."""
        try:
            return self._light
        except AttributeError:  # not built yet
            light = _light_closure(self._masks, self.space.n)
            _set_light(self, light)
            return light

    def _is_light(self, m: int) -> bool:
        """C = 0 on the label mask ``m``."""
        return not m & (m - 1) or any(m & a == m for a in self._masks)

    def _wall_mask(self, S: Iterable[int], what: str) -> int:
        """The mask of a set S of two or more labels of the space; raises
        ValueError naming S otherwise."""
        S = set(S)
        if len(S) < 2 or not S <= _label_set(self.space.n):
            raise ValueError(f"invalid {what} set {sorted(S)}")
        return _mask(S)

    # -- the order-preserving function ----------------------------------------

    def value(self, J: Iterable[int]) -> int:
        """C(J): 0 if the points of J may collide, 1 otherwise."""
        return 0 if self._is_light(_mask(J)) else 1

    def heavy_min(self) -> list[frozenset[int]]:
        """Minimal heavy sets: heavy J whose proper subsets are all light, in
        ``space.subsets()`` order."""
        return [frozenset(_labels(m)) for m in self._heavy_masks()]

    def _heavy_masks(self) -> list[int]:
        """The masks of ``heavy_min``, in its order."""
        n = self.space.n
        return sorted(_minimal_heavy(self._closure(), n), key=_subset_order(n).__getitem__)

    # -- constructions ---------------------------------------------------------

    def cross(self, S: Iterable[int]) -> "Chamber":
        """Simple wall-crossing from above W_S to the chamber below."""
        s = self._wall_mask(S, "wall")
        labels = _labels(s)
        if self._is_light(s):
            raise NotIncidentError(f"chamber is not above W_{list(labels)}")
        if not all(self._is_light(s & ~(1 << (j - 1))) for j in labels):
            heavy = next(
                T
                for r in range(2, len(labels))
                for T in itertools.combinations(labels, r)
                if not self._is_light(_mask(T))
            )
            raise NotIncidentError(
                f"chamber is not incident to W_{list(labels)}: heavy proper subset {list(heavy)}"
            )
        below = _adopt(self.space, tuple(sorted([a for a in self._masks if a & ~s] + [s])))
        if not below.is_realizable():
            raise NotRealizableError(f"no weight vector below W_{list(labels)} from {self}")
        return below

    def uncross(self, S: Iterable[int]) -> "Chamber":
        """Inverse of ``cross``: the chamber above W_S, for S a maximal light set."""
        S = tuple(sorted(set(S)))
        if S not in map(_labels, self._masks):
            raise NotIncidentError(f"{list(S)} is not a maximal light set of {self}")
        above = self._above(_mask(S))
        if not above.is_realizable():
            raise NotRealizableError(f"no weight vector above W_{list(S)} from {self}")
        return above

    def _above(self, s: int) -> "Chamber":
        """The chamber above W_S for the mask ``s`` of a maximal light set S,
        not checked for realizability: the other maximal light sets, and the
        sets S - j that none of them contains (for |S| > 2)."""
        out = [a for a in self._masks if a != s]
        if s.bit_count() > 2:
            bits = s
            while bits:
                low = bits & -bits
                t = s ^ low
                for a in out:  # the sets S - j added so far contain no other
                    if t & a == t:
                        break
                else:
                    out.append(t)
                bits ^= low
        out.sort()
        return _adopt(self.space, tuple(out))

    def quotient(self, S: Iterable[int]) -> "Chamber":
        """Merge the points of S into one point, placed last.

        A set of the quotient meeting the merged point is heavy, so the light
        sets are those of C inside the complement of S, renumbered: the
        maximal ones are the maximal sets of size >= 2 among M - S for the
        maximal light sets M of C.
        """
        s = self._wall_mask(S, "quotient")
        n2 = self.space.n - s.bit_count() + 1
        if 2 * self.space.g - 2 + n2 <= 0:
            raise UnstableError(f"quotient space D_({self.space.g},{n2}) unstable")
        return _adopt(_space(self.space.g, n2), _maximal(_compressed(self._masks, s)))

    def restrict(self, T: Iterable[int]) -> "Chamber":
        """Forget the points outside T; result lives in D_{g,|T|}."""
        T = sorted(set(T))
        if not _label_set(self.space.n).issuperset(T):
            raise ValueError(f"invalid restriction set {T}")
        if 2 * self.space.g - 2 + len(T) <= 0:
            raise UnstableError(f"restricted space D_({self.space.g},{len(T)}) unstable")
        drop = (1 << self.space.n) - 1 & ~_mask(T)
        return _adopt(_space(self.space.g, len(T)), _maximal(_compressed(self._masks, drop)))

    def permuted(self, perm: Mapping[int, int]) -> "Chamber":
        return Chamber(self.space, [[perm[j] for j in _labels(m)] for m in self._masks])

    # -- flat / light coordinates ----------------------------------------------

    def q_set(self, i: int) -> frozenset[int]:
        """q(C) = {j != i : C({j,i}) = 1}, the pair walls crossed as theta_i -> 2pi."""
        return frozenset(_labels((1 << self.space.n) - 1 & ~self._partners(i)))

    def _partners(self, i: int) -> int:
        """The mask of i and every j with {i, j} light."""
        bit = 1 << (i - 1)
        out = bit
        for a in self._masks:
            if a & bit:
                out |= a
        return out

    def is_light(self, i: int) -> bool:
        """Empty contraction set: C(S)=0 implies C(S+{i})=0 for every S (any size)."""
        if self.q_set(i):
            return False
        return self.is_flat(i)

    def is_flat(self, i: int) -> bool:
        """Contraction sets of order <= 2 only: C(S)=0 => C(S+{i})=0 for |S| >= 2.

        A maximal light set M without i is such an S with S + {i} heavy, and
        every light S lies in some M, so this holds iff every M contains i.
        """
        bit = 1 << (i - 1)
        return all(a & bit for a in self._masks)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "g": self.space.g,
            "n": self.space.n,
            "light_max": [list(s) for s in self.light_max],
        }

    def __str__(self) -> str:
        sets = ",".join("{" + ",".join(map(str, s)) + "}" for s in self.light_max)
        return f"Chamber(g={self.space.g},n={self.space.n},light_max=[{sets}])"

    # -- realizability -------------------------------------------------------------

    def is_realizable(self) -> bool:
        return realize(self) is not None


# The slot setters, which bypass ``Chamber.__setattr__``.
_set_space, _set_masks, _set_hash, _set_light = (
    getattr(Chamber, name).__set__ for name in Chamber.__slots__
)


def _adopt(space: StabilitySpace, masks: tuple[int, ...]) -> Chamber:
    """The chamber whose maximal light sets are ``masks``, which are already
    ascending and an antichain of sets of size >= 2: built without the
    validation of ``Chamber(space, light_max)``."""
    c = object.__new__(Chamber)
    _set_space(c, space)
    _set_masks(c, masks)
    _set_hash(c, hash((space.g, space.n, masks)))
    return c


def _is_int(x) -> bool:
    """A JSON integer; JSON booleans parse to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def chamber_from_json_dict(data: Mapping, g: Optional[int] = None, n: Optional[int] = None) -> Chamber:
    light = data.get("light_max") if isinstance(data, Mapping) else None
    if not isinstance(light, list) or not all(
        isinstance(s, list) and all(_is_int(j) for j in s) for s in light
    ):
        raise ValueError('chamber JSON must be an object whose "light_max" is a list of label lists')
    genus = data.get("g", g)
    points = data.get("n", n)
    if not _is_int(genus) or not _is_int(points):
        raise ValueError("chamber JSON needs integer g and n (inline or from flags)")
    for name, value, flag in (("g", genus, g), ("n", points, n)):
        if flag is not None and value != flag:
            raise ValueError(f"chamber JSON has {name}={value}, but the flag gives {name}={flag}")
    return Chamber(StabilitySpace(genus, points), tuple(tuple(s) for s in light))


def main_chamber(space: StabilitySpace) -> Chamber:
    """C^M: every set heavy; its volume polynomial is Mirzakhani's."""
    return _adopt(space, ())


def light_chamber(space: StabilitySpace) -> Chamber:
    """C^L (g >= 1 only): every set light."""
    if space.g == 0:
        raise UnstableError("the all-light chamber is empty when g = 0")
    return _adopt(space, ((1 << space.n) - 1,) if space.n >= 2 else ())


def minimal_chamber_0(space: StabilitySpace, j: int) -> Chamber:
    """The genus-0 minimal chamber C_j: C_j(J)=1 iff {j} strictly inside J or J={j}^c."""
    if space.g != 0:
        raise ValueError("minimal_chamber_0 is a genus-0 construction")
    if j not in space.labels:
        raise ValueError(f"label {j} out of range")
    others = [x for x in space.labels if x != j]
    light = [
        tuple(sorted(c))
        for c in itertools.combinations(others, space.n - 2)
    ]
    if space.n == 3:
        light = []
    return Chamber(space, tuple(light))


# -- realizability LP -------------------------------------------------------------

Realization = tuple[tuple[Fraction, ...], Fraction]

_realize_cache: dict[Chamber, Optional[Realization]] = {}
# Relabeling the points maps chambers and their LPs to themselves, and every
# space of a genus class has the same LP, so the answer is one per S_n orbit
# of the class: keyed by (genus class, ``_sorted_key``), the LP solved on the
# chamber of the key (``_realize_key``), with its witness in the labels of
# that chamber, or None.
_realize_orbits: dict[tuple[StabilitySpace, tuple[int, ...]], Optional[Realization]] = {}


def _genus_class(space: StabilitySpace) -> StabilitySpace:
    """The space D_{min(g,1),n}, whose walls, chambers and realizability LPs
    are those of ``space``: for g >= 1, sum a > 2-2g follows from a_j > 0.
    D_{0,n} is its own class."""
    return space if space.g <= 1 else _space(1, space.n)


def realize(c: Chamber) -> Optional[Realization]:
    """(a, s): an interior witness a of maximal margin s > 0, or None.

    Memoized per chamber and per S_n orbit of the genus class
    (``_genus_class``), so a chamber of D_{g,n}, g >= 2, gets the witness of
    the same light antichain in D_{1,n}.  On a miss of the per-chamber table,
    a chamber whose desirability relation is not total (``_desirability``)
    is not realizable, with no LP.  Otherwise the orbit table, read under
    the class and the sorted key of ``c`` (``_sorted_key``), holds the LP
    solved once per orbit on the chamber of the key (``_realize_key``); its
    witness is relabeled to the labels of ``c`` and keeps its (maximal)
    margin.
    """
    got = _realize_cache.get(c, "miss")
    if got != "miss":
        return got
    got = None
    if (orbit := _sorted_key(c)) is not None:
        key, perm, _ = orbit  # label j of c is label perm[j-1] + 1 of the key
        canon = _realize_key(c.space, key)
        got = canon and (tuple(canon[0][p] for p in perm), canon[1])
    _realize_cache[c] = got
    return got


def _realize_key(space: StabilitySpace, key: tuple[int, ...]) -> Optional[Realization]:
    """The orbit-table entry of the sorted key ``key`` of a chamber of
    ``space``: the LP (``_solve``) of the chamber whose light antichain is
    ``key``, solved once per orbit of the genus class."""
    entry = (_genus_class(space), key)
    if entry not in _realize_orbits:
        _realize_orbits[entry] = _solve(_adopt(space, key))
    return _realize_orbits[entry]


def _moved(point: tuple[Fraction, ...], perm: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The weights of ``point`` relabeled by ``perm``: a_j moves to position
    perm[j-1] + 1, as label j does; a gather through the inverse of ``perm``."""
    return tuple(map(point.__getitem__, _inverse(perm)))


@functools.cache
def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse permutation of ``perm``."""
    inverse = [0] * len(perm)
    for j, p in enumerate(perm):
        inverse[p] = j
    return tuple(inverse)


def _solve(c: Chamber) -> Optional[Realization]:
    """The realizability LP of ``c``, solved afresh.

    Maximizes s subject to s <= a_j, a_j <= 1, sum_J a <= 1-s on maximal light
    sets, sum_J a >= 1+s on minimal heavy sets and sum a >= 2-2g+s with
    g replaced by min(g, 1), using the shifted variable sigma = s+3 >= 0 so
    the all-slack simplex basis is feasible.  The chamber is realizable iff
    the optimum has s > 0.  For s > 0 the last row holds at g >= 1 whatever
    g is (sum a >= ns >= s >= 2-2g+s), so the LP of the genus class
    (``_genus_class``) has the same positive optimum; taking it makes the
    witness one per class.  Every coefficient is 0 or +-1 and every
    right-hand side an integer, so the rows are the plain ints that
    ``simplex_max`` takes.  The heavy rows come in the order of
    ``Chamber.heavy_min``.
    """
    n = c.space.n
    g = min(c.space.g, 1)
    rows: list[list[int]] = []
    rhs: list[int] = []

    def row(avec: list[int], sigma: int, b: int) -> None:
        rows.append(avec + [sigma])
        rhs.append(b)

    for j in range(n):
        e = [0] * n
        e[j] = 1
        row(e, 0, 1)  # a_j <= 1
        e = [0] * n
        e[j] = -1
        row(e, 1, 3)  # a_j >= s
    for J in c.light_max:
        row([1 if j + 1 in J else 0 for j in range(n)], 1, 4)  # sum_J a <= 1 - s
    for m in c._heavy_masks():
        row([-(m >> j & 1) for j in range(n)], 1, 2)  # sum_J a >= 1 + s
    row([-1] * n, 1, 1 + 2 * g)  # sum a >= 2 - 2g + s
    objective = [0] * n + [1]
    value, x = simplex_max(objective, rows, rhs)
    slack = value - 3
    return (tuple(x[:n]), slack) if slack > 0 else None


@functools.cache
def _subset_order(n: int) -> tuple[int, ...]:
    """The position of each label mask in ``StabilitySpace.subsets()`` order
    (by size, then lexicographic), indexed by mask."""
    order = [0] * (1 << n)
    labels = range(1, n + 1)
    subsets = (J for r in range(2, n + 1) for J in itertools.combinations(labels, r))
    for position, J in enumerate(subsets):
        order[_mask(J)] = position
    return tuple(order)


def witness(c: Chamber) -> WeightVector:
    got = realize(c)
    if got is None:
        raise NotRealizableError(f"{c} is not realizable")
    den = lcm(*(x.denominator for x in got[0]))
    return WeightVector._from_ints(c.space, (x.numerator * (den // x.denominator) for x in got[0]), den)


# -- classification ---------------------------------------------------------------


# Turns a byte per mask, 0 or 1, into the binary digit of that mask.
_BINARY_DIGITS = bytes.maketrans(bytes((0, 1)), b"01")


def classify(w: WeightVector) -> Chamber:
    """The chamber containing w; exact, raises OnWallError on any wall, the
    first in ``space.subsets()`` order.

    Each subset sum of the integer form ``w.nums`` is compared with
    ``w.den``: the sums of the masks with highest label j are those of the
    masks below 2^(j-1) plus one weight.  The light sets form a set of
    masks, built in one pass from a byte per mask, and its maximal members
    of size >= 2 are the light antichain.
    """
    den, sums = w.den, [0]
    for k in w.nums:
        sums += [total + k for total in sums]
    if den in sums:
        walls = [m for m, total in enumerate(sums) if total == den and m & (m - 1)]
        if walls:
            order = _subset_order(w.space.n)
            raise OnWallError(frozenset(_labels(min(walls, key=order.__getitem__))))
    # bit m of light is set iff mask m is light
    light = int(bytes(map(den.__gt__, reversed(sums))).translate(_BINARY_DIGITS), 2)
    _, small, has, _ = _mask_sets(w.space.n)
    maximal = light & ~small
    for j, with_j in enumerate(has):
        maximal &= ~((light & with_j) >> (1 << j))  # a light set plus label j is light
    bits = f"{maximal:b}"[::-1]
    out = []
    m = bits.find("1")
    while m >= 0:
        out.append(m)
        m = bits.find("1", m + 1)
    return _adopt(w.space, tuple(out))


# -- crossing paths ----------------------------------------------------------------


@dataclass(frozen=True)
class CrossingPath:
    """Ordered simple wall-crossings, each from ``chamber`` down across ``wall``."""

    steps: tuple[tuple[Chamber, frozenset[int]], ...]
    end: Chamber

    def replay(self) -> Chamber:
        cur = self.steps[0][0] if self.steps else self.end
        for chamber, wall in self.steps:
            if chamber != cur:
                raise ValueError("inconsistent path")
            cur = chamber.cross(wall)
        return cur

    def walls(self) -> list[frozenset[int]]:
        return [w for _, w in self.steps]


def last_crossing(
    src: Chamber, dst: Chamber, known: Container[Chamber] = ()
) -> tuple[Chamber, frozenset[int]]:
    """The last simple crossing of a path from ``src`` down to ``dst``.

    Returns (above, S) with ``above.cross(S) == dst`` and ``above`` still
    below ``src``: S is a maximal light set of ``dst``, heavy in ``src``,
    whose uncrossing is realizable.  One exists whenever ``src`` lies
    strictly above ``dst``: the last wall a generic segment from ``src`` to
    ``dst`` crosses is such a set.  Candidates already known to be
    realizable, by the realizability memo or by membership in ``known``, are
    tried first and need no LP; when every realizable chamber is known (after
    ``enumerate_chambers``), S is the first realizable candidate in
    ``light_max`` order.
    """
    unknown = []
    for s in sorted(dst._masks, key=_labels):  # light_max order
        if not src._is_light(s):
            above = dst._above(s)
            if above in known or _realize_cache.get(above) is not None:
                return above, frozenset(_labels(s))
            unknown.append((above, s))
    for above, s in unknown:
        if above.is_realizable():
            return above, frozenset(_labels(s))
    raise NotComparableError(f"{src} does not lie strictly above {dst}")


def crossing_path(src: Chamber, dst: Chamber) -> CrossingPath:
    """A path of simple crossings from ``src`` down to ``dst``.

    Built from ``dst`` upward by ``last_crossing`` until ``src`` is reached,
    then reversed; each wall where the chambers differ is crossed exactly once
    and downward, and every intermediate chamber is realizable.
    """
    if src.space != dst.space:
        raise NotComparableError("chambers live in different spaces")
    if src == dst:
        return CrossingPath((), dst)
    # src lies above dst iff its light sets are light in dst; if not, the
    # first set in ``space.subsets()`` order that is not lies in one of ``bad``
    bad = [a for a in src._masks if not dst._is_light(a)]
    for r in range(2, src.space.n + 1) if bad else ():
        subsets = (T for a in bad for T in itertools.combinations(_labels(a), r))
        found = [T for T in subsets if not dst._is_light(_mask(T))]
        if found:
            raise NotComparableError(
                f"{list(min(found))} is light above but heavy below; chambers incomparable"
            )
    if not (src.is_realizable() and dst.is_realizable()):
        raise NotRealizableError("both endpoints must be realizable")
    steps = []
    cur = dst
    while cur != src:
        cur, S = last_crossing(src, cur)
        steps.append((cur, S))
    return CrossingPath(tuple(reversed(steps)), dst)


# -- hulls ---------------------------------------------------------------------------


def flat_hull(c: Chamber, i: int) -> Chamber:
    """The chamber below c reached by crossing only walls S+{i}, |S| >= 2,
    that is flat in i.  Exists iff no light S >= 2 meets q(C).

    Every light S avoiding i lies in M - {i} for a maximal light set M, so
    the maximal light sets of the hull are the maximal sets M + {i}.  A
    light S meeting q(C) makes S + {i} heavy; the first in
    ``space.subsets()`` order is a pair.
    """
    bit = 1 << (i - 1)
    far = (1 << c.space.n) - 1 & ~c._partners(i)  # q(C)
    pairs = (
        T
        for a in c._masks
        if a & far
        for T in itertools.combinations(_labels(a & ~bit), 2)
        if _mask(T) & far
    )
    S = min(pairs, default=None)
    if S is not None:
        raise NoFlatHullError(f"no flat hull in coordinate {i}: light set {list(S)} meets q(C)")
    hull = _adopt(c.space, _maximal(a | bit for a in c._masks))
    if not hull.is_realizable():
        raise NotRealizableError(f"flat hull of {c} in coordinate {i} is not realizable")
    return hull


def light_hull(c: Chamber, i: int) -> Chamber:
    """The chamber light in i below c, crossing only walls containing i: its
    maximal light sets are the maximal sets M + {i}, for M a maximal light
    set of c or a single label."""
    bit = 1 << (i - 1)
    singles = (1 << j for j in range(c.space.n))
    hull = _adopt(c.space, _maximal(a | bit for a in (*c._masks, *singles)))
    if not hull.is_realizable():
        raise NotRealizableError(f"light hull of {c} in coordinate {i} is not realizable")
    return hull


# -- enumeration ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Relabelings:
    """The S_n action on the light sets of D_{g,n}, as tables of ranks.

    The subsets of size >= 2 are ranked in sorted-label-tuple order, so a
    sorted tuple of ranks compares exactly as the light antichain it encodes.
    ``tables[k][mask]``, for a mask of size >= 2, is the rank of its image
    under the permutation ``perms[k]`` (label j goes to perms[k][j-1] + 1),
    and ``inversions[k]`` has bit i*n + j set, for labels i+1 < j+1, when
    ``perms[k]`` puts label i+1 after label j+1.
    """

    subsets: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]
    tables: tuple[tuple[int, ...], ...]
    inversions: tuple[int, ...]

    def relabeled(
        self, masks: Iterable[int], ks: Optional[Iterable[int]] = None
    ) -> list[tuple[int, ...]]:
        """The sorted rank tuple of the light antichain ``masks`` under the
        permutations ``perms[k]`` for k in ``ks`` (default: every one), in
        that order."""
        masks = list(masks)
        tables = self.tables if ks is None else map(self.tables.__getitem__, ks)
        return [tuple(sorted(map(t.__getitem__, masks))) for t in tables]

    def chamber(self, space: StabilitySpace, key: tuple[int, ...]) -> Chamber:
        """The chamber of a sorted rank tuple, whose light antichain is then
        already canonical."""
        if list(key) != sorted(key):
            raise ValueError(f"rank tuple {key} is not sorted")
        return _adopt(space, tuple(sorted(map(self.masks.__getitem__, key))))


@functools.cache
def _relabelings(n: int) -> _Relabelings:
    subsets = sorted(
        c for r in range(2, n + 1) for c in itertools.combinations(range(1, n + 1), r)
    )
    masks = tuple(map(_mask, subsets))
    rank = [0] * (1 << n)
    for r, m in enumerate(masks):
        rank[m] = r
    perms = tuple(itertools.permutations(range(n)))
    tables = tuple(
        tuple(rank[sum(1 << p[j] for j in range(n) if m >> j & 1)] for m in range(1 << n))
        for p in perms
    )
    inversions = tuple(
        sum(1 << (i * n + j) for i, j in itertools.combinations(range(n), 2) if p[i] > p[j])
        for p in perms
    )
    return _Relabelings(tuple(subsets), masks, perms, tables, inversions)


# A family of label masks is held as a set of masks: an int whose bit m is set
# when mask m belongs to it, so one shift moves every member at once.


@functools.cache
def _mask_sets(n: int) -> tuple[int, int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(all masks, masks of size <= 1, masks containing label j for each j,
    pairs) as sets of masks; ``pairs`` holds, for labels i < j, (i, j, the
    masks with i and without j, those with j and without i, 2^j - 2^i)."""
    every = (1 << (1 << n)) - 1
    small = 1 | sum(1 << (1 << j) for j in range(n))
    has = []
    for j in range(n):
        # the masks 2^j .. 2^(j+1) - 1, then the pattern doubled up to 2^n masks
        with_j, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while width < 1 << n:
            with_j |= with_j << width
            width <<= 1
        has.append(with_j)
    has = tuple(has)
    pairs = tuple(
        (i, j, has[i] & ~has[j], has[j] & ~has[i], (1 << j) - (1 << i))
        for i, j in itertools.combinations(range(n), 2)
    )
    return every, small, has, pairs


def _light_closure(light_max: Iterable[int], n: int) -> int:
    """The light sets of the chamber with light antichain ``light_max``
    (masks), as a set of masks: every subset of a maximal light set, and
    every set of size <= 1."""
    _, light, has, _ = _mask_sets(n)
    for a in light_max:
        light |= 1 << a
    for j, with_j in enumerate(has):
        light |= (light & with_j) >> (1 << j)  # drop label j from every light set
    return light


def _minimal_heavy(light: int, n: int) -> list[int]:
    """Minimal heavy sets, as ascending masks, of the chamber whose light sets
    are ``light`` (``_light_closure``): the heavy sets all of whose proper
    subsets are light, i.e. the walls ``Chamber.cross`` accepts."""
    every, _, has, _ = _mask_sets(n)
    heavy = every & ~light
    minimal = heavy
    for j, with_j in enumerate(has):
        minimal &= ~((heavy & ~with_j) << (1 << j))  # a heavy set plus label j
    out = []
    while minimal:
        low = minimal & -minimal
        out.append(low.bit_length() - 1)
        minimal ^= low
    return out


def _desirability(light: int, n: int) -> Optional[tuple[int, ...]]:
    """The desirability ranks of a chamber whose light sets are ``light``
    (``_light_closure``), or None if its desirability relation is not total.

    Label i is at least as desirable as j when J + {j} heavy implies J + {i}
    heavy for every J avoiding both.  A realizable chamber is a weighted
    threshold family, where a_i >= a_j makes i at least as desirable as j, so
    its relation is total (Isbell's desirability relation; Taylor-Zwicker,
    *Simple Games*, 1999).  The relation fails for i over j exactly when
    some light set M holds i and not j and M - i + j is heavy.  Rank k of the
    result, for label k + 1, counts the labels strictly more desirable; since
    the relation is a preorder, the labels of equal rank are its ties.

    Two tied labels are interchangeable: swapping them maps the chamber to
    itself.  So every relabeling that sorts the labels by rank, permuting
    only ties, gives the same image of the chamber, and that image is the
    same for every chamber of an orbit (``_sorted_key``).
    """
    heavy = ~light
    ranks = [0] * n
    for i, j, i_not_j, j_not_i, shift in _mask_sets(n)[3]:
        j_above = (light & i_not_j) << shift & heavy  # light M with i, M - i + j heavy
        i_above = (light & j_not_i) >> shift & heavy
        if j_above:
            if i_above:
                return None
            ranks[i] += 1
        elif i_above:
            ranks[j] += 1
    return tuple(ranks)


@functools.cache
def _sorting_permutation(ranks: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(perm, order): the permutation that sorts the labels by desirability
    rank, and ties by label (label j goes to perm[j-1] + 1), and its inverse."""
    order = tuple(sorted(range(len(ranks)), key=ranks.__getitem__))
    perm = [0] * len(ranks)
    for position, j in enumerate(order):
        perm[j] = position
    return tuple(perm), order


@functools.cache
def _mask_images(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The image of each label mask under ``perm`` (label j goes to
    perm[j-1] + 1), indexed by mask."""
    images = [0]
    for p in perm:
        images += [m | 1 << p for m in images]
    return tuple(images)


def _sorted_key(
    c: Chamber, merged_last: bool = False
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """(key, perm, order): the light antichain of ``c`` relabeled by
    ``_sorting_permutation`` as ascending masks, and that permutation and its
    inverse; None if the desirability relation of ``c`` is not total, so
    that ``c`` is not realizable.  Two chambers of a space share the key iff
    they lie in one S_n orbit (``_desirability``); it takes no n! relabel
    table, so it holds at any n.

    With ``merged_last`` the last label gets a rank of its own, above every
    other, so the permutation fixes it and the key is one per orbit of the
    relabelings that fix it: the ties that remain still fix the chamber.
    """
    n = c.space.n
    ranks = _desirability(c._closure(), n)
    if ranks is None:
        return None
    if merged_last:
        ranks = ranks[:-1] + (n,)  # no label has n labels above it
    return _sorted_masks(c._masks, ranks)


def _sorted_masks(
    masks: Iterable[int], ranks: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``_sorted_key`` of the light antichain ``masks`` with desirability
    ranks ``ranks``."""
    perm, order = _sorting_permutation(ranks)
    return tuple(sorted(map(_mask_images(perm).__getitem__, masks))), perm, order


@functools.cache
def _coset_relabelings(n: int, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """The indices k, ascending, of the permutations ``perms[k]`` that keep
    labels of equal desirability rank in order: one in each coset of the
    permutations of ties, and the first of it in ``perms`` order.  The
    permutations of ties are exactly those that fix a chamber with these
    ranks (relabeling preserves desirability), so relabeling it by these
    alone reaches each chamber of its orbit once, and by the first of all
    permutations that reach it."""
    tied = sum(
        1 << (i * n + j) for i, j in itertools.combinations(range(n), 2) if ranks[i] == ranks[j]
    )
    sym = _relabelings(n)
    return tuple(k for k, inversions in enumerate(sym.inversions) if not inversions & tied)


# A full list: the chambers and, in the same order, their witnesses.
_FullList = tuple[tuple[Chamber, ...], tuple[Realization, ...]]
# Per space: (representatives, the full list once it is asked for, or None).
_enum_cache: dict[StabilitySpace, tuple[tuple[Chamber, ...], Optional[_FullList]]] = {}


def enumerate_chambers(space: StabilitySpace, up_to_symmetry: bool = False) -> list[Chamber]:
    """All realizable chambers of D_{g,n}, in deterministic order.

    Every chamber lies below the main chamber and is reached from it by a
    downward path of simple crossings (``crossing_path``), and relabeling the
    points maps chambers, crossings and realizability LPs to themselves.  So
    a breadth-first search over S_n orbits, starting at C^M, enumerates the
    chamber decomposition exactly: every orbit representative is crossed at
    each of its minimal heavy sets.  A candidate below whose desirability
    relation is not total is not realizable and is dropped
    (``_desirability``).  The others are deduplicated by their sorted key
    (``_sorted_key``), one per orbit, and the realizability orbit table
    decides each key not seen before, with one LP.  Only a realizable one
    gets its canonical form, the smallest relabeled light antichain over all
    n! permutations; the permutations of ties fix the candidate, so it is
    taken over one permutation per coset of them (``_coset_relabelings``).
    Spaces with more than ENUMERATION_BOUND points raise BoundExceededError.

    The search runs once per genus class (``_genus_class``): D_{g,n} with
    g >= 2 takes the light antichains of D_{1,n}, representatives and full
    list alike, and each chamber of its full list enters the realizability
    memo with the witness that the full list of D_{1,n} holds for the same
    light antichain.  Each space keeps its own lists, so a repeated call
    costs no search.

    With ``up_to_symmetry``, returns the representatives, each in canonical
    form and ordered by light antichain; the full list is not built.  The
    full list is built on its first request: every representative relabeled
    by all n! permutations (again one per coset), ordered by (number of
    maximal light sets, light antichain).  Each of its chambers enters the
    realizability memo with its representative's witness relabeled, which
    has the same (maximal) margin, and each representative is the first
    chamber of its orbit in it.
    """
    if space.n > ENUMERATION_BOUND:
        raise BoundExceededError(f"n={space.n} exceeds enumeration bound {ENUMERATION_BOUND}")
    return list(_representatives(space) if up_to_symmetry else _full_list(space)[0])


def _representatives(space: StabilitySpace) -> tuple[Chamber, ...]:
    """The orbit representatives of ``space``, memoized; a space of genus
    g >= 2 moves those of its genus class."""
    got = _enum_cache.get(space)
    if got is None:
        cls = _genus_class(space)
        if space == cls:
            sym = _relabelings(space.n)
            reps = tuple(sym.chamber(space, key) for key in _search(space))
        else:
            reps = tuple(_adopt(space, c._masks) for c in _representatives(cls))
        got = _enum_cache[space] = (reps, None)
    return got[0]


def _full_list(space: StabilitySpace) -> _FullList:
    """The full list of ``space``, memoized; a space of genus g >= 2 moves
    that of its genus class and keeps its witnesses.  Fills the
    realizability memo."""
    reps = _representatives(space)
    every = _enum_cache[space][1]
    if every is None:
        cls = _genus_class(space)
        if space == cls:
            every = _expand(space, reps)
        else:
            chambers, witnesses = _full_list(cls)
            every = (tuple(_adopt(space, c._masks) for c in chambers), witnesses)
        for c, w in zip(*every):
            _realize_cache.setdefault(c, w)
        _enum_cache[space] = (reps, every)
    return every


def _search(space: StabilitySpace) -> list[tuple[int, ...]]:
    """The canonical forms of the orbits of realizable chambers of ``space``,
    sorted, found as described in ``enumerate_chambers``."""
    n = space.n
    sym = _relabelings(n)
    seen = set()  # sorted keys of the candidates: one per orbit
    found = []
    frontier: list[tuple[int, ...]] = [()]  # C^M: no light sets, its own canonical form
    while frontier:
        new_frontier = []
        for form in frontier:
            found.append(form)
            masks = [sym.masks[r] for r in form]
            light = _light_closure(masks, n)
            for S in _minimal_heavy(light, n):
                ranks = _desirability(light | 1 << S, n)
                if ranks is None:
                    continue
                below = [m for m in masks if m & ~S] + [S]
                key = _sorted_masks(below, ranks)[0]
                if key not in seen:
                    seen.add(key)
                    if _realize_key(space, key) is not None:
                        new_frontier.append(min(sym.relabeled(below, _coset_relabelings(n, ranks))))
        frontier = new_frontier
    return sorted(found)


def _expand(space: StabilitySpace, reps: Iterable[Chamber]) -> _FullList:
    """The full list of ``space`` from its orbit representatives, as described
    in ``enumerate_chambers``."""
    sym = _relabelings(space.n)
    witnesses = {}  # rank tuple -> (witness, slack)
    for rep in reps:
        ks = _coset_relabelings(space.n, _desirability(rep._closure(), space.n))
        point, slack = realize(rep)
        for k, image in zip(ks, sym.relabeled(rep._masks, ks)):
            witnesses[image] = (_moved(point, sym.perms[k]), slack)
    keys = sorted(witnesses, key=lambda k: (len(k), k))
    return tuple(sym.chamber(space, key) for key in keys), tuple(map(witnesses.__getitem__, keys))
