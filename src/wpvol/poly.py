"""Multivariate polynomials over exact rationals with a formal pi.

A :class:`PolyRing` fixes an ordered variable list ``(pi, t1, ..., tn)`` and
optionally one trailing integration variable.  The symbol pi is always index 0
and is never treated numerically here; numeric evaluation lives in
:mod:`wpvol.numeric`.

A :class:`Poly` stores integer numerators over one common denominator
``den > 0`` as numerator vectors: for each total degree d it has (pi counted
as a variable), one tuple of ints aligned to the shared monomial table of
(number of variables, d), entry i the numerator of the table's i-th exponent
tuple and 0 where the poly has no such term.  A table is a plain dict from
exponent tuple to position: it interns the exponent tuples that polys
actually reach, gives a new one the next position and never removes one, so
its iteration order is its position order and a vector stays valid as its
table grows.  The form is canonical: ``gcd(den, *numerators) == 1``, no
vector ends in 0 and no degree is all zero, so equal polys have equal
vectors whatever order their monomials were interned in.  Polys are
immutable values compared by ring, denominator and vectors, and instances
can be shared freely.  All arithmetic runs on Python ints; ``Poly.nums`` (the
int numerators) and ``Poly.terms`` (the Fraction coefficients) are read-only
mappings of the nonzero entries keyed by exponent tuples, built afresh on
each read in table order.

Sums and differences add the vectors of each degree position by position,
one ``map(add)`` per degree.  ``relabeled`` scatters the nonzero entries
through the target table.  Every other operation reads the nonzero entries
as (exponents, numerator) pairs, merges coefficients in one place,
:func:`accumulate`, and interns its result.  Every product (``*``,
``**``, the power tables and per-term expansion of ``compose``, and the
Horner steps of ``subs`` and ``integrate_upper``) is one ``_mul_nums`` on
exponent-tuple keys: each term pair adds its exponent tuples and multiplies
its numerators, and ``accumulate`` merges the pairs that meet.  ``subs`` runs
Horner's rule over the parts of the poly by degree in the substituted
variable, so the value's powers are never formed.  The trusted constructor
:meth:`Poly.from_canonical` interns a numerator mapping and divides out the
one common gcd; ``Poly(ring, terms)`` puts rational ``terms`` over their lcm
first.
``evaluate_angles`` takes each angle as q * pi^m (a rational, zero, or a
one-term Poly in pi alone) and runs through the Poly's evaluation plan
(``_Plan``), built on its first call and kept with it: each angle monomial is
one angle times a monomial of the layer below, and the terms of one degree
and pi power are summed at once.  Plans are built from one shared index of
angle monomials per number of angles (``_Index``): each monomial a plan has
met gets an int id, with its parent's id, its angle and its degree, and
beside each monomial table a list gives the id of the angle part of each
table position, so a build reads its terms as ids and walks their parent
chains on ints.  The index and the lists only grow, as the tables do: a
list holds at most one entry per position of a table of a ring where a plan
was built, and the index the angle parts of those positions with their
parent chains.  The plan's one entry point,
``_Plan.evaluate``, works on integers alone (angle numerators A_j over one
B, and their pi powers) and returns {pi power: numerator}; ``pi_poly`` makes
that the canonical Poly, and point queries that want a number hand it to
:mod:`wpvol.numeric` without building a Poly.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, mul, neg
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import RingMismatchError, VariableRangeError
from .rationals import check_int, format_rat, rat

Scalar = Union[int, Fraction]
Nums = dict[tuple[int, ...], int]
Vectors = dict[int, tuple[int, ...]]


def accumulate(out: dict, pairs: Iterable[tuple[tuple[int, ...], Scalar]]) -> dict:
    """Add each (exponents, coefficient) pair into ``out``, dropping cancelled sums."""
    get, pop = out.get, out.pop
    for e, c in pairs:
        s = get(e, 0) + c
        if s:
            out[e] = s
        else:
            pop(e, None)
    return out


Table = dict[tuple[int, ...], int]

# The monomial table of (number of variables, degree): each exponent tuple
# interned so far, mapped to its position.  A new key gets len(table) and no
# key is ever removed, so iteration order is position order and a position,
# once given, never changes.
_tables: dict[tuple[int, int], Table] = {}


def _table(n: int, d: int) -> Table:
    """The monomial table of exponent tuples of length n and sum d.

    A table starts with the monomials it is certain to hold, in a fixed
    order: the one monomial of degree 0, or of one variable, and the n unit
    vectors of degree 1 in variable order, so that pi is always position 0.
    """
    table = _tables.get((n, d))
    if table is None:
        if d == 1:
            first = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        elif n == 1 or d == 0:
            first = [(d,) + (0,) * (n - 1)]
        else:
            first = []
        table = _tables[n, d] = {e: i for i, e in enumerate(first)}
    return table


def _vector(table: Table, keys: Sequence[tuple[int, ...]], vals: Iterable[int]) -> tuple[int, ...]:
    """The vector holding vals[i] at the position of keys[i] in ``table``, for
    distinct keys and nonzero vals, interning the keys not seen before."""
    pos = list(map(table.get, keys))
    if None in pos:
        for i, p in enumerate(pos):
            if p is None:
                pos[i] = table[keys[i]] = len(table)
    vec = [0] * (max(pos) + 1)
    for i, c in zip(pos, vals):
        vec[i] = c
    return tuple(vec)


def _vectors(n: int, keys: Sequence[tuple[int, ...]], vals: Iterable[int]) -> Vectors:
    """The vectors of nonzero numerators ``vals`` at distinct exponent tuples
    ``keys`` of length n, grouped by degree."""
    if not keys:
        return {}
    degrees = list(map(sum, keys))
    d = degrees[0]
    if degrees.count(d) == len(degrees):  # homogeneous: one vector
        return {d: _vector(_table(n, d), keys, vals)}
    groups: dict[int, tuple[list, list]] = {}
    for d, e, c in zip(degrees, keys, vals):
        group = groups.get(d)
        if group is None:
            group = groups[d] = ([], [])
        group[0].append(e)
        group[1].append(c)
    return {d: _vector(_table(n, d), *group) for d, group in groups.items()}


def _support(n: int, vecs: Vectors) -> tuple[list[tuple[int, ...]], list[int]]:
    """The exponent tuples and the numerators of the nonzero entries, aligned."""
    keys: list[tuple[int, ...]] = []
    vals: list[int] = []
    for d, vec in vecs.items():
        keys.extend(compress(_tables[n, d], vec))
        vals.extend(filter(None, vec))
    return keys, vals


def _combine(u: tuple[int, ...], fu: int, v: tuple[int, ...], fv: int) -> tuple[int, ...]:
    """fu * u + fv * v, position by position, without trailing zeros."""
    if len(u) < len(v):
        u, fu, v, fv = v, fv, u, fu
    su = map(mul, u, repeat(fu)) if fu != 1 else u
    sv = map(mul, v, repeat(fv)) if fv != 1 else v
    tail = u[len(v) :]
    s = tuple(chain(map(add, su, sv), map(mul, tail, repeat(fu)) if fu != 1 else tail))
    if s and not s[-1]:
        k = len(s) - 1
        while k and not s[k - 1]:
            k -= 1
        s = s[:k]
    return s


def _mul_nums(a: Nums, b: Nums) -> Nums:
    """Product of two numerator dicts keyed by exponent tuples: every term
    pair adds its exponents and multiplies its numerators, and ``accumulate``
    merges the products that meet at one key."""
    return accumulate(
        {}, ((tuple(map(add, ea, eb)), ca * cb) for eb, cb in b.items() for ea, ca in a.items())
    )


def _power_table(base: Nums, top: int, unit: tuple[int, ...]) -> list[Nums]:
    """``[base^0, ..., base^top]`` as numerator dicts."""
    table = [{unit: 1}]
    for _ in range(top):
        table.append(_mul_nums(table[-1], base))
    return table


def _exponents(exps: Iterable) -> tuple[int, ...]:
    """``exps`` as a tuple, once every entry is a non-negative int
    (``check_int``); raises ValueError otherwise, so nothing is truncated."""
    e = tuple(exps)
    for x in e:
        if check_int(x, "an exponent") < 0:
            raise ValueError(f"exponents must be non-negative ints: {e!r}")
    return e


@dataclass(frozen=True)
class PolyRing:
    """Ordered variable list; index 0 is always the formal symbol pi."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names or self.names[0] != "pi":
            raise ValueError("a PolyRing must start with the variable 'pi'")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly._adopt(self, {}, 1)

    def const(self, c: Scalar) -> "Poly":
        return self.monomial(c, (0,) * self.nvars)

    def one(self) -> "Poly":
        return self.const(1)

    def var(self, i: int) -> "Poly":
        if not 0 <= check_int(i, "a variable index") < self.nvars:
            raise VariableRangeError(f"variable index {i} out of range")
        _table(self.nvars, 1)  # variable i is position i of the degree-1 table
        return Poly._adopt(self, {1: (0,) * i + (1,)}, 1)

    def pi(self) -> "Poly":
        return self.var(0)

    def two_pi(self) -> "Poly":
        return self.pi_multiple(2)

    def pi_multiple(self, num: int, den: int = 1) -> "Poly":
        """num/den * pi, for ints num and den > 0, built directly: pi is
        position 0 of the degree-1 table."""
        if not num:
            return self.zero()
        g = gcd(num, den)
        _table(self.nvars, 1)
        return Poly._adopt(self, {1: (num // g,)}, den // g)

    def monomial(self, c: Scalar, exps: Sequence[int]) -> "Poly":
        if len(exps) != self.nvars:
            raise VariableRangeError("exponent vector has wrong length")
        e = _exponents(exps)
        c = rat(c)
        if c == 0:
            return self.zero()
        return Poly.from_canonical(self, {e: c.numerator}, c.denominator)


def angle_ring(n: int, extra: str | None = None) -> PolyRing:
    """Ring (pi, t1, ..., tn) with an optional trailing variable."""
    check_int(n, "the number of angles")
    names = ("pi",) + tuple(f"t{i}" for i in range(1, n + 1))
    if extra is not None:
        names = names + (extra,)
    return PolyRing(names)


PI_RING = PolyRing(("pi",))


class _Plan(NamedTuple):
    """How ``Poly.evaluate_angles`` evaluates one Poly; it depends on the
    Poly alone, which keeps it.

    The angle monomials evaluation needs are the downward closure of the
    poly's angle-exponent support under "remove one unit of the last nonzero
    variable", so each monomial but 1 is its parent times one angle.  Layer s
    holds the monomials of degree s, layer 0 the monomial 1 alone.  Layers 1
    to top, the largest angle degree, follow each other in ``parents`` and
    ``angles``, layer s ending at ``ends[s - 1]``: for each monomial, the
    position of its parent in the layer below and the index of its angle (0
    for t1).  ``groups`` holds (s, e0, numerators) for each angle degree s
    and pi exponent e0 of the terms, the numerators aligned to layer s (0
    where a monomial has no such term).  Each term adds at most its angle
    degree monomials, so the plan holds at most terms x degree of them
    besides 1, whatever the number of monomials of that degree.  ``_plan``
    builds it from the shared angle-monomial index (``_Index``), whose
    parent links are the ones above; the plan itself holds positions within
    its own layers, not index ids, so it stays valid as the index grows.
    """

    parents: array
    angles: array
    ends: tuple[int, ...]
    groups: tuple[tuple[int, int, tuple[int, ...]], ...]

    def layers(self, first, factors: Sequence, op: Callable) -> list[list]:
        """A value per monomial, layer by layer: ``first`` for 1, and
        op(the parent's value, factors[the angle]) for every other."""
        out = [[first]]
        parents, angles = memoryview(self.parents), memoryview(self.angles)
        start = 0
        for end in self.ends:
            below = map(out[-1].__getitem__, parents[start:end])
            out.append(list(map(op, below, map(factors.__getitem__, angles[start:end]))))
            start = end
        return out

    def evaluate(self, A: Sequence[int], B: int, shifts: Sequence[int]) -> dict[int, int]:
        """The poly at theta_j = A_j / B * pi^shifts[j], for ints A_j and
        B > 0, as {pi power: numerator} with no zero numerator, over
        den * B^top (den the poly's, top the largest angle degree).

        A term c * pi^e0 * prod theta_j^k_j of angle degree s gives the
        numerator c * prod A_j^k_j * B^(top - s) at pi^(e0 + sum shifts[j] k_j).
        The products prod A_j^k_j come layer by layer (``layers``); the
        terms of one (s, e0) are summed at once.  When the nonzero angles
        have unequal pi powers, the pi power of each monomial is built the
        same way and the group's terms merge by it.
        """
        vals = self.layers(1, A, mul)
        top = len(self.ends)
        moved = {m for a, m in zip(A, shifts) if a}  # the pi power of a zero angle is moot
        if len(moved) <= 1:
            m = moved.pop() if moved else 0
            pairs = (
                (e0 + m * s, sum(map(mul, coeffs, vals[s])) * B ** (top - s))
                for s, e0, coeffs in self.groups
            )
        else:
            powers = self.layers(0, shifts, add)
            pairs = (
                pair
                for s, e0, coeffs in self.groups
                for pair in zip(
                    map(e0.__add__, powers[s]),
                    map(mul, map(mul, coeffs, vals[s]), repeat(B ** (top - s))),
                )
            )
        return accumulate({}, pairs)


class _Index(NamedTuple):
    """The angle monomials in n angles that plan builds have met, by int id.

    ``ids`` maps each angle exponent tuple to its id; for each id,
    ``parents`` holds the id of its parent (one unit of its last nonzero
    angle removed), ``angles`` the index of that angle (0 for t1) and
    ``degrees`` its degree.  Id 0 is the monomial 1, its own parent, so a
    parent's id is always smaller than its child's.
    """

    ids: dict[tuple[int, ...], int]
    parents: list[int]
    angles: list[int]
    degrees: list[int]


# The angle-monomial index of each number of angles n.  It only grows, as
# the tables do, and an id enters ``ids`` only after its entries in the
# three lists exist.
_indexes: dict[int, _Index] = {}
# Beside the monomial table (n + 1, d): the index id of the angle part of
# each table position, as far as plan builds have read the table.  Table
# positions never change, so the list is only extended, never rewritten.
_table_ids: dict[tuple[int, int], list[int]] = {}


def _intern(index: _Index, k: tuple[int, ...]) -> int:
    """The id of the angle monomial k, interning it and the part of its
    parent chain not in the index yet."""
    ids = index.ids
    i = ids.get(k)
    chain = []
    while i is None:
        j = len(k) - 1
        while not k[j]:
            j -= 1
        chain.append((k, j))
        k = k[:j] + (k[j] - 1,) + k[j + 1 :]
        i = ids.get(k)
    for k, j in reversed(chain):
        parent, i = i, len(index.parents)
        index.parents.append(parent)
        index.angles.append(j)
        index.degrees.append(index.degrees[parent] + 1)
        ids[k] = i
    return i


def _angle_ids(index: _Index, n: int, d: int, size: int) -> list[int]:
    """The ids in ``index`` of the angle parts of the table (n + 1, d),
    extended to cover at least its first ``size`` positions."""
    ids = _table_ids.setdefault((n + 1, d), [])
    if len(ids) < size:
        ids.extend(_intern(index, e[1:]) for e in islice(_tables[n + 1, d], len(ids), size))
    return ids


def _plan(vecs: Vectors, n: int) -> _Plan:
    """The evaluation plan of the numerator vectors ``vecs`` in n angles.

    The terms are read as ids of the shared angle-monomial index
    (``_angle_ids`` beside each table, compressed by the vector), so no
    exponent tuple is sliced or hashed here.  Each term's parent chain is
    walked down on ids until it meets a monomial already placed, and the new
    monomials are placed on the way back up, so each monomial is visited
    once and nothing is sorted.
    """
    index = _indexes.get(n)
    if index is None:
        index = _indexes[n] = _Index({(0,) * n: 0}, [0], [0], [0])
    parent_of, angle_of, degree_of = index.parents, index.angles, index.degrees
    # (d, the ids of the terms of degree d, its vector); reading the ids
    # extends the index first, so ``where`` can cover every id
    support = [
        (d, list(compress(_angle_ids(index, n, d, len(vec)), vec)), vec) for d, vec in vecs.items()
    ]
    where = [-1] * len(parent_of)  # id -> position in its layer, -1 if not placed
    where[0] = 0
    parents: list[list[int]] = [[0]]  # layer 0: the monomial 1, whose entry is unused
    angles: list[list[int]] = [[0]]
    for _, ids, _ in support:
        for i in ids:
            if where[i] >= 0:
                continue
            chain = [i]
            i = parent_of[i]
            while where[i] < 0:
                chain.append(i)
                i = parent_of[i]
            pos = where[i]
            for i in reversed(chain):
                s = degree_of[i]
                if s == len(parents):
                    parents.append([])
                    angles.append([])
                layer = parents[s]
                layer.append(pos)
                angles[s].append(angle_of[i])
                pos = where[i] = len(layer) - 1
    groups = []
    for d, ids, vec in support:
        rows: dict[int, list[int]] = {}  # angle degree s -> the row of pi power d - s
        for i, c in zip(ids, filter(None, vec)):
            s = degree_of[i]
            row = rows.get(s)
            if row is None:
                row = rows[s] = [0] * len(parents[s])
            row[where[i]] = c
        groups.extend((s, d - s, tuple(row)) for s, row in rows.items())
    flat_parents, flat_angles, ends = array("I"), array("I"), []
    for layer, js in zip(parents[1:], angles[1:]):
        flat_parents.extend(layer)
        flat_angles.extend(js)
        ends.append(len(flat_parents))
    return _Plan(flat_parents, flat_angles, tuple(ends), tuple(groups))


_set = object.__setattr__


class Poly:
    """Immutable polynomial: a numerator vector per total degree, aligned to
    the shared monomial tables, over one denominator."""

    __slots__ = ("ring", "_vecs", "den", "_hash", "_plan")

    def __new__(cls, ring: PolyRing, terms: Mapping[tuple[int, ...], Scalar]):
        return _from_pairs(ring, terms.items())

    @classmethod
    def from_canonical(cls, ring: PolyRing, nums: Mapping[tuple[int, ...], int], den: int) -> "Poly":
        """Trusted constructor: the Poly with numerators ``nums`` (nonzero
        ints, keyed by exponent tuples of ring length) over ``den > 0``,
        interned into the monomial tables, after dividing out the common gcd
        of ``den`` and every numerator."""
        return cls._reduced(ring, _vectors(ring.nvars, list(nums), nums.values()), den)

    @classmethod
    def _reduced(cls, ring: PolyRing, vecs: Vectors, den: int) -> "Poly":
        """Adopt ``vecs`` (no vector empty or ending in 0) over ``den``,
        after dividing out the common gcd of ``den`` and every numerator."""
        g = den
        for vec in vecs.values():
            if g == 1:
                break
            g = gcd(g, *vec)
        if g != 1:
            vecs = {d: tuple(map(floordiv, vec, repeat(g))) for d, vec in vecs.items()}
            den //= g
        return cls._adopt(ring, vecs, den)

    @classmethod
    def _adopt(cls, ring: PolyRing, vecs: Vectors, den: int) -> "Poly":
        """Adopt ``vecs`` over ``den``, already in canonical form."""
        p = object.__new__(cls)
        _set(p, "ring", ring)
        _set(p, "_vecs", vecs)
        _set(p, "den", den)
        _set(p, "_hash", None)
        _set(p, "_plan", None)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    def _support(self) -> tuple[list[tuple[int, ...]], list[int]]:
        return _support(self.ring.nvars, self._vecs)

    @property
    def nums(self) -> MappingProxyType:
        """The nonzero integer numerators by exponent tuple, read-only; each
        coefficient is nums[e] / den."""
        return MappingProxyType(dict(zip(*self._support())))

    @property
    def terms(self) -> MappingProxyType:
        """The nonzero coefficients by exponent tuple, as Fractions, read-only."""
        keys, vals = self._support()
        return MappingProxyType(dict(zip(keys, map(Fraction, vals, repeat(self.den)))))

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal to a Poly of the same ring, or to an int or Fraction as a
        constant; anything else, a bool or a float included, is unequal."""
        if isinstance(other, Poly):
            return self.ring == other.ring and self.den == other.den and self._vecs == other._vecs
        if type(other) is int or isinstance(other, Fraction):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.den, frozenset(self._vecs.items())))
            _set(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._vecs)

    def is_zero(self) -> bool:
        return not self._vecs

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"ring mismatch: {self.ring.names} vs {other.ring.names}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, da // g  # da * fa == db * fb == lcm(da, db)
        a, b = self._vecs, other._vecs
        vecs = {}
        for d, u in a.items():
            s = _combine(u, fa, b.get(d, ()), fb)
            if s:
                vecs[d] = s
        for d, v in b.items():
            if d not in a:
                vecs[d] = _combine(v, fb, (), fa)
        return Poly._reduced(self.ring, vecs, da * fa)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        vecs = {d: tuple(map(neg, vec)) for d, vec in self._vecs.items()}
        return Poly._adopt(self.ring, vecs, self.den)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if type(other) is int or isinstance(other, Fraction):  # a bool reaches _coerce
            if other == 0:
                return self.ring.zero()
            q = other.numerator
            vecs = self._vecs
            if q != 1:
                vecs = {d: tuple(map(mul, vec, repeat(q))) for d, vec in vecs.items()}
            return Poly._reduced(self.ring, vecs, self.den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nums = _mul_nums(dict(zip(*self._support())), dict(zip(*other._support())))
        return Poly.from_canonical(self.ring, nums, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / rat(other))
        raise TypeError("Poly division is only defined by nonzero scalars")

    def __pow__(self, k: int) -> "Poly":
        if type(k) is not int or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        for _ in range(k):
            result = self * result
        return result

    # -- calculus ------------------------------------------------------------

    def diff(self, v: int) -> "Poly":
        """Formal partial derivative with respect to variable v (not pi)."""
        if not 1 <= check_int(v, "a variable index") < self.ring.nvars:
            raise VariableRangeError(f"cannot differentiate in variable index {v}")
        nums = {e[:v] + (e[v] - 1,) + e[v + 1 :]: c * e[v] for e, c in zip(*self._support()) if e[v]}
        return Poly.from_canonical(self.ring, nums, self.den)

    def subs(self, v: int, value: Union["Poly", Scalar]) -> "Poly":
        """Substitute variable v by a Poly or rational; exact composition.

        With value = N / d and K the degree in v, split this poly as
        sum_k P_k x_v^k, P_k free of x_v.  Horner's rule gives the numerator
        sum_k d^(K-k) * P_k * N^k over the common d^K: acc = P_K, then
        acc = acc * N + d^(K-k) * P_k for k = K-1 down to 0, each product
        one ``_mul_nums``.  N may involve x_v itself.
        """
        if not 0 <= check_int(v, "a variable index") < self.ring.nvars:
            raise VariableRangeError(f"variable index {v} out of range")
        if not isinstance(value, Poly):
            value = self.ring.const(value)
        if value.ring != self.ring:
            raise RingMismatchError("substitution value lives in a different ring")
        return _substitute(self.ring, *self._support(), self.den, v, value)

    def integrate_upper(self, t: int, upper: Union["Poly", Scalar]) -> "Poly":
        """Exact integral from 0 to ``upper`` in variable t.

        Computed as the formal antiderivative in t followed by substitution of
        the upper bound.  The bound must not involve t, except for the bound
        being exactly the variable t itself (symbolic upper limit).
        """
        if not 1 <= check_int(t, "a variable index") < self.ring.nvars:
            raise VariableRangeError(f"cannot integrate in variable index {t}")
        if not isinstance(upper, Poly):
            upper = self.ring.const(upper)
        if upper.ring != self.ring:
            raise RingMismatchError("upper bound lives in a different ring")
        keys, vals = self._support()
        scale = lcm(*{e[t] + 1 for e in keys})
        keys_up = [e[:t] + (e[t] + 1,) + e[t + 1 :] for e in keys]
        vals = [c * (scale // (e[t] + 1)) for e, c in zip(keys, vals)]
        den = self.den * scale
        if upper == self.ring.var(t):
            return Poly._reduced(self.ring, _vectors(self.ring.nvars, keys_up, vals), den)
        if upper.degree_in(t) > 0:
            raise VariableRangeError("upper bound involves the integration variable")
        return _substitute(self.ring, keys_up, vals, den, t, upper)

    # -- structure queries ----------------------------------------------------

    def total_degree(self) -> int:
        """Total degree counting pi as a degree-1 variable; zero poly has -1."""
        return max(self._vecs, default=-1)

    def degree_in(self, v: int) -> int:
        if not 0 <= check_int(v, "a variable index") < self.ring.nvars:
            raise VariableRangeError(f"variable index {v} out of range")
        return max(map(itemgetter(v), self._support()[0]), default=-1)

    def is_homogeneous(self, d: int) -> bool:
        return all(k == d for k in self._vecs)

    # -- ring moves -------------------------------------------------------------

    def compose(self, target: PolyRing, images: Sequence["Poly"]) -> "Poly":
        """Map this poly into ``target`` sending variable i to images[i].

        images[0] must be the target pi; this keeps pi formal through every
        change of variables.  Each term is expanded against integer power
        tables of the images, padded to the common denominator
        den * prod d_i^K_i (d_i the image denominators, K_i the degrees).
        """
        if len(images) != self.ring.nvars:
            raise VariableRangeError("need one image per source variable")
        for im in images:
            if im.ring != target:
                raise RingMismatchError("image polynomial in wrong ring")
        if images[0] != target.pi():
            raise ValueError("pi must map to pi")
        unit = (0,) * target.nvars
        tops = [max(self.degree_in(i), 0) for i in range(self.ring.nvars)]
        tables = [_power_table(dict(zip(*im._support())), top, unit) for im, top in zip(images, tops)]
        dens = [im.den for im in images]
        padded = any(d != 1 for d in dens)
        den = self.den
        for d, top in zip(dens, tops):
            den *= d**top

        def pairs():
            for e, c in zip(*self._support()):
                if padded:
                    for d, top, k in zip(dens, tops, e):
                        c *= d ** (top - k)
                partial = {unit: c}
                for table, k in zip(tables, e):
                    if k:
                        partial = _mul_nums(partial, table[k])
                yield from partial.items()

        return Poly.from_canonical(target, accumulate({}, pairs()), den)

    def relabeled(self, target: PolyRing, positions: Sequence[int]) -> "Poly":
        """Map this poly into ``target`` sending variable i to variable
        ``positions[i]``.

        ``positions[0]`` must be 0, so pi stays pi, and the positions must be
        distinct, so no two terms merge and no degree changes: the nonzero
        entries of each vector are scattered through the target table, with
        the numerators and ``den`` kept and no gcd taken.
        """
        if len(positions) != self.ring.nvars:
            raise VariableRangeError("need one position per source variable")
        if positions[0] != 0:
            raise ValueError("pi must map to pi")
        if len(set(positions)) != len(positions):
            raise ValueError(f"positions {tuple(positions)} are not distinct")
        if min(positions) < 0 or max(positions) >= target.nvars:
            raise VariableRangeError(f"positions {tuple(positions)} out of range for {target.names}")
        n, m = self.ring.nvars, target.nvars
        if m == 1:  # pi alone
            return Poly._adopt(target, self._vecs, self.den)
        source = [n] * m  # an unused target variable reads a padded 0
        for i, p in enumerate(positions):
            source[p] = i
        pick = itemgetter(*source)
        vecs = {}
        for d, vec in self._vecs.items():
            keys = compress(_tables[n, d], vec)
            if m > n:
                keys = map(add, keys, repeat((0,)))
            vecs[d] = _vector(_table(m, d), list(map(pick, keys)), filter(None, vec))
        return Poly._adopt(target, vecs, self.den)

    def evaluate_angles(self, values: Sequence[Union["Poly", Scalar]]) -> "Poly":
        """Substitute every angle variable; result is univariate in pi.

        ``values`` holds one entry per angle variable (indices 1..n), each
        theta_j = q_j * pi^m_j: a rational, zero, or a one-term Poly of this
        ring in pi alone; anything else raises VariableRangeError.  The q_j
        are put over one denominator B, q_j = A_j / B, and the integers
        A_j, B and m_j go through the evaluation plan (``_Plan.evaluate``,
        built on the first call and kept), whose {pi power: numerator} over
        den * B^top becomes the canonical Poly (``pi_poly``).
        """
        if len(values) != self.ring.nvars - 1:
            raise VariableRangeError(
                f"need {self.ring.nvars - 1} values, got {len(values)}"
            )
        angles = [_pi_multiple(self.ring, x) for x in values]
        B = lcm(*(b for _, b, _ in angles))
        plan = self._evaluation_plan()
        powers = plan.evaluate([a * (B // b) for a, b, _ in angles], B, [m for _, _, m in angles])
        return pi_poly(powers, self.den * B ** len(plan.ends))

    def _evaluation_plan(self) -> _Plan:
        """The evaluation plan of this Poly in its angle variables, built on
        the first call and kept."""
        plan = self._plan
        if plan is None:
            plan = _plan(self._vecs, self.ring.nvars - 1)
            _set(self, "_plan", plan)
        return plan

    # -- printing ---------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms sorted lexicographically by exponent vector (canonical order)."""
        return sorted(self.terms.items())

    def _render(
        self,
        factor: Callable[[str, int], str],
        coeff: Callable[[Fraction], str],
        sep: str,
    ) -> str:
        """Terms by descending degree, joined by their signs.

        ``factor(name, k)`` prints one variable power, ``coeff`` a positive
        coefficient; ``sep`` joins the coefficient and the factors.  A unit
        coefficient is omitted unless the term is constant.
        """
        if not self._vecs:
            return "0"
        out = ""
        for e, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0]))):
            body = sep.join(factor(name, k) for name, k in zip(self.ring.names, e) if k)
            mag = abs(c)
            if not body:
                term = coeff(mag)
            elif mag == 1:
                term = body
            else:
                term = coeff(mag) + sep + body
            if out:
                out += (" - " if c < 0 else " + ") + term
            else:
                out = "-" + term if c < 0 else term
        return out

    def __str__(self) -> str:
        return self._render(
            lambda name, k: name if k == 1 else f"{name}^{k}", str, "*"
        )

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_latex(self) -> str:
        """LaTeX with explicit powers of pi, in the display style of the fixtures."""
        def texname(name: str) -> str:
            if name == "pi":
                return "\\pi"
            if name.startswith("t") and name[1:].isdigit():
                return f"\\theta_{{{name[1:]}}}"
            head = name.rstrip("0123456789")
            tail = name[len(head):]
            return f"{head}_{{{tail}}}" if head and tail else name

        def factor(name: str, k: int) -> str:
            return texname(name) if k == 1 else f"{texname(name)}^{{{k}}}"

        def coeff(q: Fraction) -> str:
            if q.denominator == 1:
                return str(q.numerator)
            return f"\\frac{{{q.numerator}}}{{{q.denominator}}}"

        return self._render(factor, coeff, "")

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form: terms sorted lexicographically by exponents."""
        return {
            "vars": list(self.ring.names),
            "terms": [
                {"c": format_rat(c), "e": list(e)} for e, c in self.sorted_terms()
            ],
        }


def _substitute(
    ring: PolyRing, keys: list[tuple[int, ...]], vals: list[int], den: int, v: int, value: Poly
) -> Poly:
    """``Poly.subs`` of the numerators ``vals`` at exponents ``keys`` over
    ``den``, by Horner's rule."""
    top = max((e[v] for e in keys), default=0)
    parts: list[Nums] = [{} for _ in range(top + 1)]
    for e, c in zip(keys, vals):
        parts[e[v]][e[:v] + (0,) + e[v + 1 :]] = c
    value_nums = dict(zip(*value._support()))
    d = value.den
    acc, pad = parts[top], 1
    for part in reversed(parts[:top]):
        pad *= d
        scaled = ((e, c * pad) for e, c in part.items()) if pad != 1 else part.items()
        acc = accumulate(_mul_nums(acc, value_nums), scaled)
    return Poly._reduced(ring, _vectors(ring.nvars, list(acc), acc.values()), den * d**top)


def _from_pairs(ring: PolyRing, pairs: Iterable[tuple[tuple[int, ...], Scalar]]) -> Poly:
    """The Poly summing rational (exponents, coefficient) pairs, put over their lcm."""
    pairs = list(pairs)
    den = lcm(*(c.denominator for _, c in pairs))
    nums = ((e, c.numerator * (den // c.denominator)) for e, c in pairs)
    return Poly.from_canonical(ring, accumulate({}, nums), den)


def poly_from_text(ring: PolyRing, text: str) -> Poly:
    """Parse the canonical text form produced by str(poly)."""
    text = text.strip()
    if text == "0":
        return ring.zero()

    def pairs():
        for chunk in text.replace(" - ", " + -").split(" + "):
            chunk = chunk.strip()
            coeff = Fraction(-1 if chunk.startswith("-") else 1)
            exps = [0] * ring.nvars
            for piece in chunk.removeprefix("-").split("*"):
                piece = piece.strip()
                if "^" in piece:
                    name, _, k = piece.partition("^")
                    exps[ring.index(name)] += int(k)
                elif piece in ring.names:
                    exps[ring.index(piece)] += 1
                else:
                    coeff *= Fraction(piece)
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {chunk!r}")
            yield tuple(exps), coeff

    return _from_pairs(ring, pairs())


def poly_from_json_dict(data: Mapping) -> Poly:
    """Inverse of ``Poly.to_json_dict``; rejects repeated exponent vectors and
    any exponent that is not a non-negative int."""
    ring = PolyRing(tuple(data["vars"]))
    terms: dict[tuple[int, ...], Fraction] = {}
    for item in data["terms"]:
        e = _exponents(item["e"])
        if len(e) != ring.nvars:
            raise ValueError(f"exponent vector {e} does not fit vars {ring.names}")
        if e in terms:
            raise ValueError(f"exponent vector {e} appears twice")
        terms[e] = rat(item["c"])
    return Poly(ring, terms)


def _pi_multiple(ring: PolyRing, x: Union[Poly, Scalar]) -> tuple[int, int, int]:
    """(a, b, m) with x = a/b * pi^m, for x a rational or a Poly of ``ring``
    with at most one term, in pi alone; anything else raises VariableRangeError.

    For m <= 1 this reads one entry: position 0 of the tables of degree 0 and
    1 is the constant 1 and pi, so the vector of such an x has length 1."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator, 0
    if isinstance(x, Poly) and (x.ring is ring or x.ring == ring) and len(x._vecs) <= 1:
        if not x._vecs:
            return 0, 1, 0  # the zero Poly is 0 * pi^0
        ((m, vec),) = x._vecs.items()
        if m <= 1:
            if len(vec) == 1:
                return vec[0], x.den, m
        elif len(vec) - vec.count(0) == 1:
            i = _tables[ring.nvars, m].get((m,) + (0,) * (ring.nvars - 1))
            if i == len(vec) - 1:
                return vec[i], x.den, m
    raise VariableRangeError(f"angle value {x} is not a rational multiple of a power of pi")


def pi_poly(powers: Mapping[int, int], den: int) -> Poly:
    """The Poly in pi alone sum_m powers[m] / den * pi^m, for nonzero int
    numerators and den > 0, in canonical form."""
    for m in powers:
        _table(1, m)  # the one monomial pi^m, at position 0
    return Poly._reduced(PI_RING, {m: (c,) for m, c in powers.items()}, den)


def phi_form(ring: PolyRing, wall: Iterable[int]) -> Poly:
    """The linear form phi_S = sum_{j in S} theta_j - 2*pi*(|S|-1)."""
    wall = sorted(check_int(j, "a wall label") for j in wall)
    return sum((ring.var(j) for j in wall), ring.zero()) - (len(wall) - 1) * ring.two_pi()
