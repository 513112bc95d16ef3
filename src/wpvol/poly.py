"""Sparse multivariate polynomials over exact rationals with a formal pi.

A :class:`PolyRing` fixes an ordered variable list ``(pi, t1, ..., tn)`` and
optionally one trailing integration variable.  The symbol pi is always index 0
and is never treated numerically here; numeric evaluation lives in
:mod:`wpvol.numeric`.

A :class:`Poly` stores integer numerators over one common denominator: a map
``nums`` from exponent vectors to nonzero ints, and ``den > 0`` with
``gcd(den, *nums) == 1``.  This form is unique, so Polys are immutable values
compared by ring, denominator and numerators, and instances can be shared
freely.  All arithmetic runs on Python ints; ``Poly.terms`` is a read-only
``Mapping[tuple, Fraction]`` view that builds each ``Fraction`` on demand.

Coefficients are merged in one place, :func:`accumulate`, and every operation
makes one pass into one dict.  Products (``*``, ``**``, ``subs``) run on
packed exponent codes (``_codec``): each exponent tuple becomes one int with
a fixed-width digit per variable, wide enough for the largest exponent the
result can reach, so a monomial product is one int addition, applied to a
whole key list at once (``_mul_codes``), and keys are decoded to tuples once
at the end.  ``subs`` runs Horner's rule over the parts of the poly by degree
in the substituted variable, so the value's powers are never formed.  The
trusted constructor
:meth:`Poly.from_canonical` adopts a numerator dict without copying or
filtering it and divides out the one common gcd; ``Poly(ring, terms)`` puts
rational ``terms`` over their lcm first.  ``evaluate_angles`` takes each angle
as q * pi^m (a rational, zero, or a one-term Poly in pi alone) and runs
through the Poly's evaluation plan (``_Plan``), built on its first call and
kept with it: each angle monomial is one angle times a monomial of the layer
below, and the terms of one degree and pi power are summed at once.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import RingMismatchError, VariableRangeError
from .rationals import format_rat, rat

Scalar = Union[int, Fraction]
Nums = dict[tuple[int, ...], int]
Codec = tuple[Callable[[tuple[int, ...]], int], Callable[[int], tuple[int, ...]]]


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


def _top(nums: Nums) -> int:
    """The largest exponent of any variable in ``nums``; 0 when empty."""
    return max(map(max, nums)) if nums else 0


def _codec(n: int, bound: int) -> Codec:
    """(encode, decode) between exponent tuples of length n and packed int
    codes, one little-endian digit per variable.

    A digit has as many bytes as an exponent up to ``bound`` needs, so adding
    codes adds exponent tuples as long as no sum exceeds ``bound``: no carry
    crosses a digit.
    """
    return _packing(n, max(1, (bound.bit_length() + 7) // 8))


@cache
def _packing(n: int, w: int) -> Codec:
    """``_codec`` for digits of w bytes."""
    if w == 1:  # the codes of the general form below, through bytes() directly
        return (
            lambda e: int.from_bytes(bytes(e), "little"),
            lambda code: tuple(code.to_bytes(n, "little")),
        )
    size = n * w

    def decode(code: int) -> tuple[int, ...]:
        b = code.to_bytes(size, "little")
        return tuple(int.from_bytes(b[i : i + w], "little") for i in range(0, size, w))

    return (
        lambda e: int.from_bytes(b"".join(x.to_bytes(w, "little") for x in e), "little"),
        decode,
    )


def _mul_codes(keys: list[int], vals: list[int], rows: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Product of two numerator polys keyed by packed codes, one given as
    aligned ``keys`` and ``vals``, the other as (code, numerator) ``rows``:
    each row adds its code to all the keys at once."""
    out: dict[int, int] = {}
    for code, c in rows:
        row = zip(map(add, keys, repeat(code)), map(mul, vals, repeat(c)))
        if out:
            accumulate(out, row)
        else:  # one row has distinct keys and nonzero products: nothing merges
            out = dict(row)
    return out


def _mul_nums(a: Nums, b: Nums) -> Nums:
    """Product of two numerator dicts, on packed codes, with the larger one
    as the keys."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return {}
    encode, decode = _codec(len(next(iter(a))), _top(a) + _top(b))
    product = _mul_codes(list(map(encode, a)), list(a.values()), zip(map(encode, b), b.values()))
    return dict(zip(map(decode, product), product.values()))


def _power_table(base: Nums, top: int, unit: tuple[int, ...]) -> list[Nums]:
    """``[base^0, ..., base^top]`` as numerator dicts."""
    table = [{unit: 1}]
    for _ in range(top):
        table.append(_mul_nums(table[-1], base))
    return table


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
        return Poly.from_canonical(self, {}, 1)

    def const(self, c: Scalar) -> "Poly":
        return self.monomial(c, (0,) * self.nvars)

    def one(self) -> "Poly":
        return self.const(1)

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise VariableRangeError(f"variable index {i} out of range")
        e = [0] * self.nvars
        e[i] = 1
        return Poly.from_canonical(self, {tuple(e): 1}, 1)

    def pi(self) -> "Poly":
        return self.var(0)

    def two_pi(self) -> "Poly":
        return self.const(2) * self.var(0)

    def monomial(self, c: Scalar, exps: Sequence[int]) -> "Poly":
        if len(exps) != self.nvars:
            raise VariableRangeError("exponent vector has wrong length")
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {tuple(exps)}")
        c = rat(c)
        if c == 0:
            return self.zero()
        return Poly.from_canonical(self, {tuple(int(e) for e in exps): c.numerator}, c.denominator)


def angle_ring(n: int, extra: str | None = None) -> PolyRing:
    """Ring (pi, t1, ..., tn) with an optional trailing variable."""
    names = ("pi",) + tuple(f"t{i}" for i in range(1, n + 1))
    if extra is not None:
        names = names + (extra,)
    return PolyRing(names)


PI_RING = PolyRing(("pi",))


class Terms(Mapping):
    """Read-only view of a Poly as exponents -> Fraction; values are built on
    demand and not stored, so the view costs no memory per term."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: Nums, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, e: tuple[int, ...]) -> Fraction:
        return Fraction(self._nums[e], self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def __iter__(self):
        return iter(self._nums)

    def __contains__(self, e) -> bool:
        return e in self._nums


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
    besides 1, whatever the number of monomials of that degree.
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


def _plan(nums: Nums, n: int) -> _Plan:
    """The evaluation plan of the numerators ``nums`` in n angles.

    Each term's parent chain is walked down until it meets a monomial already
    placed, and the new monomials are placed on the way back up, so each
    monomial is visited once and nothing is sorted.
    """
    where = {(0,) * n: 0}  # monomial -> position in its layer
    parents: list[list[int]] = [[0]]  # layer 0: the monomial 1, whose entry is unused
    angles: list[list[int]] = [[0]]
    for e in nums:
        k = e[1:]
        chain = []
        while k not in where:
            j = n - 1
            while not k[j]:
                j -= 1
            chain.append((k, j))
            k = k[:j] + (k[j] - 1,) + k[j + 1 :]
        if chain:
            s, pos = sum(k), where[k]
            for k, j in reversed(chain):
                s += 1
                if s == len(parents):
                    parents.append([])
                    angles.append([])
                parents[s].append(pos)
                angles[s].append(j)
                pos = where[k] = len(parents[s]) - 1
    rows: dict[tuple[int, int], list[int]] = {}
    for e, c in nums.items():
        k = e[1:]
        s = sum(k)
        row = rows.get((s, e[0]))
        if row is None:
            row = rows[s, e[0]] = [0] * len(parents[s])
        row[where[k]] = c
    flat_parents, flat_angles, ends = array("I"), array("I"), []
    for layer, js in zip(parents[1:], angles[1:]):
        flat_parents.extend(layer)
        flat_angles.extend(js)
        ends.append(len(flat_parents))
    groups = tuple((s, e0, tuple(row)) for (s, e0), row in rows.items())
    return _Plan(flat_parents, flat_angles, tuple(ends), groups)


_set = object.__setattr__


class Poly:
    """Immutable sparse polynomial: integer numerators over one denominator."""

    __slots__ = ("ring", "_nums", "den", "_hash", "_plan")

    def __new__(cls, ring: PolyRing, terms: Mapping[tuple[int, ...], Scalar]):
        return _from_pairs(ring, terms.items())

    @classmethod
    def from_canonical(cls, ring: PolyRing, nums: Nums, den: int) -> "Poly":
        """Trusted constructor: adopt ``nums`` (nonzero ints, exponent tuples
        of ring length) over ``den > 0`` without copying or filtering it,
        after dividing out the common gcd of ``den`` and every numerator."""
        g = gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
        return cls._adopt(ring, nums, den)

    @classmethod
    def _adopt(cls, ring: PolyRing, nums: Nums, den: int) -> "Poly":
        """Adopt ``nums`` over ``den``, already in canonical form."""
        p = object.__new__(cls)
        _set(p, "ring", ring)
        _set(p, "_nums", nums)
        _set(p, "den", den)
        _set(p, "_hash", None)
        _set(p, "_plan", None)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @property
    def nums(self) -> Mapping[tuple[int, ...], int]:
        """The integer numerators, read-only; each coefficient is nums[e] / den."""
        return MappingProxyType(self._nums)

    @property
    def terms(self) -> Terms:
        return Terms(self._nums, self.den)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and self.den == other.den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            _set(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

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
        left = {e: c * fa for e, c in self._nums.items()} if fa != 1 else self._nums.copy()
        right = ((e, c * fb) for e, c in other._nums.items()) if fb != 1 else other._nums.items()
        return Poly.from_canonical(self.ring, accumulate(left, right), da * fa)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly.from_canonical(self.ring, {e: -c for e, c in self._nums.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring.zero()
            q = other.numerator
            nums = {e: c * q for e, c in self._nums.items()} if q != 1 else self._nums
            return Poly.from_canonical(self.ring, nums, self.den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nums = _mul_nums(self._nums, other._nums)
        return Poly.from_canonical(self.ring, nums, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / rat(other))
        raise TypeError("Poly division is only defined by nonzero scalars")

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        for _ in range(k):
            result = self * result
        return result

    # -- calculus ------------------------------------------------------------

    def diff(self, v: int) -> "Poly":
        """Formal partial derivative with respect to variable v (not pi)."""
        if not 1 <= v < self.ring.nvars:
            raise VariableRangeError(f"cannot differentiate in variable index {v}")
        nums = {e[:v] + (e[v] - 1,) + e[v + 1 :]: c * e[v] for e, c in self._nums.items() if e[v]}
        return Poly.from_canonical(self.ring, nums, self.den)

    def subs(self, v: int, value: Union["Poly", Scalar]) -> "Poly":
        """Substitute variable v by a Poly or rational; exact composition.

        With value = N / d and K the degree in v, split this poly as
        sum_k P_k x_v^k, P_k free of x_v.  Horner's rule gives the numerator
        sum_k d^(K-k) * P_k * N^k over the common d^K: acc = P_K, then
        acc = acc * N + d^(K-k) * P_k for k = K-1 down to 0.  The parts and N
        are keyed by packed exponent codes (``_codec``) with digits wide
        enough for every exponent of the result, so each product adds one
        int per term pair; the keys are decoded once, at the end.  N may
        involve x_v itself.
        """
        if not 0 <= v < self.ring.nvars:
            raise VariableRangeError(f"variable index {v} out of range")
        if not isinstance(value, Poly):
            value = self.ring.const(value)
        if value.ring != self.ring:
            raise RingMismatchError("substitution value lives in a different ring")
        n = self.ring.nvars
        top = max(self.degree_in(v), 0)
        # the value is encoded even at degree 0, hence max(top, 1)
        encode, decode = _codec(n, _top(self._nums) + max(top, 1) * _top(value._nums))
        unit = encode(tuple(int(i == v) for i in range(n)))  # the code of x_v
        parts: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for e, c in self._nums.items():
            k = e[v]
            parts[k][encode(e) - k * unit] = c
        value_codes = list(zip(map(encode, value._nums), value._nums.values()))
        d = value.den
        acc, pad = parts[top], 1
        for part in reversed(parts[:top]):
            pad *= d
            scaled = ((e, c * pad) for e, c in part.items()) if pad != 1 else part.items()
            acc = accumulate(_mul_codes(list(acc), list(acc.values()), value_codes), scaled)
        nums = dict(zip(map(decode, acc), acc.values()))
        return Poly.from_canonical(self.ring, nums, self.den * d**top)

    def integrate_upper(self, t: int, upper: Union["Poly", Scalar]) -> "Poly":
        """Exact integral from 0 to ``upper`` in variable t.

        Computed as the formal antiderivative in t followed by substitution of
        the upper bound.  The bound must not involve t, except for the bound
        being exactly the variable t itself (symbolic upper limit).
        """
        if not 1 <= t < self.ring.nvars:
            raise VariableRangeError(f"cannot integrate in variable index {t}")
        if not isinstance(upper, Poly):
            upper = self.ring.const(upper)
        if upper.ring != self.ring:
            raise RingMismatchError("upper bound lives in a different ring")
        nums = self._nums.items()
        scale = lcm(*{e[t] + 1 for e in self._nums})
        antiderivative = Poly.from_canonical(
            self.ring,
            {e[:t] + (e[t] + 1,) + e[t + 1 :]: c * (scale // (e[t] + 1)) for e, c in nums},
            self.den * scale,
        )
        if upper == self.ring.var(t):
            return antiderivative
        if any(e[t] for e in upper._nums):
            raise VariableRangeError("upper bound involves the integration variable")
        return antiderivative.subs(t, upper)

    # -- structure queries ----------------------------------------------------

    def total_degree(self) -> int:
        """Total degree counting pi as a degree-1 variable; zero poly has -1."""
        if not self._nums:
            return -1
        return max(sum(e) for e in self._nums)

    def degree_in(self, v: int) -> int:
        if not self._nums:
            return -1
        return max(e[v] for e in self._nums)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) == d for e in self._nums)

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
        tables = [_power_table(im._nums, top, unit) for im, top in zip(images, tops)]
        dens = [im.den for im in images]
        padded = any(d != 1 for d in dens)
        den = self.den
        for d, top in zip(dens, tops):
            den *= d**top

        def pairs():
            for e, c in self._nums.items():
                if padded:
                    for d, top, k in zip(dens, tops, e):
                        c *= d ** (top - k)
                partial = [(unit, c)]
                for table, k in zip(tables, e):
                    if k:
                        factor = table[k].items()
                        partial = [
                            (tuple(map(add, pe, fe)), pc * fc)
                            for pe, pc in partial
                            for fe, fc in factor
                        ]
                yield from partial

        return Poly.from_canonical(target, accumulate({}, pairs()), den)

    def relabeled(self, target: PolyRing, positions: Sequence[int]) -> "Poly":
        """Map this poly into ``target`` sending variable i to variable
        ``positions[i]``.

        ``positions[0]`` must be 0, so pi stays pi, and the positions must be
        distinct, so no two terms merge: one pass over the exponent tuples,
        with the numerators and ``den`` kept and no gcd taken.
        """
        if len(positions) != self.ring.nvars:
            raise VariableRangeError("need one position per source variable")
        if positions[0] != 0:
            raise ValueError("pi must map to pi")
        if len(set(positions)) != len(positions):
            raise ValueError(f"positions {tuple(positions)} are not distinct")
        if min(positions) < 0 or max(positions) >= target.nvars:
            raise VariableRangeError(f"positions {tuple(positions)} out of range for {target.names}")
        if target.nvars == 1:  # pi alone
            return Poly._adopt(target, self._nums, self.den)
        source = [self.ring.nvars] * target.nvars  # an unused target variable reads a padded 0
        for i, p in enumerate(positions):
            source[p] = i
        pick = itemgetter(*source)
        pad = (0,) if target.nvars > self.ring.nvars else ()
        return Poly._adopt(target, {pick(e + pad): c for e, c in self._nums.items()}, self.den)

    def drop_last_var(self) -> "Poly":
        """Project into the ring without the trailing variable (must be unused)."""
        if self.degree_in(self.ring.nvars - 1) > 0:
            raise VariableRangeError("polynomial still involves the last variable")
        ring = PolyRing(self.ring.names[:-1])
        return Poly.from_canonical(ring, {e[:-1]: c for e, c in self._nums.items()}, self.den)

    def evaluate_angles(self, values: Sequence[Union["Poly", Scalar]]) -> "Poly":
        """Substitute every angle variable; result is univariate in pi.

        ``values`` holds one entry per angle variable (indices 1..n), each
        theta_j = q_j * pi^m_j: a rational, zero, or a one-term Poly of this
        ring in pi alone; anything else raises VariableRangeError.  With the
        q_j over one denominator B, q_j = A_j / B, and K the largest angle
        degree, a term c * pi^e0 * prod theta_j^k_j of angle degree s gives
        the numerator c * prod A_j^k_j * B^(K - s) at pi^(e0 + sum m_j k_j),
        over the common den * B^K.

        The products prod A_j^k_j come layer by layer from the poly's
        evaluation plan (``_Plan``, built on the first call and kept), each
        monomial one angle times a monomial of the layer below; the terms of
        one (s, e0) are summed at once.  When the nonzero angles have unequal
        pi powers, the pi power of each monomial is built the same way and
        the group's terms merge by it.
        """
        if len(values) != self.ring.nvars - 1:
            raise VariableRangeError(
                f"need {self.ring.nvars - 1} values, got {len(values)}"
            )
        angles = [_pi_multiple(self.ring, x) for x in values]
        plan = self._plan
        if plan is None:
            plan = _plan(self._nums, self.ring.nvars - 1)
            _set(self, "_plan", plan)
        B = lcm(*(b for _, b, _ in angles))
        A = [a * (B // b) for a, b, _ in angles]
        vals = plan.layers(1, A, mul)
        top = len(plan.ends)  # the largest angle degree
        shifts = {m for a, _, m in angles if a}  # the pi power of a zero angle is moot
        if len(shifts) <= 1:
            m = shifts.pop() if shifts else 0
            pairs = (
                (e0 + m * s, sum(map(mul, coeffs, vals[s])) * B ** (top - s))
                for s, e0, coeffs in plan.groups
            )
        else:
            powers = plan.layers(0, [m for _, _, m in angles], add)
            pairs = (
                pair
                for s, e0, coeffs in plan.groups
                for pair in zip(
                    map(e0.__add__, powers[s]),
                    map(mul, map(mul, coeffs, vals[s]), repeat(B ** (top - s))),
                )
            )
        nums = {(m,): c for m, c in accumulate({}, pairs).items()}
        return Poly.from_canonical(PI_RING, nums, self.den * B**top)

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
        if not self._nums:
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
    """Inverse of ``Poly.to_json_dict``; rejects repeated and negative exponents."""
    ring = PolyRing(tuple(data["vars"]))
    terms: dict[tuple[int, ...], Fraction] = {}
    for item in data["terms"]:
        e = tuple(int(x) for x in item["e"])
        if len(e) != ring.nvars or min(e) < 0:
            raise ValueError(f"exponent vector {e} does not fit vars {ring.names}")
        if e in terms:
            raise ValueError(f"exponent vector {e} appears twice")
        terms[e] = rat(item["c"])
    return Poly(ring, terms)


def _pi_multiple(ring: PolyRing, x: Union[Poly, Scalar]) -> tuple[int, int, int]:
    """(a, b, m) with x = a/b * pi^m, for x a rational or a Poly of ``ring``
    with at most one term, in pi alone; anything else raises VariableRangeError."""
    if isinstance(x, (int, Fraction)):
        x = ring.const(x)
    if isinstance(x, Poly) and x.ring == ring and len(x._nums) <= 1:
        # the zero Poly is 0 * pi^0
        ((e, a),) = x._nums.items() or (((0,) * ring.nvars, 0),)
        if not any(e[1:]):
            return a, x.den, e[0]
    raise VariableRangeError(f"angle value {x} is not a rational multiple of a power of pi")


def phi_form(ring: PolyRing, wall: Iterable[int]) -> Poly:
    """The linear form phi_S = sum_{j in S} theta_j - 2*pi*(|S|-1)."""
    wall = sorted(wall)
    return sum((ring.var(j) for j in wall), ring.zero()) - (len(wall) - 1) * ring.two_pi()
