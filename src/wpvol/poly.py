"""Sparse multivariate polynomials over exact rationals with a formal pi.

A :class:`PolyRing` fixes an ordered variable list ``(pi, t1, ..., tn)`` and
optionally one trailing integration variable.  The symbol pi is always index 0
and is never treated numerically here; numeric evaluation lives in
:mod:`wpvol.numeric`.

A :class:`Poly` is a map from exponent vectors to nonzero Fraction
coefficients.  Polys are immutable values in canonical form (no stored zeros,
exponent tuples of ring length), so equality is plain term-map equality and
instances can be shared freely; ``Poly.terms`` is a read-only view.

Coefficients are merged in one place, :func:`accumulate`, and every operation
makes one pass into one dict.  ``Poly(ring, terms)`` is ``accumulate`` over
``terms``; the trusted constructor :meth:`Poly.from_canonical` adopts a
canonical dict without copying or filtering it.  ``evaluate_angles`` takes
each angle as q * pi^m (a rational, zero, or a one-term Poly in pi alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import RingMismatchError, VariableRangeError
from .rationals import format_rat, rat

Scalar = Union[int, Fraction]
Terms = dict[tuple[int, ...], Fraction]


def accumulate(out: Terms, pairs: Iterable[tuple[tuple[int, ...], Fraction]]) -> Terms:
    """Add each (exponents, coefficient) pair into ``out``, dropping cancelled sums."""
    get, pop = out.get, out.pop
    for e, c in pairs:
        s = get(e, 0) + c
        if s:
            out[e] = s
        else:
            pop(e, None)
    return out


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
        return Poly.from_canonical(self, {})

    def const(self, c: Scalar) -> "Poly":
        c = rat(c)
        if c == 0:
            return self.zero()
        return Poly.from_canonical(self, {(0,) * self.nvars: c})

    def one(self) -> "Poly":
        return self.const(1)

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise VariableRangeError(f"variable index {i} out of range")
        e = [0] * self.nvars
        e[i] = 1
        return Poly.from_canonical(self, {tuple(e): Fraction(1)})

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
        return Poly.from_canonical(self, {tuple(int(e) for e in exps): c})


def angle_ring(n: int, extra: str | None = None) -> PolyRing:
    """Ring (pi, t1, ..., tn) with an optional trailing variable."""
    names = ("pi",) + tuple(f"t{i}" for i in range(1, n + 1))
    if extra is not None:
        names = names + (extra,)
    return PolyRing(names)


PI_RING = PolyRing(("pi",))


class Poly:
    """Immutable sparse polynomial over Fraction."""

    __slots__ = ("ring", "terms", "_hash")

    def __new__(cls, ring: PolyRing, terms: Mapping[tuple[int, ...], Fraction]):
        return cls.from_canonical(ring, accumulate({}, terms.items()))

    @classmethod
    def from_canonical(cls, ring: PolyRing, terms: Terms) -> "Poly":
        """Trusted constructor: adopt ``terms`` (nonzero coefficients, exponent
        tuples of ring length) without copying or filtering it."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", MappingProxyType(terms))
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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
        return Poly.from_canonical(self.ring, accumulate(self.terms.copy(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly.from_canonical(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            if q == 0:
                return self.ring.zero()
            return Poly.from_canonical(self.ring, {e: c * q for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        right = other.terms.items()
        pairs = (
            (tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in right
        )
        return Poly.from_canonical(self.ring, accumulate({}, pairs))

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
        terms = self.terms.items()
        return Poly.from_canonical(
            self.ring, {e[:v] + (e[v] - 1,) + e[v + 1 :]: c * e[v] for e, c in terms if e[v]}
        )

    def subs(self, v: int, value: Union["Poly", Scalar]) -> "Poly":
        """Substitute variable v by a Poly or rational; exact composition."""
        if not 0 <= v < self.ring.nvars:
            raise VariableRangeError(f"variable index {v} out of range")
        if not isinstance(value, Poly):
            value = self.ring.const(value)
        if value.ring != self.ring:
            raise RingMismatchError("substitution value lives in a different ring")
        powers: list[Poly] = [self.ring.one()]

        def pairs():
            for e, c in self.terms.items():
                k = e[v]
                while len(powers) <= k:
                    powers.append(powers[-1] * value)
                rest = e[:v] + (0,) + e[v + 1 :]
                for pe, pc in powers[k].terms.items():
                    yield tuple(map(add, rest, pe)), c * pc

        return Poly.from_canonical(self.ring, accumulate({}, pairs()))

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
        terms = self.terms.items()
        antiderivative = Poly.from_canonical(
            self.ring, {e[:t] + (e[t] + 1,) + e[t + 1 :]: c / (e[t] + 1) for e, c in terms}
        )
        if upper == self.ring.var(t):
            return antiderivative
        if any(e[t] for e in upper.terms):
            raise VariableRangeError("upper bound involves the integration variable")
        return antiderivative.subs(t, upper)

    # -- structure queries ----------------------------------------------------

    def total_degree(self) -> int:
        """Total degree counting pi as a degree-1 variable; zero poly has -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) == d for e in self.terms)

    # -- ring moves -------------------------------------------------------------

    def compose(self, target: PolyRing, images: Sequence["Poly"]) -> "Poly":
        """Map this poly into ``target`` sending variable i to images[i].

        images[0] must be the target pi; this keeps pi formal through every
        change of variables.
        """
        if len(images) != self.ring.nvars:
            raise VariableRangeError("need one image per source variable")
        for im in images:
            if im.ring != target:
                raise RingMismatchError("image polynomial in wrong ring")
        if images[0] != target.pi():
            raise ValueError("pi must map to pi")
        powers = [[target.one(), im] for im in images]

        def pairs():
            for e, c in self.terms.items():
                m = target.const(c)
                for i, k in enumerate(e):
                    if k:
                        p = powers[i]
                        while len(p) <= k:
                            p.append(p[-1] * images[i])
                        m = m * p[k]
                yield from m.terms.items()

        return Poly.from_canonical(target, accumulate({}, pairs()))

    def drop_last_var(self) -> "Poly":
        """Project into the ring without the trailing variable (must be unused)."""
        if self.degree_in(self.ring.nvars - 1) > 0:
            raise VariableRangeError("polynomial still involves the last variable")
        ring = PolyRing(self.ring.names[:-1])
        return Poly.from_canonical(ring, {e[:-1]: c for e, c in self.terms.items()})

    def evaluate_angles(self, values: Sequence[Union["Poly", Scalar]]) -> "Poly":
        """Substitute every angle variable; result is univariate in pi.

        ``values`` holds one entry per angle variable (indices 1..n), each
        theta_j = q_j * pi^m_j: a rational, zero, or a one-term Poly of this
        ring in pi alone; anything else raises VariableRangeError.  Each term
        c * pi^e0 * prod theta_j^k_j gives c * prod q_j^k_j * pi^(e0 + sum m_j k_j).
        """
        if len(values) != self.ring.nvars - 1:
            raise VariableRangeError(
                f"need {self.ring.nvars - 1} values, got {len(values)}"
            )
        angles = [_pi_multiple(self.ring, x) for x in values]

        def pairs():
            for e, c in self.terms.items():
                num, den, m = c.numerator, c.denominator, e[0]
                for (a, b, mj), k in zip(angles, e[1:]):
                    if k:
                        num, den, m = num * a**k, den * b**k, m + mj * k
                yield (m,), Fraction(num, den)

        return Poly.from_canonical(PI_RING, accumulate({}, pairs()))

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
        if not self.terms:
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

    return Poly.from_canonical(ring, accumulate({}, pairs()))


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
    if isinstance(x, Poly) and x.ring == ring and len(x.terms) <= 1:
        # the zero Poly is 0 * pi^0
        ((e, q),) = x.terms.items() or (((0,) * ring.nvars, Fraction(0)),)
        if not any(e[1:]):
            return q.numerator, q.denominator, e[0]
    raise VariableRangeError(f"angle value {x} is not a rational multiple of a power of pi")


def phi_form(ring: PolyRing, wall: Iterable[int]) -> Poly:
    """The linear form phi_S = sum_{j in S} theta_j - 2*pi*(|S|-1)."""
    wall = sorted(wall)
    return sum((ring.var(j) for j in wall), ring.zero()) - (len(wall) - 1) * ring.two_pi()
