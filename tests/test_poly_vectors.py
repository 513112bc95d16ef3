"""Numerator vectors against the dict kernel they replaced.

``DictPoly`` below is the former dict form of ``Poly`` -- integer numerators
in a dict keyed by exponent tuples, over one denominator, reduced by their
gcd -- with each operation written the plain way on that dict.  It shares no
code with ``wpvol.poly``.  Every operation of the vector kernel must give the
same denominator and numerators, the same printed text and the same JSON.
"""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpvol.poly as poly_module
from wpvol.errors import VariableRangeError
from wpvol.poly import PI_RING, Poly, PolyRing, angle_ring, poly_from_json_dict, poly_from_text

RING = PolyRing(("pi", "t1", "t2"))
EXT = PolyRing(("pi", "t1", "t2", "u"))


# -- the reference: the former dict kernel ------------------------------------------


def _merge(out, pairs):
    for e, c in pairs:
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


class DictPoly:
    """Numerators ``nums`` (nonzero ints by exponent tuple) over ``den > 0``,
    with gcd(den, *nums) == 1."""

    def __init__(self, ring, nums, den=1):
        g = gcd(den, *nums.values())
        self.ring = ring
        self.nums = {e: c // g for e, c in nums.items()}
        self.den = den // g

    @classmethod
    def of_terms(cls, ring, terms):
        den = lcm(*(F(c).denominator for c in terms.values()))
        nums = _merge({}, ((e, F(c).numerator * (den // F(c).denominator)) for e, c in terms.items()))
        return cls(ring, nums, den)

    def const(self, c):
        return DictPoly.of_terms(self.ring, {(0,) * self.ring.nvars: F(c)})

    def __eq__(self, other):
        return (self.ring, self.den, self.nums) == (other.ring, other.den, other.nums)

    def __add__(self, other):
        den = lcm(self.den, other.den)
        left = {e: c * (den // self.den) for e, c in self.nums.items()}
        return DictPoly(self.ring, _merge(left, ((e, c * (den // other.den)) for e, c in other.nums.items())), den)

    def __neg__(self):
        return DictPoly(self.ring, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, DictPoly):
            other = self.const(other)
        pairs = (
            (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.nums.items()
            for e2, c2 in other.nums.items()
        )
        return DictPoly(self.ring, _merge({}, pairs), self.den * other.den)

    def __pow__(self, k):
        out = self.const(1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, v):
        pairs = ((e[:v] + (e[v] - 1,) + e[v + 1 :], c * e[v]) for e, c in self.nums.items() if e[v])
        return DictPoly(self.ring, _merge({}, pairs), self.den)

    def subs(self, v, value):
        out = self.const(0)
        for e, c in self.nums.items():
            rest = DictPoly(self.ring, {e[:v] + (0,) + e[v + 1 :]: c}, self.den)
            out = out + rest * value ** e[v]
        return out

    def integrate_upper(self, t, upper):
        anti = {e[:t] + (e[t] + 1,) + e[t + 1 :]: F(c, self.den * (e[t] + 1)) for e, c in self.nums.items()}
        return DictPoly.of_terms(self.ring, anti).subs(t, upper)

    def compose(self, target, images):
        out = DictPoly(target, {}, 1)
        for e, c in self.nums.items():
            term = DictPoly(target, {(0,) * target.nvars: c}, self.den)
            for image, k in zip(images, e):
                term = term * image**k
            out = out + term
        return out

    def relabeled(self, target, positions):
        out = {}
        for e, c in self.nums.items():
            moved = [0] * target.nvars
            for i, p in enumerate(positions):
                moved[p] = e[i]
            out[tuple(moved)] = c
        return DictPoly(target, out, self.den)

    def drop_last_var(self):
        return DictPoly(PolyRing(self.ring.names[:-1]), {e[:-1]: c for e, c in self.nums.items()}, self.den)

    def evaluate_angles(self, angles):
        """``angles`` as (q, m), theta_j = q * pi^m."""
        out = {}
        for e, c in self.nums.items():
            value, m = F(c, self.den), e[0]
            for (q, mj), k in zip(angles, e[1:]):
                value *= q**k
                m += mj * k
            if value:
                out[(m,)] = out.get((m,), 0) + value
        return DictPoly.of_terms(PI_RING, {e: c for e, c in out.items() if c})

    def terms(self):
        return {e: F(c, self.den) for e, c in self.nums.items()}

    def __str__(self):
        if not self.nums:
            return "0"
        out = ""
        for e, c in sorted(self.terms().items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0]))):
            body = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(self.ring.names, e) if k)
            mag = abs(c)
            term = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
            out = (out + (" - " if c < 0 else " + ") + term) if out else ("-" + term if c < 0 else term)
        return out

    def to_json_dict(self):
        return {
            "vars": list(self.ring.names),
            "terms": [{"c": f"{c.numerator}/{c.denominator}", "e": list(e)} for e, c in sorted(self.terms().items())],
        }


# -- strategies ---------------------------------------------------------------------------

# small numerators, and some past 2^63, which no fixed-width integer holds
COEFFS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(2**63 - 2, 2**70).map(lambda k: F(k, 3)),
)


def term_dicts(nvars=3, max_exp=3, max_size=6):
    exps = st.tuples(*[st.integers(0, max_exp) for _ in range(nvars)])
    return st.dictionaries(exps, COEFFS, max_size=max_size)


def pair(terms, ring=RING):
    """The vector Poly and the reference of the same terms."""
    return Poly(ring, terms), DictPoly.of_terms(ring, terms)


def vectors_are_canonical(p):
    """The stored form: no vector ends in 0 or is empty, each fits its
    table, and gcd(den, *numerators) == 1."""
    g = p.den
    for d, vec in p._vecs.items():
        assert vec and vec[-1], (d, vec)
        assert len(vec) <= len(poly_module._tables[p.ring.nvars, d])
        g = gcd(g, *vec)
    assert g == 1 and p.den > 0


def same(p, ref):
    """``p`` equals the reference in every observable way."""
    vectors_are_canonical(p)
    assert p.ring == ref.ring
    assert (p.den, dict(p.nums)) == (ref.den, ref.nums)
    assert dict(p.terms.items()) == ref.terms() and p.terms == ref.terms()
    assert len(p.terms) == len(ref.nums) and set(p.terms) == set(ref.nums)
    assert sorted(p.nums.values()) == sorted(ref.nums.values())
    assert all(e in p.nums and p.nums[e] == c for e, c in ref.nums.items())
    assert str(p) == str(ref)
    assert p.to_json_dict() == ref.to_json_dict()
    assert poly_from_text(p.ring, str(p)) == p
    assert poly_from_json_dict(p.to_json_dict()) == p
    assert p.is_zero() == (not ref.nums)
    assert p.total_degree() == max(map(sum, ref.nums), default=-1)
    rebuilt = Poly(p.ring, ref.terms())
    assert rebuilt == p and hash(rebuilt) == hash(p)


# -- differential tests ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(term_dicts(), term_dicts(), COEFFS, st.integers(0, 3))
def test_arithmetic_matches_dict_kernel(a, b, c, k):
    (p, rp), (q, rq) = pair(a), pair(b)
    same(p, rp)
    same(p + q, rp + rq)
    same(p - q, rp - rq)
    same(-p, -rp)
    same(p * q, rp * rq)
    same(p * c, rp * c)
    same(c * p, rp * c)
    same(q**k, rq**k)
    same(p - p, rp - rp)
    assert (p + q == q + p) and hash(p + q) == hash(q + p)
    assert (p == q) == (rp == rq)


@settings(max_examples=60, deadline=None)
@given(term_dicts(), term_dicts(max_size=3), st.integers(1, 2), COEFFS)
def test_calculus_matches_dict_kernel(a, b, v, c):
    (p, rp), (value, rvalue) = pair(a), pair(b)
    same(p.diff(v), rp.diff(v))
    same(p.subs(v, value), rp.subs(v, rvalue))
    same(p.subs(v, c), rp.subs(v, rp.const(c)))
    bound, rbound = pair({e: x for e, x in b.items() if not e[2]})  # free of t2
    same(p.integrate_upper(2, bound), rp.integrate_upper(2, rbound))
    same(p.integrate_upper(v, F(3, 2)), rp.integrate_upper(v, rp.const(F(3, 2))))


@settings(max_examples=50, deadline=None)
@given(term_dicts(), term_dicts(nvars=5, max_exp=1, max_size=3), st.permutations([1, 2, 3, 4]))
def test_ring_moves_match_dict_kernel(a, b, perm):
    (p, rp) = pair(a)
    big = angle_ring(4)
    positions = [0, perm[0], perm[1]]
    same(p.relabeled(big, positions), rp.relabeled(big, positions))
    down = [RING.pi(), RING.var(1), RING.var(2), RING.zero()]  # u sent to 0
    same(p.relabeled(EXT, [0, 2, 1]).compose(RING, down), rp.relabeled(EXT, [0, 2, 1]).drop_last_var())
    x, rx = pair(b, big)
    images, rimages = [big.pi(), x, big.var(perm[2])], [DictPoly.of_terms(big, {(1, 0, 0, 0, 0): 1}), rx]
    rimages.append(DictPoly.of_terms(big, {tuple(int(i == perm[2]) for i in range(5)): 1}))
    same(p.compose(big, images), rp.compose(big, rimages))


ANGLES = st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=7), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(term_dicts(), ANGLES, ANGLES)
def test_evaluate_angles_matches_dict_kernel(a, x, y):
    p, rp = pair(a)
    values = [RING.monomial(q, (m, 0, 0)) for q, m in (x, y)]
    got = p.evaluate_angles(values)
    same(got, rp.evaluate_angles([x, y]))
    assert got == Poly._adopt(p.ring, p._vecs, p.den).evaluate_angles(values)  # a fresh plan


def test_sums_align_each_degree_to_its_own_table():
    """Polys of several degrees, each present in one operand only or in
    both, add degree by degree: a vector is never added to one of another
    table."""
    a = {(0, 1, 0): F(1, 2), (2, 0, 1): 3, (0, 0, 4): -1}
    b = {(1, 0, 0): 5, (0, 0, 3): F(-2, 3), (0, 3, 1): 1, (0, 0, 0): 7}
    (p, rp), (q, rq) = pair(a), pair(b)
    same(p + q, rp + rq)
    same(q - p, rq - rp)
    same(p + q - p, rq)


# -- the monomial tables ------------------------------------------------------------------


def test_intern_order_does_not_change_the_poly(monkeypatch):
    """One poly built in two rings whose tables interned its monomials in
    opposite orders: moved into each other's ring, the copies are equal,
    hash alike and have the other's vector, and equal polys built along
    different routes do too."""
    monkeypatch.setattr(poly_module, "_tables", {})
    monomials = [(1, 2, 0), (0, 3, 0), (0, 1, 2), (3, 0, 0), (0, 0, 3)]
    terms = {e: F(i + 1, 2) for i, e in enumerate(monomials)}
    forward = sum((RING.monomial(c, e) for e, c in terms.items()), RING.zero())
    backward = sum((EXT.monomial(c, e + (0,)) for e, c in reversed(terms.items())), EXT.zero())
    assert list(poly_module._tables[3, 3]) == monomials
    assert list(poly_module._tables[4, 3]) == [e + (0,) for e in reversed(monomials)]
    assert forward._vecs != backward._vecs
    down = backward.compose(RING, [RING.pi(), RING.var(1), RING.var(2), RING.zero()])
    up = forward.relabeled(EXT, [0, 1, 2])
    assert down == forward and hash(down) == hash(forward) and down._vecs == forward._vecs
    assert up == backward and hash(up) == hash(backward) and up._vecs == backward._vecs
    shuffled = Poly(RING, dict(reversed(terms.items())))
    assert shuffled == forward and hash(shuffled) == hash(forward)
    assert dict(down.terms) == dict(forward.terms) == terms


def test_poly_built_before_its_table_grows():
    """A poly keeps reading its own terms after the table it is aligned to
    interns monomials past the end of its vector, and sums that cancel
    those monomials again come back to the same vector."""
    ring = angle_ring(3)
    p = ring.monomial(F(2, 3), (0, 9, 8, 0)) - ring.monomial(5, (17, 0, 0, 0))
    table = poly_module._tables[4, 17]
    before, size = (p.den, dict(p.nums), dict(p.terms), hash(p), str(p)), len(table)
    q = sum((ring.monomial(k + 1, (k, 0, 0, 17 - k)) for k in range(18)), ring.zero())
    assert len(table) > size and list(table.values()) == list(range(len(table)))
    assert (p.den, dict(p.nums), dict(p.terms), hash(p), str(p)) == before
    back = (p + q) - q
    assert back == p and back._vecs == p._vecs and hash(back) == hash(p)
    assert len(back._vecs[17]) < len(table)  # trimmed, not padded to the table
    assert (p * 0).is_zero() and (p - p)._vecs == {} and (p - p).den == 1


def test_angles_are_read_from_one_entry():
    """``pi_multiple`` builds q * pi as a one-entry vector, which
    ``evaluate_angles`` reads as it reads any one-term Poly in pi."""
    ring = angle_ring(2)
    assert ring.pi_multiple(4, 6) == F(2, 3) * ring.pi() and ring.pi_multiple(4, 6)._vecs == {1: (2,)}
    assert ring.pi_multiple(0, 5).is_zero()
    assert poly_module._pi_multiple(ring, ring.pi_multiple(-3, 4)) == (-3, 4, 1)
    assert poly_module._pi_multiple(ring, ring.const(F(5, 2))) == (5, 2, 0)
    assert poly_module._pi_multiple(ring, F(1, 3) * ring.pi() ** 3) == (1, 3, 3)
    for bad in (ring.var(1), ring.pi() + 1, ring.pi() ** 2 + ring.pi() * ring.var(2), ring.pi() * ring.var(1)):
        with pytest.raises(VariableRangeError):
            poly_module._pi_multiple(ring, bad)
