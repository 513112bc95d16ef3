"""Exact polynomial algebra: arithmetic, calculus, serialization."""

import json
import random
import time
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import product
from math import factorial, gcd, lcm
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpvol
from wpvol import poly as poly_module
from wpvol import reference as ref
from wpvol.chambers import (
    StabilitySpace,
    chamber_from_json_dict,
    enumerate_chambers,
    light_chamber,
    main_chamber,
)
from wpvol.errors import RingMismatchError, VariableRangeError
from wpvol.intersection import kappa_psi_intersection
from wpvol.numeric import _GUARD, evaluate_pi_numerators, evaluate_pi_poly, pi_decimal
from wpvol.poly import (
    PI_RING,
    Poly,
    PolyRing,
    _pi_multiple,
    _Plan,
    accumulate,
    angle_ring,
    phi_form,
    pi_poly,
    poly_from_json_dict,
    poly_from_text,
)
from wpvol.volumes import (
    _compositions,
    chamber_volume,
    cp1n_chamber,
    cp1n_volume,
    dilaton_check,
    losev_manin_chamber,
    losev_manin_volume,
    minimal_chamber_volume_closed,
    mirzakhani_volume,
)

R2 = angle_ring(2)
R4 = angle_ring(4)


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(("t1", "pi"))
    with pytest.raises(ValueError):
        PolyRing(("pi", "t1", "t1"))


def test_difference_of_squares():
    t1, t2 = R2.var(1), R2.var(2)
    assert (t1 + t2) * (t1 - t2) == t1**2 - t2**2


def test_expand_two_pi_product():
    r = R4
    t3, t4 = r.var(3), r.var(4)
    twopi = r.two_pi()
    expanded = (twopi - t3) * (twopi - t4)
    assert expanded == 4 * r.pi() ** 2 - twopi * t3 - twopi * t4 + t3 * t4


def test_subtraction_normalizes_to_empty():
    p = 3 * R2.var(1) ** 2 - R2.var(2) + R2.const(F(5, 7))
    assert (p - p).terms == {}
    assert (p - p).is_zero()


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        R2.var(1) + R4.var(1)


def test_pow_and_scalar_ops():
    t = R2.var(1)
    assert t**0 == R2.one()
    assert (2 * t) ** 3 == 8 * t**3
    assert (t / 2) * 2 == t
    with pytest.raises(ValueError):
        t ** (-1)


def test_differentiate_basic():
    t1, t2 = R2.var(1), R2.var(2)
    assert (t1 * t2**2).diff(2) == 2 * t1 * t2
    assert R2.const(7).diff(1).is_zero()
    with pytest.raises(VariableRangeError):
        t1.diff(0)  # pi is not differentiable here


def test_differentiate_c1vol_in_theta4():
    r = R4
    t1, t2, t3, t4 = (r.var(i) for i in range(1, 5))
    twopi = r.two_pi()
    c1vol = -t1**2 / 2 - t2**2 / 2 + (twopi - t3) * (twopi - t4)
    assert c1vol.diff(4) == -(twopi - t3)


def test_substitute_examples():
    r = R4
    t3, t4 = r.var(3), r.var(4)
    twopi = r.two_pi()
    assert ((twopi - t3) * (twopi - t4)).subs(4, twopi).is_zero()
    # t -> theta3 + theta4 - 2 pi in t^2/2
    ext = angle_ring(4, extra="t")
    t = ext.var(5)
    target = ext.var(3) + ext.var(4) - ext.two_pi()
    assert (t * t / 2).subs(5, target) == target**2 / 2
    # theta -> 0 in (4 pi^2 - theta^2)/48
    r1 = angle_ring(1)
    v11 = (4 * r1.pi() ** 2 - r1.var(1) ** 2) / 48
    assert v11.subs(1, 0) == r1.pi() ** 2 / 12


def test_substitute_identity_is_noop():
    p = 2 * R2.pi() ** 2 - R2.var(1) ** 2 / 2 + R2.var(1) * R2.var(2)
    assert p.subs(1, R2.var(1)) == p


def test_integrate_upper_examples():
    ext = angle_ring(1, extra="t")
    t, phi = ext.var(2), ext.var(1)
    assert t.integrate_upper(2, phi) == phi**2 / 2
    integrand = (4 * ext.pi() ** 2 * t - t**3) / 48
    assert integrand.integrate_upper(2, phi) == phi**2 * (8 * ext.pi() ** 2 - phi**2) / 192
    assert ((phi**2 - t**2) * t).integrate_upper(2, phi) == phi**4 / 4


def test_integrate_upper_symbolic_bound_is_antiderivative():
    ext = angle_ring(1, extra="t")
    t = ext.var(2)
    p = 3 * t**2 + ext.var(1) * t
    assert p.integrate_upper(2, t).diff(2) == p


def test_integrate_upper_rejects_bound_involving_t():
    ext = angle_ring(1, extra="t")
    t = ext.var(2)
    with pytest.raises(VariableRangeError):
        t.integrate_upper(2, t + 1)


def test_evaluate_c0vol_at_zero():
    r = R4
    c0 = 2 * r.pi() ** 2 - sum((r.var(j) ** 2 for j in range(1, 5)), r.zero()) / 2
    value = c0.evaluate_angles([F(0)] * 4)
    assert value == 2 * PI_RING.pi() ** 2
    with pytest.raises(VariableRangeError):
        c0.evaluate_angles([F(0)] * 3)  # wrong arity


def test_evaluate_v11_at_two_pi_vanishes():
    r1 = angle_ring(1)
    v11 = (4 * r1.pi() ** 2 - r1.var(1) ** 2) / 48
    assert v11.subs(1, r1.two_pi()).is_zero()
    assert v11.evaluate_angles([r1.two_pi()]).is_zero()


def test_phi_form():
    r = R4
    phi = phi_form(r, {3, 4})
    assert phi == r.var(3) + r.var(4) - r.two_pi()
    assert phi_form(r, {1, 2, 3}) == r.var(1) + r.var(2) + r.var(3) - 2 * r.two_pi()


def test_compose_keeps_pi_formal():
    src = angle_ring(1)
    dst = angle_ring(2)
    p = src.pi() * src.var(1)
    q = p.compose(dst, [dst.pi(), dst.var(2) ** 2])
    assert q == dst.pi() * dst.var(2) ** 2
    with pytest.raises(ValueError):
        p.compose(dst, [dst.var(1), dst.var(2)])


def test_json_round_trip_bit_exact():
    p = 2 * R2.pi() ** 2 - R2.var(1) ** 2 / 2 + F(3, 7) * R2.var(1) * R2.var(2)
    data = p.to_json_dict()
    assert data["vars"] == ["pi", "t1", "t2"]
    exps = [tuple(item["e"]) for item in data["terms"]]
    assert exps == sorted(exps)
    assert all("/" in item["c"] for item in data["terms"])
    assert poly_from_json_dict(data) == p
    assert poly_from_json_dict(p.to_json_dict()).to_json_dict() == data


def test_rat_rejects_exponent_notation():
    """Fraction would expand "1e1000000" into a million digits; rat refuses it.
    A float or a bool is refused whatever its value: str() used to pass 0.5
    and fail 1e-7, and True read as 1."""
    from decimal import Decimal

    from wpvol.rationals import rat

    for value in ("1e1000000", "2E3", "1/2e5", " 1e-9 ", 0.5, 0.1, 1e-7, 2.0, True, False, Decimal("0.5"), None):
        with pytest.raises(ValueError):
            rat(value)
    assert rat(" 3/4 ") == F(3, 4) and rat("0.25") == F(1, 4) and rat(-3) == F(-3) and rat(F(2, 6)) == F(1, 3)
    with pytest.raises(ValueError):
        R2.const(0.5)


def test_bool_is_not_a_scalar():
    """Every operator refuses a bool, as ``rat`` does, where it takes an int
    or a Fraction: nothing reads True as 1.  ``==`` never raises, so a bool
    or a float is only unequal."""
    t1 = R2.var(1)
    for op in (
        lambda: t1 + True,
        lambda: True + t1,
        lambda: t1 - True,
        lambda: True - t1,
        lambda: t1 * True,
        lambda: False * t1,
        lambda: t1 / True,
        lambda: t1**True,
        lambda: t1**1.0,
    ):
        with pytest.raises(ValueError):
            op()
    assert (t1 == True) is False and (True == t1) is False and (t1 == 0.5) is False
    assert t1 != True and R2.one() != True and R2.zero() != False
    assert R2.one() == 1 and R2.zero() == 0 and R2.const(F(1, 2)) == F(1, 2)
    assert t1 * 1 == t1 and t1**1 == t1 and t1 + 0 == t1 and t1 / 1 == t1


def test_text_round_trip():
    candidates = [
        R2.zero(),
        R2.one(),
        -R2.one() / 3,
        2 * R2.pi() ** 2 - R2.var(1) ** 2 / 2,
        (R2.var(1) + R2.var(2) - R2.two_pi()) ** 3,
        -R2.var(1) * R2.var(2),
    ]
    for p in candidates:
        assert poly_from_text(R2, str(p)) == p


def test_latex_printer():
    r = angle_ring(1)
    v11 = (4 * r.pi() ** 2 - r.var(1) ** 2) / 48
    tex = v11.to_latex()
    assert "\\pi" in tex and "\\theta_{1}" in tex and "\\frac{1}{12}" in tex


def test_total_degree_counts_pi():
    assert (2 * R2.pi() ** 2).total_degree() == 2
    assert (R2.var(1) * R2.pi()).total_degree() == 2
    assert R2.zero().total_degree() == -1


def test_pi_decimal_50_digits():
    value = str(pi_decimal(50))
    assert value.startswith("3.141592653589793238462643383279502884197169399375")


def test_numeric_evaluation():
    p = 2 * PI_RING.pi() ** 2
    v = evaluate_pi_poly(p, 30)
    assert str(v).startswith("19.7392088")


@pytest.mark.parametrize("digits", [0, -3, -20])
def test_precision_below_one_digit_is_rejected(digits):
    """Below 1 digit, ``evaluate_pi_numerators`` and ``pi_decimal`` raise one
    message, not Decimal's own range error."""
    for evaluate in (lambda: evaluate_pi_numerators({0: 1}, 1, digits), lambda: pi_decimal(digits)):
        with pytest.raises(ValueError, match="^precision must be at least 1 digit$"):
            evaluate()


def former_evaluate_pi_poly(p, digits):
    """The former body of ``evaluate_pi_poly``: one reduced Fraction per
    term, in ``sorted_terms`` order."""
    with localcontext() as ctx:
        ctx.prec = digits + _GUARD
        pi_val = pi_decimal(digits + _GUARD)
        total = Decimal(0)
        for (k,), c in p.sorted_terms():
            total += Decimal(c.numerator) / Decimal(c.denominator) * pi_val**k
    with localcontext() as ctx:
        ctx.prec = digits
        total = +total
    return total


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(0, 14), st.integers(-(2**80), 2**80).filter(bool), max_size=6),
    st.integers(1, 2**70),
    st.integers(1, 10**9),
    st.sampled_from([1, 2, 17, 50, 100]),
)
def test_numerators_over_any_denominator_give_the_reduced_digits(nums, den, scale, digits):
    """``evaluate_pi_numerators`` of unreduced numerators gives the Decimal of
    the former per-term loop over reduced Fractions, digit for digit and
    exponent for exponent, and ``evaluate_pi_poly`` is the same loop."""
    p = pi_poly(nums, den)
    want = former_evaluate_pi_poly(p, digits)
    got = evaluate_pi_numerators({k: c * scale for k, c in nums.items()}, den * scale, digits)
    assert got.as_tuple() == want.as_tuple()
    assert evaluate_pi_poly(p, digits).as_tuple() == want.as_tuple()


# -- property tests --------------------------------------------------------------


def small_polys(nvars=3, max_exp=3, max_size=5):
    exps = st.tuples(*[st.integers(0, max_exp) for _ in range(nvars)])
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    ring = PolyRing(("pi", "t1", "t2"))
    return st.lists(st.tuples(exps, coeffs), max_size=max_size).map(
        lambda items: sum((ring.monomial(c, e) for e, c in items), ring.zero())
    )


def canonical(p):
    """``p``, after asserting the stored form: den > 0, gcd(den, *nums) == 1,
    nonzero int numerators, exponent tuples of ring length, and numerator
    vectors that neither end in 0 nor are empty."""
    assert isinstance(p.den, int) and p.den > 0, p.den
    assert gcd(p.den, *p.nums.values()) == 1, (p.den, dict(p.nums))
    assert all(isinstance(c, int) and c != 0 for c in p.nums.values()), dict(p.nums)
    assert all(len(e) == p.ring.nvars and min(e) >= 0 for e in p.nums), dict(p.nums)
    assert len(p.terms) == len(p.nums)
    assert all(vec and vec[-1] for vec in p._vecs.values()), p._vecs  # no trailing zeros
    return p


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert canonical(p + q) == canonical(q + p)
    assert canonical(p * q) == canonical(q * p)
    assert canonical((p + q) + r) == canonical(p + (q + r))
    assert canonical((p * q) * r) == canonical(p * (q * r))
    assert canonical(p * (q + r)) == canonical(p * q + p * r)
    assert canonical(p - p).is_zero() and (p - p).den == 1


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_substitution_commutes_with_arithmetic(p, q, c):
    ring = p.ring
    assert canonical((p + q).subs(1, c)) == canonical(p.subs(1, c) + q.subs(1, c))
    assert canonical((p * q).subs(1, c)) == canonical(p.subs(1, c) * q.subs(1, c))
    value = ring.const(c) * ring.pi()  # rational multiple of pi
    assert canonical((p * q).subs(2, value)) == canonical(p.subs(2, value) * q.subs(2, value))


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_serialization_round_trip_property(p):
    assert canonical(poly_from_json_dict(p.to_json_dict())) == p
    assert canonical(poly_from_text(p.ring, str(p))) == p


def subs_per_term(p, v, value):
    """Reference: the former Poly.subs, which rebuilt the sum once per term."""
    ring = p.ring
    powers = [ring.one()]
    result = ring.zero()
    for e, c in sorted(p.terms.items()):
        k = e[v]
        while len(powers) <= k:
            powers.append(powers[-1] * value)
        e2 = list(e)
        e2[v] = 0
        result = result + powers[k] * ring.monomial(c, e2)
    return result


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), st.integers(0, 2))
def test_subs_matches_per_term_formula(p, value, v):
    assert canonical(p.subs(v, value)) == subs_per_term(p, v, value)


def printed_polys():
    """Every wpvol.reference polynomial, V_{1,2}, and rings with other names."""
    from wpvol import reference as ref
    from wpvol.volumes import cp1n_volume, losev_manin_volume, mirzakhani_volume

    for name in ["v_main_03", "v_main_04", "v_main_11", "v_main_12", "v_main_21",
                 "wall_crossing_12", "v_light_12", "wall_crossing_05_s3"]:
        yield name, getattr(ref, name)()
    for k, p in ref.chamber_volumes_04().items():
        yield f"chamber_volumes_04[{k}]", p
    for (k, w), p in ref.wall_crossings_04().items():
        yield f"wall_crossings_04[{k},{w[0]},{w[1]}]", p
    for k, p in ref.wall_crossing_05_cases().items():
        yield f"wall_crossing_05_cases[{k}]", p
    yield "mirzakhani_volume(1,2)", mirzakhani_volume(1, 2).poly
    yield "losev_manin_volume(3)", losev_manin_volume(3)
    yield "cp1n_volume(1)", cp1n_volume(1)
    r = angle_ring(2, extra="u")
    yield "zero", r.zero()
    yield "minus_one", r.const(-1)
    yield "signs", -(r.var(3) - r.var(1)) ** 3 + F(-7, 3) * r.pi() * r.var(2) - r.var(1) + 5


def test_printing_is_pinned():
    """str() and to_latex() match, byte for byte, the strings recorded in
    poly_printing.json before the two methods shared one renderer."""
    pinned = json.loads((Path(__file__).parent / "poly_printing.json").read_text())
    got = {name: [str(p), p.to_latex()] for name, p in printed_polys()}
    assert got == pinned


# -- differential tests against the former kernel loops ------------------------------
#
# Each reference below is the loop the kernel ran before every operation merged
# coefficients through one primitive, rewritten on plain term dicts so that it
# shares no code with wpvol.poly.


def ref_add(a, b):
    terms = dict(a)
    for e, c in b.items():
        s = terms.get(e, 0) + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return terms


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def ref_diff(a, v):
    out = {}
    for e, c in a.items():
        k = e[v]
        if k == 0:
            continue
        e2 = list(e)
        e2[v] = k - 1
        t = tuple(e2)
        s = out.get(t, 0) + c * k
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def ref_subs(a, v, value, nvars):
    powers = [{(0,) * nvars: F(1)}]
    out = {}
    for e, c in a.items():
        k = e[v]
        while len(powers) <= k:
            powers.append(ref_mul(powers[-1], value))
        rest = e[:v] + (0,) + e[v + 1 :]
        for pe, pc in powers[k].items():
            t = tuple(x + y for x, y in zip(rest, pe))
            out[t] = out.get(t, 0) + c * pc
    return {e: c for e, c in out.items() if c != 0}


def ref_compose(a, images, nvars):
    """The former compose: the whole result rebuilt once per source term."""
    result = {}
    for e, c in sorted(a.items()):
        m = {(0,) * nvars: c}
        for i, k in enumerate(e):
            for _ in range(k):
                m = ref_mul(m, images[i])
        result = ref_add(result, m)
    return result


def ref_integrate_upper(a, t, upper, nvars):
    anti = {}
    for e, c in a.items():
        e2 = list(e)
        e2[t] = e[t] + 1
        anti[tuple(e2)] = c / (e[t] + 1)
    return ref_subs(anti, t, upper, nvars)


def ref_evaluate_angles(a, values, nvars):
    """The former evaluate_angles: one substitution pass per angle."""
    for i, value in enumerate(values, start=1):
        a = ref_subs(a, i, value, nvars)
    return {(e[0],): c for e, c in a.items()}


def terms_of(p):
    """The term dict of ``p``, after asserting that it is canonical."""
    canonical(p)
    assert all(c != 0 for c in p.terms.values()), p.terms
    assert all(len(e) == p.ring.nvars and min(e) >= 0 for e in p.terms), p.terms
    return dict(p.terms)


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_arithmetic_matches_reference(p, q, c):
    a, b = terms_of(p), terms_of(q)
    assert terms_of(p + q) == ref_add(a, b)
    assert terms_of(p - q) == ref_add(a, {e: -x for e, x in b.items()})
    assert terms_of(-p) == {e: -x for e, x in a.items()}
    assert terms_of(p * q) == ref_mul(a, b)
    assert terms_of(q**3) == ref_mul(ref_mul(b, b), b)
    assert terms_of(p * c) == ref_mul(a, {(0, 0, 0): c} if c else {})
    assert terms_of(p.diff(1)) == ref_diff(a, 1)
    assert terms_of(q.diff(2)) == ref_diff(b, 2)


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), st.integers(0, 2))
def test_subs_matches_reference(p, value, v):
    assert terms_of(p.subs(v, value)) == ref_subs(terms_of(p), v, terms_of(value), 3)
    assert terms_of(p.subs(v, p)) == ref_subs(dict(p.terms), v, dict(p.terms), 3)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(max_exp=2, max_size=3), small_polys(max_exp=2, max_size=3))
def test_compose_matches_reference(p, x, y):
    target = p.ring
    images = [target.pi(), x, y]
    want = ref_compose(terms_of(p), [terms_of(im) for im in images], 3)
    assert terms_of(p.compose(target, images)) == want
    # into a larger ring, variables relabelled, as the volume engine uses it
    big = angle_ring(4)
    relabel = [big.pi(), big.var(4), big.var(2)]
    want = ref_compose(terms_of(p), [terms_of(im) for im in relabel], 5)
    assert terms_of(p.compose(big, relabel)) == want


@settings(max_examples=40, deadline=None)
@given(small_polys(), st.integers(2, 5), st.randoms(use_true_random=False))
def test_relabeled_equals_compose_with_single_variable_images(p, width, rng):
    """Sending each variable to a distinct variable of a ring as large or
    larger gives what compose gives with those variables as images."""
    target = angle_ring(width)
    positions = [0] + rng.sample(range(1, width + 1), p.ring.nvars - 1)
    images = [target.var(j) for j in positions]
    assert canonical(p.relabeled(target, positions)) == p.compose(target, images)
    if width == p.ring.nvars - 1:  # a permutation: relabeling back is the identity
        back = [positions.index(i) for i in range(width + 1)]
        assert p.relabeled(target, positions).relabeled(p.ring, back) == p


def test_relabeled_rejects_bad_positions():
    p = mirzakhani_volume(1, 2).poly
    with pytest.raises(ValueError):
        p.relabeled(p.ring, [1, 0, 2])  # pi must stay pi
    with pytest.raises(ValueError):
        p.relabeled(p.ring, [0, 1, 1])  # not injective
    with pytest.raises(VariableRangeError):
        p.relabeled(p.ring, [0, 1, 3])
    with pytest.raises(VariableRangeError):
        p.relabeled(p.ring, [0, 1])


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(max_size=3))
def test_integrate_upper_matches_reference(p, upper):
    upper = upper.subs(2, 0)  # the bound must not involve the variable t2
    assert terms_of(p.integrate_upper(2, upper)) == ref_integrate_upper(
        terms_of(p), 2, terms_of(upper), 3
    )
    assert terms_of(p.integrate_upper(1, F(3, 2))) == ref_integrate_upper(
        terms_of(p), 1, {(0, 0, 0): F(3, 2)}, 3
    )


# -- wide exponents: past 255, 65 535 and 2^63, and results past every input -------

# exponents on each side of 255, 65 535 and larger machine-word limits
WIDE = [0, 1, 2, 127, 128, 254, 255, 256, 257, 300, 65535, 65536, 2**31, 2**40]


def wide_polys(max_size=4):
    """Polys of the test ring with pi and t1 exponents from WIDE and t2
    exponents up to 2, so substituting t2 stays cheap; coefficients have
    denominators up to 6."""
    ring = PolyRing(("pi", "t1", "t2"))
    exps = st.tuples(st.sampled_from(WIDE), st.sampled_from(WIDE), st.integers(0, 2))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.lists(st.tuples(exps, coeffs), max_size=max_size).map(
        lambda items: sum((ring.monomial(c, e) for e, c in items), ring.zero())
    )


@settings(max_examples=80, deadline=None)
@given(wide_polys(), wide_polys(max_size=3))
def test_subs_matches_references_on_wide_exponents(p, value):
    """The value may involve t2 itself, have den > 1, or be zero; p may be
    zero or free of t2 (degree 0)."""
    got = p.subs(2, value)
    assert terms_of(got) == ref_subs(terms_of(p), 2, terms_of(value), 3)
    assert got == subs_per_term(p, 2, value)


@settings(max_examples=80, deadline=None)
@given(wide_polys(), wide_polys())
def test_mul_matches_reference_on_wide_exponents(p, q):
    assert terms_of(p * q) == ref_mul(terms_of(p), terms_of(q))
    assert terms_of(q**2) == ref_mul(terms_of(q), terms_of(q))


@settings(max_examples=60, deadline=None)
@given(wide_polys(), wide_polys(max_size=3))
def test_integrate_upper_matches_reference_on_wide_exponents(p, upper):
    upper = upper.subs(2, 0)  # the bound must not involve the variable t2
    assert terms_of(p.integrate_upper(2, upper)) == ref_integrate_upper(
        terms_of(p), 2, terms_of(upper), 3
    )


def test_subs_mul_and_integrate_across_digit_boundaries():
    """Results whose exponents leave the range of every input: a product,
    power or substitution gives the exact exponent sums, with no bound taken
    from the inputs."""
    r = PolyRing(("pi", "t1", "t2"))
    x, y = r.var(1), r.var(2)

    def m(c, *e):
        return r.monomial(c, e)

    # 255 + 1 leaves one byte, 65535 + 1 two bytes, 2^63 + 2^63 = 2^64 64 bits
    assert m(1, 0, 255, 0) * x == m(1, 0, 256, 0)
    assert m(2, 65535, 0, 1) * m(3, 1, 0, 0) == m(6, 65536, 0, 1)
    assert m(1, 0, 2**63, 0) * m(1, 0, 2**63, 0) == m(1, 0, 2**64, 0)
    assert m(1, 0, 255, 1).subs(2, x) == m(1, 0, 256, 0)
    # 200 + 2 * 100 = 400 in t1, beside a t2 exponent that the parts zero
    p = m(F(1, 2), 3, 200, 2) + m(-1, 0, 255, 1) + y
    value = m(F(2, 3), 1, 100, 0) - m(F(1, 5), 0, 0, 1)
    assert terms_of(p.subs(2, value)) == ref_subs(terms_of(p), 2, terms_of(value), 3)
    # degree 256 in t2, and a value in t2 itself: t2^256 -> t2^512
    assert m(1, 0, 0, 256).subs(2, y * y) == m(1, 0, 0, 512)
    assert m(1, 0, 0, 256).subs(2, m(F(1, 2), 0, 0, 1)) == m(F(1, 2**256), 0, 0, 256)
    # degree 0 in t2 keeps p, whatever the value's denominator
    assert m(5, 0, 300, 0).subs(2, F(1, 7)) == m(5, 0, 300, 0)
    assert r.zero().subs(2, x) == r.zero()
    assert (m(1, 0, 300, 1) + m(4, 0, 0, 0)).subs(2, r.zero()) == r.const(4)
    # the antiderivative of t1^300 t2^255 has t2^256
    q = m(1, 0, 300, 255)
    upper = m(F(2, 3), 0, 200, 0)
    assert q.integrate_upper(2, upper) == m(F(2**256, 256 * 3**256), 0, 300 + 200 * 256, 0)
    assert terms_of(q.integrate_upper(2, upper)) == ref_integrate_upper(
        terms_of(q), 2, terms_of(upper), 3
    )


def pi_multiples():
    """Angle values q * pi^m: a Fraction, or a Poly of the test ring."""
    ring = PolyRing(("pi", "t1", "t2"))
    q = st.fractions(min_value=-2, max_value=2, max_denominator=5)
    polys = st.tuples(q, st.integers(0, 2)).map(lambda t: ring.monomial(t[0], (t[1], 0, 0)))
    return st.one_of(q, polys)


@settings(max_examples=80, deadline=None)
@given(small_polys(), pi_multiples(), pi_multiples())
def test_evaluate_angles_matches_reference(p, x, y):
    values = [x if isinstance(x, Poly) else p.ring.const(x) for x in (x, y)]
    want = ref_evaluate_angles(terms_of(p), [terms_of(v) for v in values], 3)
    got = p.evaluate_angles([x, y])
    assert got.ring == PI_RING
    assert terms_of(got) == want
    assert got == per_term_evaluate_angles(p, [x, y])


def per_term_evaluate_angles(p, values):
    """The former body of ``Poly.evaluate_angles``: one pass over the terms,
    each term's angle powers multiplied in one by one."""
    angles = [_pi_multiple(p.ring, x) for x in values]
    B = lcm(*(b for _, b, _ in angles))
    top = max(map(sum, p.nums), default=0)
    powers = [[(a * (B // b)) ** k for k in range(top + 1)] for a, b, _ in angles]
    pad = [B ** (top - s) for s in range(top + 1)]
    shifts = [m for _, _, m in angles]

    def pairs():
        for e, c in p.nums.items():
            m, s = e[0], 0
            for table, mj, k in zip(powers, shifts, e[1:]):
                if k:
                    c *= table[k]
                    m += mj * k
                    s += k
            yield m, c * pad[s]

    nums = {(m,): c for m, c in accumulate({}, pairs()).items()}
    return Poly.from_canonical(PI_RING, nums, p.den * B**top)


def fresh(p):
    """A copy of ``p`` that has not been evaluated yet."""
    return Poly.from_canonical(p.ring, dict(p.nums), p.den)


def seeded_angles(ring, rng):
    """theta_j = (2 - 2 a_j) pi for seeded weights a_j = k/d, with a weight of
    1 (a zero angle) about one time in six."""
    out = []
    for _ in range(ring.nvars - 1):
        d = rng.choice([1, 2, 3, 7, 12, 1000])
        a = F(rng.randint(1, d), d)
        out.append((2 - 2 * a) * ring.pi())
    return out


def plan_size(p):
    """The monomials of the evaluation plan of ``p``, besides 1."""
    return len(p._plan.parents)


@pytest.mark.parametrize("g,n", [(0, 5), (1, 4), (2, 3), (1, 3)], ids=["D05", "D14", "D23", "D13"])
def test_evaluate_angles_matches_per_term_loop_on_chamber_volumes(g, n):
    """Every chamber volume, evaluated from a fresh copy at seeded angles,
    equals the former per-term loop bit for bit; a second evaluation reuses
    the plan the first one built."""
    rng = random.Random(1000 * g + n)
    zeros = 0
    for c in enumerate_chambers(StabilitySpace(g, n)):
        p = fresh(chamber_volume(c).poly)
        for i in range(3):
            values = seeded_angles(p.ring, rng)
            if i == 0:
                values[rng.randrange(n)] = p.ring.zero()
            zeros += sum(v.is_zero() for v in values)
            got = p.evaluate_angles(values)
            if i == 0:
                plan = p._plan
            assert p._plan is plan
            want = per_term_evaluate_angles(p, values)
            assert (got.den, dict(got.nums)) == (want.den, dict(want.nums))
            assert got.ring == PI_RING
    assert zeros > 0


def test_evaluate_angles_matches_per_term_loop_on_v36():
    p = fresh(mirzakhani_volume(3, 6).poly)
    rng = random.Random(36)
    for _ in range(3):
        values = seeded_angles(p.ring, rng)
        assert p.evaluate_angles(values) == per_term_evaluate_angles(p, values)
    values = [p.ring.zero()] + seeded_angles(p.ring, rng)[1:]
    assert p.evaluate_angles(values) == per_term_evaluate_angles(p, values)


def test_evaluation_plan_is_bounded_by_the_support():
    """The plan holds at most terms x degree monomials besides 1, never every
    monomial of degree <= K in n angles (C(n + K, n) of them): one chain of
    120 for t1^60 * t5^60, and about twice the 18 564 terms of V_{3,6},
    not C(30, 6) = 593 775."""
    r5 = angle_ring(5)
    p = r5.monomial(1, (0, 60, 0, 0, 0, 60))
    values = seeded_angles(r5, random.Random(5))
    assert p.evaluate_angles(values) == per_term_evaluate_angles(p, values)
    assert plan_size(p) == 120
    v = fresh(mirzakhani_volume(3, 6).poly)
    v.evaluate_angles([0] * 6)
    assert plan_size(v) <= len(v.nums) * 24


angle_numerators = st.one_of(st.just(0), st.integers(-(2**70), 2**70), st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(
    small_polys(max_exp=4, max_size=7),
    st.lists(angle_numerators, min_size=2, max_size=2),
    st.one_of(st.integers(1, 12), st.integers(2**63, 2**66)),
    st.lists(st.integers(0, 2), min_size=2, max_size=2),
)
def test_plan_evaluate_matches_per_term_loop(p, A, B, shifts):
    """The integer kernel ``_Plan.evaluate`` at theta_j = A_j / B * pi^m_j,
    read over den * B^top, equals the former per-term loop: zero angles,
    mixed pi powers, non-homogeneous polys and numerators past 2^63."""
    plan = fresh(p)._evaluation_plan()
    powers = plan.evaluate(A, B, shifts)
    assert all(isinstance(c, int) and c for c in powers.values())
    over = p.den * B ** len(plan.ends)
    values = [p.ring.monomial(F(a, B), (m, 0, 0)) for a, m in zip(A, shifts)]
    want = per_term_evaluate_angles(p, values)
    assert {(m,): F(c, over) for m, c in powers.items()} == dict(want.terms)
    assert canonical(pi_poly(powers, over)) == want
    assert p.evaluate_angles(values) == want


def former_plan(vecs, n):
    """The plan builder before the shared angle-monomial index: it slices the
    angle part of each term's exponent tuple and walks the parent chain down
    on tuples, building the parents on the way."""
    keys, vals = poly_module._support(n + 1, vecs)
    where = {(0,) * n: 0}  # monomial -> position in its layer
    parents = [[0]]
    angles = [[0]]
    for e in keys:
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
    rows = {}
    for e, c in zip(keys, vals):
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


def plan_monomials(plan, n):
    """The angle exponent tuples of each layer of ``plan``, one set per layer."""
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    layers = plan.layers((0,) * n, units, lambda k, u: tuple(map(add, k, u)))
    return [set(layer) for layer in layers]


def assert_plan_matches_former(p, rng):
    """``_plan`` of ``p`` holds the monomials of the former builder, layer by
    layer, and evaluates alike at seeded angles: all nonzero with one pi
    power, with a zero angle and unequal pi powers, and at random."""
    n = p.ring.nvars - 1
    got, want = poly_module._plan(p._vecs, n), former_plan(p._vecs, n)
    assert plan_monomials(got, n) == plan_monomials(want, n)
    assert len(got.parents) == len(want.parents)
    for trial in range(3):
        A = [rng.choice([-1, 1]) * rng.randint(1, 10**6) for _ in range(n)]
        shifts = [1] * n if trial == 0 else [rng.randint(0, 3) for _ in range(n)]
        if trial == 1 and n:
            A[rng.randrange(n)] = 0
            shifts = [j % 3 for j in range(n)]
        B = rng.choice([1, 7, 1000])
        assert got.evaluate(A, B, shifts) == want.evaluate(A, B, shifts)


@pytest.mark.parametrize("g,n", [(0, 5), (1, 4), (2, 3), (1, 3)], ids=["D05", "D14", "D23", "D13"])
def test_plan_matches_former_builder_on_chamber_volumes(g, n):
    rng = random.Random(32 + 10 * g + n)
    for c in enumerate_chambers(StabilitySpace(g, n)):
        assert_plan_matches_former(chamber_volume(c).poly, rng)


def test_plan_matches_former_builder_on_other_rings():
    """A non-homogeneous poly, polys in pi alone (no angle) and a poly of a
    ring with a trailing integration variable."""
    rng = random.Random(32)
    t1, t2, pi = R2.var(1), R2.var(2), R2.pi()
    ext = angle_ring(3, "x")
    x = ext.var(4)
    for p in (
        3 * t1**3 * pi - t2 / 5 + 7 + t1 * t2**2 + pi**4 * t2,
        PI_RING.const(5),
        3 * PI_RING.pi() ** 2 - PI_RING.pi() + 1,
        (x + ext.var(1) - ext.two_pi()) ** 3 * ext.var(2) - x**2 * ext.pi() / 3,
    ):
        assert_plan_matches_former(p, rng)


def test_plan_index_extends_as_the_table_grows():
    """A plan built after the monomial table of its degree grew past the ids
    the index holds for it extends the id list, and still matches the former
    builder; the plan built before it is unchanged."""
    rng = random.Random(33)
    ring = angle_ring(3, "x")
    d = 13
    first = (ring.var(1) + 2 * ring.var(4) - ring.pi()) ** d
    assert_plan_matches_former(first, rng)
    kept = poly_module._plan(first._vecs, 4)
    ids = poly_module._table_ids[ring.nvars, d]
    table = poly_module._tables[ring.nvars, d]
    new = next(e for e in product(range(d + 1), repeat=ring.nvars) if sum(e) == d and e not in table)
    grown = first + ring.monomial(F(1, 3), new) + ring.monomial(1, (0, 0, d, 0, 0))
    assert len(grown._vecs[d]) > len(ids)  # the build must extend the list
    assert_plan_matches_former(grown, rng)
    assert len(ids) >= len(grown._vecs[d])
    assert poly_module._plan(first._vecs, 4) == kept
    assert fresh(grown).evaluate_angles([ring.pi()] * 4) == per_term_evaluate_angles(grown, [ring.pi()] * 4)


def test_evaluate_angles_rejects_angle_valued_inputs():
    r = angle_ring(2)
    t1, t2, pi = r.var(1), r.var(2), r.pi()
    for values in ([pi, t1], [pi + 1, pi], [pi * t2, pi], [pi, R4.pi()], [pi, 0.5]):
        with pytest.raises(VariableRangeError):
            t2.evaluate_angles(values)
    assert t2.evaluate_angles([pi, r.zero()]).is_zero()
    assert (t1 * t2).evaluate_angles([2 * pi, F(1, 3) * pi**2]) == F(2, 3) * PI_RING.pi() ** 3


def test_public_constructor_is_canonical():
    p = Poly(R2, {(0, 1, 0): F(0), (0, 0, 1): F(2)})
    assert p.terms == {(0, 0, 1): F(2)}
    assert p == 2 * R2.var(2) and hash(p) == hash(2 * R2.var(2))


def test_two_routes_to_one_value_are_equal_and_hash_alike():
    """The stored (nums, den) form is unique, whatever the route to it."""
    t1, t2, pi = R2.var(1), R2.var(2), R2.pi()
    pairs = [
        (Poly(R2, {(0, 1, 0): F(2, 4)}), t1 / 2),
        (Poly(R2, {(0, 1, 0): F(2, 4)}), t1 / 6 + t1 / 3),
        (t1 / 4 + t2 / 4 - t2 / 4, Poly(R2, {(0, 1, 0): F(1, 4)})),
        (t1 / 3 * 3, t1),
        (t1 / 2 + t1 / 2, t1),
        ((pi / 6 - t1 / 10) * 15, F(5, 2) * pi - F(3, 2) * t1),
        (poly_from_text(R2, "1/2*t1 + 1/2*t1"), t1),
        ((t1 / 3).subs(1, 3 * t2), t2),
        ((t1 * t1 / 4).diff(1), t1 / 2),
        ((t1 / 2).compose(R2, [pi, t2 / 3, t1]), t2 / 6),
        ((3 * t1 / 2).evaluate_angles([pi / 3, 0]), PI_RING.pi() / 2),
        (R2.const(F(6, 4)), Poly(R2, {(0, 0, 0): 3}) / 2),
    ]
    for a, b in pairs:
        assert canonical(a) == canonical(b)
        assert hash(a) == hash(b)
        assert (a.den, dict(a.nums)) == (b.den, dict(b.nums))
    assert t1 / 2 != t1 / 4 and (t1 / 2).den == 2


def test_numerators_and_denominator_are_read_only():
    p = R2.var(1) / 6 + R2.pi() / 4
    assert (p.den, dict(p.nums)) == (12, {(0, 1, 0): 2, (1, 0, 0): 3})
    assert dict(p.terms) == {(0, 1, 0): F(1, 6), (1, 0, 0): F(1, 4)}
    with pytest.raises(TypeError):
        p.nums[(0, 1, 0)] = 5
    with pytest.raises(AttributeError):
        p.den = 1
    assert p == R2.var(1) / 6 + R2.pi() / 4


def test_terms_are_read_only_and_the_memo_survives():
    c = light_chamber(StabilitySpace(1, 2))
    vr = chamber_volume(c)
    before = vr.poly.to_json_dict()
    e = next(iter(vr.poly.terms))
    with pytest.raises(TypeError):
        vr.poly.terms[e] = F(7)
    with pytest.raises(TypeError):
        del vr.poly.terms[e]
    with pytest.raises(AttributeError):  # a read-only view has no clear/pop/update
        vr.poly.terms.clear()
    assert chamber_volume(c).poly.to_json_dict() == before
    assert chamber_volume(c).poly == ref.v_light_12()


not_ints = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 9).map(float),
    st.text(max_size=3),
    st.integers(-3, 9).map(str),
    st.fractions(max_denominator=3),
)
int_taking_calls = {
    "PolyRing.var": lambda x: R2.var(x),
    "Poly.diff": lambda x: R2.var(1).diff(x),
    "Poly.subs": lambda x: R2.var(1).subs(x, 0),
    "Poly.integrate_upper": lambda x: R2.var(1).integrate_upper(x, 1),
    "Poly.degree_in": lambda x: R2.var(1).degree_in(x),
    "PolyRing.monomial": lambda x: R2.monomial(1, (0, x, 0)),
    "phi_form first label": lambda x: phi_form(R4, [x, 2]),
    "phi_form second label": lambda x: phi_form(R4, [1, x]),
    "angle_ring": lambda x: angle_ring(x),
    "angle_ring with a trailing variable": lambda x: angle_ring(x, "x"),
    "pi_decimal": lambda x: pi_decimal(x),
    "evaluate_pi_numerators": lambda x: evaluate_pi_numerators({1: 1}, 1, x),
    "minimal_chamber_volume_closed n": lambda x: minimal_chamber_volume_closed(x),
    "minimal_chamber_volume_closed j": lambda x: minimal_chamber_volume_closed(5, x),
    "losev_manin_volume": lambda x: losev_manin_volume(x),
    "losev_manin_chamber": lambda x: losev_manin_chamber(x),
    "cp1n_volume": lambda x: cp1n_volume(x),
    "cp1n_chamber": lambda x: cp1n_chamber(x),
    "Chamber.uncross": lambda x: light_chamber(StabilitySpace(1, 4)).uncross([1, 2, 3, x]),
    "chamber JSON label": lambda x: chamber_from_json_dict({"light_max": [[1, x]]}, 0, 4),
    "chamber JSON g": lambda x: chamber_from_json_dict({"light_max": [], "g": x}, None, 4),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(int_taking_calls)), not_ints)
def test_int_inputs_reject_bools_floats_and_strings(name, x):
    """Where an entry point takes an int (a variable index, a count, a
    label or a digit count), a bool, float, str or Fraction raises one
    one-line ValueError: never read as 0 or 1, truncated or parsed, and
    never a TypeError from deep inside."""
    with pytest.raises(ValueError) as err:
        int_taking_calls[name](x)
    assert "\n" not in str(err.value)


def test_int_inputs_out_of_range_raise_before_any_work(monkeypatch):
    """An int index outside its range gets the error of its argument: a
    variable index outside the ring a VariableRangeError (never the last
    variable for -1), a label of the closed form outside 1..n the ValueError
    of every bad label, before any poly is built."""
    p = R2.var(1) * R2.var(2) ** 3
    assert [p.degree_in(v) for v in range(3)] == [0, 1, 3]
    for v in (-1, 3, 9):
        with pytest.raises(VariableRangeError, match=f"variable index {v} out of range"):
            p.degree_in(v)
    light = minimal_chamber_volume_closed(5, 5).chamber.light_max
    assert light == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))

    def no_ring(n):
        raise AssertionError("built a poly ring")

    monkeypatch.setattr("wpvol.volumes.angle_ring", no_ring)
    for j in (-1, 0, 6, 9):
        with pytest.raises(ValueError, match=rf"^invalid label \[{j}\]$"):
            minimal_chamber_volume_closed(5, j)


def test_json_and_monomial_reject_malformed_exponents():
    dup = {"vars": ["pi", "t1"], "terms": [{"c": "1/1", "e": [0, 1]}, {"c": "2/1", "e": [0, 1]}]}
    neg = {"vars": ["pi", "t1"], "terms": [{"c": "1/1", "e": [0, -1]}]}
    short = {"vars": ["pi", "t1"], "terms": [{"c": "1/1", "e": [1]}]}
    truncated = {"vars": ["pi", "t1"], "terms": [{"c": "1/1", "e": [0, 1.9]}]}
    boolean = {"vars": ["pi", "t1"], "terms": [{"c": "1/1", "e": [0, True]}]}
    text = {"vars": ["pi", "t1"], "terms": [{"c": "1/1", "e": [0, "2"]}]}
    for data in (dup, neg, short, truncated, boolean, text):
        with pytest.raises(ValueError):
            wpvol.poly_from_json_dict(data)
    for exps in ((0, -1, 0), (0, 1.5, 0), (0, 1.0, 0), (True, 0, 0), (0, "1", 0), (0, F(1), 0)):
        with pytest.raises(ValueError):
            R2.monomial(1, exps)
    assert R2.monomial(1, [0, 1, 0]) == R2.var(1)
    with pytest.raises(ValueError):
        poly_from_text(R2, "t1^-1")


def mirzakhani_per_monomial(g, n):
    """Reference: the former mirzakhani_volume, which added one monomial at a time."""
    d = 3 * g - 3 + n
    total = {}
    for m in range(d + 1):
        for alpha in _compositions(d - m, n):
            num = kappa_psi_intersection(g, m, alpha)
            if num == 0:
                continue
            coeff = F(2**m, factorial(m)) * num
            for a in alpha:
                coeff *= F((-1) ** a, 2**a * factorial(a))
            total = ref_add(total, {(2 * m,) + tuple(2 * a for a in alpha): coeff})
    return total


STABLE_UP_TO_DIM_5 = [
    (g, n) for g in range(3) for n in range(1, 9) if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 5
]


@pytest.mark.parametrize("g,n", STABLE_UP_TO_DIM_5)
def test_mirzakhani_volume_matches_per_monomial_sum(g, n):
    assert terms_of(mirzakhani_volume(g, n).poly) == mirzakhani_per_monomial(g, n)


def test_v36_and_its_dilaton_identity():
    """V_{3,6} (18 564 terms) and the dilaton identity of its main chamber,
    which is flat in 6: sizes the former per-term rebuild loops could not reach
    within a test (about 100 s for V_{3,6} alone)."""
    start = time.monotonic()
    v = mirzakhani_volume(3, 6).poly
    assert len(v.terms) == 18564 and v.is_homogeneous(24)
    lhs, rhs = dilaton_check(main_chamber(StabilitySpace(3, 6)), 6)
    assert lhs == rhs and not lhs.is_zero()
    print(f"[V_3,6 and its dilaton identity] {time.monotonic() - start:.1f}s")


def test_terms_and_nums_share_keys_in_table_order():
    """``terms`` and ``nums`` hold the same exponent tuples, in the order of
    the monomial tables, with each coefficient nums[e] / den."""
    import wpvol.poly as poly_module

    p = mirzakhani_volume(1, 3).poly
    assert p.is_homogeneous(6) and len(p.terms) == len(p.nums) > 1
    assert list(p.terms) == list(p.nums)
    positions = [poly_module._tables[p.ring.nvars, 6][e] for e in p.nums]
    assert positions == sorted(positions)
    assert all(e in p.terms for e in p.nums)
    assert dict(p.terms.items()) == {e: F(c, p.den) for e, c in p.nums.items()}
