"""Closed forms, 2 pi limits, dilaton-type identities, wall derivatives."""

from fractions import Fraction as F
from math import comb

import pytest

from wpvol import reference as ref
from wpvol.chambers import (
    StabilitySpace,
    WeightVector,
    classify,
    light_chamber,
    main_chamber,
    minimal_chamber_0,
)
from wpvol.errors import WpvolError
from wpvol.poly import PolyRing, angle_ring
from wpvol.volumes import (
    chamber_volume,
    cp1n_chamber,
    cp1n_volume,
    dilaton_check,
    dilaton_rhs,
    eval_at_2pi,
    flat_hull,
    general_dilaton_check,
    incident_zero_check,
    light_hull,
    losev_manin_chamber,
    losev_manin_volume,
    minimal_chamber_volume_closed,
    mirzakhani_volume,
    wc_derivative_check,
)

S04 = StabilitySpace(0, 4)
S05 = StabilitySpace(0, 5)
S12 = StabilitySpace(1, 2)


# -- closed forms -------------------------------------------------------------------


def test_minimal_chamber_closed_form_n3():
    assert minimal_chamber_volume_closed(3, 1).poly == angle_ring(3).one()


def test_minimal_chamber_closed_form_equals_c4vol():
    assert minimal_chamber_volume_closed(4, 1).poly == ref.chamber_volumes_04()["B4"]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_minimal_chamber_closed_form_vs_engine(n):
    space = StabilitySpace(0, n)
    closed = minimal_chamber_volume_closed(n, 1).poly
    assert closed == chamber_volume(minimal_chamber_0(space, 1)).poly


def test_minimal_chamber_other_label():
    space = StabilitySpace(0, 4)
    closed = minimal_chamber_volume_closed(4, 2).poly
    assert closed == chamber_volume(minimal_chamber_0(space, 2)).poly


def test_losev_manin_small_fixture():
    lm2 = losev_manin_volume(2)
    r = lm2.ring
    assert lm2 == 4 * r.pi() ** 2 * r.var(1) * r.var(2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_losev_manin_vs_engine(n):
    closed = losev_manin_volume(n)
    eng = chamber_volume(losev_manin_chamber(n)).poly
    dst = closed.ring
    images = (
        [dst.pi()]
        + [dst.two_pi() - 2 * dst.pi() * dst.var(j) for j in range(1, n + 1)]
        + [dst.zero(), dst.zero()]
    )
    assert eng.compose(dst, images) == closed


def test_cp1_small_fixture():
    a1 = cp1n_volume(1)
    r = a1.ring
    e1, b1, b2, b3 = r.var(1), r.var(2), r.var(3), r.var(4)
    assert a1 == 4 * r.pi() ** 2 * e1 * (-2 + e1 + b1 + b2 + b3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cp1_vs_engine(n):
    closed = cp1n_volume(n)
    eng = chamber_volume(cp1n_chamber(n)).poly
    dst = closed.ring
    images = [dst.pi()] + [dst.two_pi() - 2 * dst.pi() * dst.var(j) for j in range(1, n + 4)]
    assert eng.compose(dst, images) == closed


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cayley_recursion(n):
    """Equal-weight Losev-Manin volumes satisfy the labelled-tree recursion.

    Ordered sum halved; the unordered form double counts the middle term for
    even n (check: n=4 gives 20 instead of 16 without the 1/2)."""
    ring = PolyRing(("pi", "e"))

    def v(k):
        if k == 1:
            return ring.one()
        return losev_manin_volume(k).compose(ring, [ring.pi()] + [ring.var(1)] * k)

    rhs = ring.zero()
    for i in range(1, n):
        rhs = rhs + F(i * (n - i), n - 1) * comb(n, i) * v(i) * v(n - i)
    rhs = rhs * (2 * ring.pi() * ring.var(1)) ** 2 / 2
    assert v(n) == rhs


# -- 2 pi limits ----------------------------------------------------------------------


def test_light_chamber_12_vanishes_at_2pi():
    vr = chamber_volume(light_chamber(S12))
    assert eval_at_2pi(vr, 2).is_zero()
    assert eval_at_2pi(vr, 1).is_zero()


def test_cp1_light_coordinates_vanish():
    for n in (1, 2):
        c = cp1n_chamber(n)
        vr = chamber_volume(c)
        for i in range(1, n + 1):
            assert c.is_light(i)
            assert eval_at_2pi(vr, i).is_zero()


def test_limitdil1_main_chamber_12():
    r2 = angle_ring(2)
    lhs = eval_at_2pi(mirzakhani_volume(1, 2), 2)
    ext = angle_ring(1, extra="t")
    v11 = mirzakhani_volume(1, 1).poly.compose(ext, [ext.pi(), ext.var(2)])
    rhs = -(
        (v11 * ext.var(2))
        .integrate_upper(2, ext.var(1))
        .compose(r2, [r2.pi(), r2.var(1), r2.zero()])
    )
    assert lhs == rhs


def test_incident_zero_paths():
    b0 = main_chamber(S04)
    lhs, rhs, path = incident_zero_check(b0, 4)
    assert lhs == rhs
    assert all(4 in w for w in path.walls())
    lhs, rhs, path = incident_zero_check(main_chamber(S12), 2)
    assert lhs == rhs and len(path.steps) == 1


def test_incident_zero_g2():
    """V_{2,2}(i t1, 2 pi i) = -int_0^{t1} t V_{2,1}(it) dt via the crossing."""
    s22 = StabilitySpace(2, 2)
    lhs, rhs, path = incident_zero_check(main_chamber(s22), 2)
    assert lhs == rhs and len(path.steps) == 1
    r2 = angle_ring(2)
    ext = angle_ring(1, extra="t")
    v21 = mirzakhani_volume(2, 1).poly.compose(ext, [ext.pi(), ext.var(2)])
    integral = (
        (v21 * ext.var(2))
        .integrate_upper(2, ext.var(1))
        .compose(r2, [r2.pi(), r2.var(1), r2.zero()])
    )
    assert lhs == -integral


def test_light_hull_unreachable_for_b4():
    b4 = minimal_chamber_0(S04, 1)
    from wpvol.errors import NotRealizableError

    with pytest.raises(NotRealizableError):
        light_hull(b4, 4)


# -- dilaton identities -----------------------------------------------------------------


def test_dilaton_main_chamber_coefficient():
    """For C^M the rhs is -2 pi (2g-2+n) V_{g,n}: all q, no theta terms."""
    c = main_chamber(S05)
    lhs, rhs = dilaton_check(c, 5)
    r5 = angle_ring(5)
    v4 = mirzakhani_volume(0, 4).poly.compose(
        r5, [r5.pi()] + [r5.var(j) for j in range(1, 5)]
    )
    assert rhs == -2 * r5.two_pi() * v4  # -2 pi (2*0-2+4) = -4 pi
    assert lhs == rhs


def test_dilaton_light_coefficient_is_area():
    """Light in i: rhs coefficient -2 pi (2g-2+sum a_j), the hyperbolic area."""
    c = light_chamber(S12)
    lhs, rhs = dilaton_check(c, 2)
    r2 = angle_ring(2)
    v1 = mirzakhani_volume(1, 1).poly.compose(r2, [r2.pi(), r2.var(1)])
    assert rhs == (-r2.two_pi() + r2.var(1)) * v1  # -2 pi (0 + a(theta_1))
    assert lhs == rhs


def test_dilaton_losev_manin_recursion():
    """L_n at its flat coordinate reproduces the weighted-sum recursion:
    with the heavy angles at 0, d V/d theta_n|_{2 pi} is
    -2 pi sum_{j<n} a(theta_j) times the L_{n-1} volume."""
    for n in (2, 3):
        c = losev_manin_chamber(n)
        lhs, rhs = dilaton_check(c, n)
        assert lhs == rhs
        ring = lhs.ring
        lhs0 = lhs.subs(n + 1, ring.zero()).subs(n + 2, ring.zero())
        coeff = -(n - 1) * ring.two_pi()
        for j in range(1, n):
            coeff = coeff + ring.var(j)
        small = chamber_volume(losev_manin_chamber(n - 1)).poly
        v_small = small.compose(
            ring,
            [ring.pi()] + [ring.var(j) for j in range(1, n)] + [ring.zero(), ring.zero()],
        )
        assert lhs0 == coeff * v_small


def test_dilaton_not_flat_raises():
    b4 = minimal_chamber_0(S04, 1)
    with pytest.raises(WpvolError):
        dilaton_check(b4, 4)


def test_dilaton_d22():
    s22 = StabilitySpace(2, 2)
    for c in (main_chamber(s22), light_chamber(s22)):
        lhs, rhs = dilaton_check(c, 2)
        assert lhs == rhs


# -- wall-crossing derivatives ------------------------------------------------------------


def test_wc_derivative_s2():
    b0 = main_chamber(S04)
    lhs, rhs = wc_derivative_check(b0, {3, 4}, 4)
    r4 = angle_ring(4)
    assert lhs == rhs == r4.var(3)


def test_wc_derivative_s3():
    c = classify(WeightVector(S05, (F(9, 10), F(9, 10), F(2, 5), F(2, 5), F(2, 5))))
    lhs, rhs = wc_derivative_check(c, {3, 4, 5}, 5)
    r5 = angle_ring(5)
    assert lhs == rhs
    assert lhs == (r5.var(3) + r5.var(4) - r5.two_pi()) ** 3 / 2


def test_wc_derivative_symmetric_in_wall_labels():
    c = classify(WeightVector(S05, (F(9, 10), F(9, 10), F(2, 5), F(2, 5), F(2, 5))))
    l5, r5_ = wc_derivative_check(c, {3, 4, 5}, 5)
    l4, r4_ = wc_derivative_check(c, {3, 4, 5}, 4)
    ring = l5.ring
    swap = {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    images = [ring.pi()] + [ring.var(swap[j]) for j in range(1, 6)]
    assert l4 == l5.compose(ring, images)
    assert r4_ == r5_.compose(ring, images)


# -- generalized dilaton -------------------------------------------------------------------


def test_general_dilaton_trivial_path_is_dilaton():
    c = main_chamber(S12)
    assert c.is_flat(2)
    lhs1, rhs1 = general_dilaton_check(c, 2)
    lhs2, rhs2 = dilaton_check(c, 2)
    assert (lhs1, rhs1) == (lhs2, rhs2)
    assert lhs1 == rhs1


def test_general_dilaton_flat_hull_mode():
    c = classify(WeightVector(S05, (F(1), F(9, 20), F(9, 20), F(19, 20), F(1, 5))))
    assert not c.is_flat(5)
    hull = flat_hull(c, 5)
    assert hull.is_flat(5)
    lhs, rhs = general_dilaton_check(c, 5)
    assert lhs == rhs


def test_general_dilaton_minimal_chamber_route():
    """C_1 in D_{0,n}: one wall {2..n-1} up to a flat chamber; the classic
    recursion d V/d theta_n|_{2 pi} = -2 pi(-1+sum_{j=2}^{n-1} a_j) V_{0,C_1}."""
    for n in (4, 5):
        space = StabilitySpace(0, n)
        c1 = minimal_chamber_0(space, 1)
        wall = frozenset(range(2, n))
        lhs, rhs = general_dilaton_check(c1, n, up_walls=[wall])
        assert lhs == rhs
        ring = angle_ring(n)
        small = chamber_volume(minimal_chamber_0(StabilitySpace(0, n - 1), 1)).poly
        v_small = small.compose(ring, [ring.pi()] + [ring.var(j) for j in range(1, n)])
        # -2 pi (-1 + sum_{j=2}^{n-1} a_j) = sum_{j=2}^{n-1} theta_j - 2 pi (n-3)
        coeff = sum((ring.var(j) for j in range(2, n)), ring.zero()) - (n - 3) * ring.two_pi()
        assert lhs == coeff * v_small


def test_general_dilaton_rejects_bad_walls():
    c = main_chamber(S04)
    with pytest.raises(WpvolError):
        general_dilaton_check(c, 4, up_walls=[frozenset({1, 2})])  # not light


def test_flat_hull_obstruction():
    # B4 in coordinate 4: light {2,3} meets q = {1}? q(B4,4) = {1}, S={2,3}
    # does not meet q, but the hull flips {2,3,4} which is unrealizable.
    b4 = minimal_chamber_0(S04, 1)
    from wpvol.errors import NotRealizableError

    with pytest.raises((WpvolError, NotRealizableError)):
        flat_hull(b4, 4)


def test_dilaton_04_flat_vs_light_contrast():
    """B3 (light in 4) gives the piecewise-volume derivative t1+t2+t3-2pi;
    B2 (flat, q={1}) gives t2+t3-2pi: the theta_1 term drops out."""
    b0 = main_chamber(S04)
    b2 = b0.cross({3, 4}).cross({2, 4})
    b3 = b2.cross({1, 4})
    r4 = angle_ring(4)
    lhs3, rhs3 = dilaton_check(b3, 4)
    assert lhs3 == rhs3 == r4.var(1) + r4.var(2) + r4.var(3) - r4.two_pi()
    lhs2, rhs2 = dilaton_check(b2, 4)
    assert lhs2 == rhs2 == r4.var(2) + r4.var(3) - r4.two_pi()


def test_dilaton_rhs_uses_q_complement():
    c = main_chamber(S12)
    r2 = angle_ring(2)
    v1 = mirzakhani_volume(1, 1).poly.compose(r2, [r2.pi(), r2.var(1)])
    assert dilaton_rhs(c, 2) == -r2.two_pi() * v1  # q = {1}: no theta term
