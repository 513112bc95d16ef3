"""Volume engine: main-chamber polynomials, wall crossings, chamber volumes."""

import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_reference import former_volume

import wpvol.chambers as chambers
import wpvol.poly as poly_module
import wpvol.volumes as volumes
from wpvol import reference as ref
from wpvol.chambers import (
    StabilitySpace,
    WeightVector,
    classify,
    enumerate_chambers,
    light_chamber,
    main_chamber,
)
from wpvol.errors import NotIncidentError, NotRealizableError, OnWallError, UnstableError
from wpvol.numeric import evaluate_pi_numerators, evaluate_pi_poly
from wpvol.poly import PI_RING, Poly, angle_ring, phi_form, pi_poly
from wpvol.verify import _incident_walls
from wpvol.volumes import (
    _integrate_crossing,
    _wc_integral,
    chamber_volume,
    clear_volume_cache,
    eval_at_2pi,
    mirzakhani_volume,
    piecewise_volume,
    wall_crossing_poly,
)

S04 = StabilitySpace(0, 4)
S05 = StabilitySpace(0, 5)
S12 = StabilitySpace(1, 2)


def chambers_04():
    b0 = main_chamber(S04)
    b1 = b0.cross({3, 4})
    b2 = b1.cross({2, 4})
    return {"B0": b0, "B1": b1, "B2": b2, "B3": b2.cross({1, 4}), "B4": b2.cross({2, 3})}


def test_mirzakhani_fixtures():
    assert mirzakhani_volume(0, 3).poly == ref.v_main_03()
    assert mirzakhani_volume(0, 4).poly == ref.v_main_04()
    assert mirzakhani_volume(1, 1).poly == ref.v_main_11()
    assert mirzakhani_volume(1, 2).poly == ref.v_main_12()
    assert mirzakhani_volume(2, 1).poly == ref.v_main_21()


def test_mirzakhani_guards():
    with pytest.raises(UnstableError):
        mirzakhani_volume(0, 2)
    # no genus bound: V_{4,1} has degree 2(3g-3+n) = 20 in (pi, theta)
    v41 = mirzakhani_volume(4, 1).poly
    assert v41 and v41.is_homogeneous(20)


def test_main_volume_structure():
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]:
        d = 3 * g - 3 + n
        vr = mirzakhani_volume(g, n)
        # homogeneous of degree 2d counting pi, and theta-degree exactly 2d
        assert vr.poly.is_homogeneous(2 * d)
        assert max(sum(e[1:]) for e in vr.poly.terms) == 2 * d
        # only even powers of each angle
        assert all(all(x % 2 == 0 for x in e[1:]) for e in vr.poly.terms)
        assert vr.provenance == "main-chamber-intersection"


def test_chamber_volumes_04():
    expected = ref.chamber_volumes_04()
    for name, c in chambers_04().items():
        vr = chamber_volume(c)
        assert vr.poly == expected[name], name
        assert vr.poly.total_degree() <= 2 * (3 * 0 - 3 + 4)
        assert vr.poly.is_homogeneous(2)


def test_wall_crossings_04():
    cs = chambers_04()
    for (name, wall), expected in ref.wall_crossings_04().items():
        wcp = wall_crossing_poly(cs[name], set(wall))
        assert wcp.poly == expected, (name, wall)
        ring = wcp.poly.ring
        assert wcp.phi == ring.var(wall[0]) + ring.var(wall[1]) - ring.two_pi()


def test_wall_crossing_12_and_light_chamber():
    wcp = wall_crossing_poly(main_chamber(S12), {1, 2})
    assert wcp.poly == ref.wall_crossing_12()
    assert chamber_volume(light_chamber(S12)).poly == ref.v_light_12()


def test_wall_crossing_g2():
    """Theorem-1 form: wc = int_0^phi V_{g,1}(it) t dt, checked at g = 2."""
    s22 = StabilitySpace(2, 2)
    wcp = wall_crossing_poly(main_chamber(s22), {1, 2})
    ext = angle_ring(2, extra="t")
    v21 = mirzakhani_volume(2, 1).poly.compose(ext, [ext.pi(), ext.var(3)])
    phi = ext.var(1) + ext.var(2) - ext.two_pi()
    r2 = angle_ring(2)
    back = [r2.pi(), r2.var(1), r2.var(2), r2.zero()]
    expected = (v21 * ext.var(3)).integrate_upper(3, phi).compose(r2, back)
    assert wcp.poly == expected


def test_wall_crossing_05_s3_closed_form():
    c = classify(WeightVector(S05, (F(9, 10), F(9, 10), F(2, 5), F(2, 5), F(2, 5))))
    assert wall_crossing_poly(c, {3, 4, 5}).poly == ref.wall_crossing_05_s3()


def test_wall_crossing_05_s2_cases():
    expected = ref.wall_crossing_05_cases()
    for case, weights in ref.case_weights_05().items():
        c = classify(WeightVector(S05, weights))
        assert wall_crossing_poly(c, {4, 5}).poly == expected[case], case


def _descent_order(c, largest_first=False):
    """Walls crossed from the main chamber down to c, found with Chamber.cross
    alone: each step crosses the smallest (or largest) light set of c that it
    can."""
    remaining = [S for S in c.space.subsets() if c.value(S) == 0]  # smallest first
    if largest_first:
        remaining.reverse()
    cur = main_chamber(c.space)
    order = []
    while remaining:
        for S in remaining:
            try:
                cur = cur.cross(S)
            except (NotIncidentError, NotRealizableError):
                continue
            remaining.remove(S)
            order.append(S)
            break
        else:
            raise AssertionError(f"descent to {c} is stuck at {cur}")
    return order


def _volume_along_order(c, order):
    """Reference: Mirzakhani's polynomial plus every crossing of ``order``,
    each integrated afresh."""
    cur = main_chamber(c.space)
    poly = mirzakhani_volume(c.space.g, c.space.n).poly
    for wall in order:
        poly = poly + _integrate_crossing(cur, wall)
        cur = cur.cross(wall)
    assert cur == c, (c, order)
    return poly


def test_chamber_volume_matches_uncached_path_sum():
    """Each volume, built from its predecessor with memoized crossings, equals
    Mirzakhani's polynomial plus every crossing integrated afresh, along each
    of two independent descents."""
    clear_volume_cache()
    for space in (S04, S12, StabilitySpace(1, 3), StabilitySpace(1, 4)):
        for c in enumerate_chambers(space):
            volume = chamber_volume(c).poly
            for largest_first in (False, True):
                order = _descent_order(c, largest_first)
                assert volume == _volume_along_order(c, order), (c, order)


def test_wall_crossing_memo_matches_uncached_integral():
    """A memo hit, integrated for another chamber with the same quotient,
    equals the integral for this chamber."""
    clear_volume_cache()
    for c in enumerate_chambers(StabilitySpace(1, 4)):
        for S, _ in _incident_walls(c):
            assert wall_crossing_poly(c, S).poly == _integrate_crossing(c, S), (c, S)


def test_volume_symmetry_under_stabilizer():
    # the main chamber volume is symmetric in all labels
    v = mirzakhani_volume(0, 4).poly
    perm = {1: 2, 2: 1, 3: 4, 4: 3}
    r = v.ring
    images = [r.pi()] + [r.var(perm[j]) for j in range(1, 5)]
    assert v.compose(r, images) == v
    # B4 is fixed by permutations of {2,3,4}
    b4 = chambers_04()["B4"]
    v4 = chamber_volume(b4).poly
    perm = {1: 1, 2: 3, 3: 4, 4: 2}
    assert b4.permuted(perm) == b4
    assert v4.compose(r, [r.pi()] + [r.var(perm[j]) for j in range(1, 5)]) == v4


def test_chamber_volume_memoized():
    c = chambers_04()["B2"]
    assert chamber_volume(c) is chamber_volume(c)


def test_piecewise_volume_examples():
    c, vr, value = piecewise_volume(WeightVector(S04, (F(9, 10),) * 4))
    assert c == main_chamber(S04)
    assert value == F(48, 25) * PI_RING.pi() ** 2
    c, vr, value = piecewise_volume(WeightVector(S12, (F(1, 10), F(1, 10))))
    assert c == light_chamber(S12)
    assert value == F(37, 30000) * PI_RING.pi() ** 4
    # cusp values: all theta = 0 gives the constant term
    c, vr, value = piecewise_volume(WeightVector(S04, (F(1),) * 4))
    assert value == 2 * PI_RING.pi() ** 2


def test_cold_piecewise_volume_solves_no_lp_for_its_chamber(monkeypatch):
    """The query's weight vector lies in its chamber, so no LP is solved to
    prove that chamber realizable, and the vector is not stored as its
    witness; the value matches the public chamber_volume.  The first two
    points repeat a weight, so their climbs meet ties, which the segment
    order breaks: no climb solves an LP in its space."""
    points = [
        WeightVector(S05, (F(9, 10), F(9, 10), F(2, 25), F(9, 10), F(3, 20))),
        WeightVector(S05, (F(1), F(2, 5), F(2, 5), F(2, 5), F(3, 10))),
        WeightVector(StabilitySpace(1, 4), (F(1, 5), F(3, 10), F(3, 5), F(1, 20))),
    ]
    for w in points:
        c = classify(w)
        monkeypatch.setattr(chambers, "_realize_cache", {})
        monkeypatch.setattr(chambers, "_realize_orbits", {})
        monkeypatch.setattr(volumes, "_volume_cache", {})
        monkeypatch.setattr(volumes, "_steps", {})
        monkeypatch.setattr(volumes, "_evaluation_orbits", {})
        monkeypatch.setattr(volumes, "_evaluators", {})
        solved = []
        real_realize = chambers.realize

        def recording(chamber):
            if chamber not in chambers._realize_cache:
                solved.append(chamber)
            return real_realize(chamber)

        monkeypatch.setattr(chambers, "realize", recording)
        _, vr, value = piecewise_volume(w)
        assert c.light_max and c not in solved and c not in chambers._realize_cache
        assert not any(s.space == c.space for s in solved)
        monkeypatch.undo()
        assert vr == chamber_volume(c)
        assert value == vr.poly.evaluate_angles(w.theta_values(vr.poly.ring))


def test_piecewise_volume_numeric():
    c, vr, value = piecewise_volume(
        WeightVector(S12, (F(1, 10), F(1, 10))), numeric=True, digits=40
    )
    assert str(value).startswith("0.1201378789419363")


def test_volume_result_json():
    vr = chamber_volume(chambers_04()["B1"])
    data = vr.to_json_dict()
    assert data["chamber"]["light_max"] == [[3, 4]]
    assert data["provenance"] == "wall-crossing-path"
    from wpvol.poly import poly_from_json_dict

    assert poly_from_json_dict(data["poly"]) == vr.poly


def test_eval_at_2pi_light_vanishing_04():
    for c in enumerate_chambers(S04):
        vr = chamber_volume(c)
        for i in range(1, 5):
            if c.is_light(i):
                assert eval_at_2pi(vr, i).is_zero()
    b3 = chambers_04()["B3"]
    assert eval_at_2pi(chamber_volume(b3), 4).is_zero()
    assert not eval_at_2pi(chamber_volume(chambers_04()["B4"]), 4).is_zero()


# -- the orbit-keyed memos against the per-chamber engine --------------------------


@pytest.fixture
def empty_memos(monkeypatch):
    """Every chamber, volume and crossing memo empty, the orbit tables
    included, and restored afterwards."""
    for module, name in [
        (chambers, "_realize_cache"),
        (chambers, "_realize_orbits"),
        (chambers, "_enum_cache"),
        (volumes, "_volume_cache"),
        (volumes, "_steps"),
        (volumes, "_crossing_cache"),
        (volumes, "_crossing_orbits"),
        (volumes, "_orbit_sources"),
        (volumes, "_kernels"),
        (volumes, "_evaluation_orbits"),
        (volumes, "_evaluators"),
    ]:
        monkeypatch.setattr(module, name, {})


def test_orbit_keyed_volumes_match_exact_key_engine(empty_memos):
    """Every chamber of D_{0,5} and D_{1,4}, computed in one process that
    shares the memos (the crossings of D_{1,3} and D_{1,4} both have
    quotients in D_{1,2}, with |S| = 2 and 3), equals the reference."""
    spaces = [S05, StabilitySpace(1, 4)]
    got = {c: chamber_volume(c).poly for space in spaces for c in enumerate_chambers(space)}
    assert len(volumes._crossing_orbits) < len(volumes._crossing_cache)
    polys, crossings = {}, {}
    for c, poly in got.items():
        assert poly == former_volume(c, polys, crossings), c


def test_orbit_keyed_crossings_match_fresh_integrals(empty_memos, monkeypatch):
    """Every exact (C/S, S) key that the D_{1,5} volumes reach, in D_{1,5}
    and in the quotient spaces below it, holds the crossing integrated afresh
    for the first chamber that reached it."""
    reached = {}
    orbit_crossing = volumes._orbit_crossing

    def recording(c, S, quotient):  # called once per exact key, on its miss
        reached[(quotient, S)] = c
        return orbit_crossing(c, S, quotient)

    monkeypatch.setattr(volumes, "_orbit_crossing", recording)
    for c in enumerate_chambers(StabilitySpace(1, 5)):
        chamber_volume(c)
    assert {q.space.n + len(S) - 1 for q, S in reached} == {3, 4, 5}
    for (q, S), c in reached.items():
        assert volumes._crossing_cache[(q, S)][0] == _integrate_crossing(c, S), (c, S)


# -- the closed-form crossing integral against the kernel integral ------------------


def _kernel_wc_integral(quotient_poly, S, s_comp, ring):
    """Reference: wc as the kernel integral.  The quotient volume is relabeled
    into the ring extended by t (merged point to t), multiplied by the kernel
    (phi_S^2 - t^2)^(s-2) t / ((s-2)! 2^(s-2)), integrated in t from 0 to
    phi_S (antiderivative, then the bound substituted) and projected back
    (t sent to 0)."""
    s = len(S)
    ext = angle_ring(ring.nvars - 1, extra="t")
    ti = ext.nvars - 1
    vq = quotient_poly.relabeled(ext, [0, *s_comp, ti])
    phi = phi_form(ext, S)
    t = ext.var(ti)
    kernel = (phi * phi - t * t) ** (s - 2) * t / F(factorial(s - 2) * 2 ** (s - 2))
    back = [ring.pi(), *map(ring.var, range(1, ring.nvars)), ring.zero()]
    return (vq * kernel).integrate_upper(ti, phi).compose(ring, back)


def test_closed_form_crossings_match_kernel_integral(empty_memos, monkeypatch):
    """Every integral that the crossing-orbit table computes for the chambers
    of D_{0,5}, D_{1,4}, D_{1,5} and D_{2,4}, from empty memos, equals the
    kernel integral of the same inputs."""
    integrated = []
    closed_form = volumes._wc_integral

    def recording(*args):
        wc = closed_form(*args)
        integrated.append((args, wc))
        return wc

    monkeypatch.setattr(volumes, "_wc_integral", recording)
    for g, n in [(0, 5), (1, 4), (1, 5), (2, 4)]:
        for c in enumerate_chambers(StabilitySpace(g, n)):
            chamber_volume(c)
    assert len(integrated) == len(volumes._crossing_orbits)
    assert {len(args[1]) for args, _ in integrated} == {2, 3, 4, 5}
    for args, wc in integrated:
        want = _kernel_wc_integral(*args)
        assert wc == want and wc.to_json_dict() == want.to_json_dict(), args[1:]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_form_matches_kernel_integral_on_random_quotients(data):
    """Small random quotient polys, homogeneous or not and with or without
    pi, with |S| = 2..4, the wall and the other angles on any variables, and
    at times one variable of the ring left to neither (as the derivative
    identity's crossing leaves the point it differentiates in)."""
    s = data.draw(st.integers(2, 4), label="s")
    m = data.draw(st.integers(0, 2), label="angles off the wall")
    n = s + m + data.draw(st.integers(0, 1), label="unused variables")
    labels = data.draw(st.permutations(range(1, n + 1)), label="labels")
    s_comp, S = labels[:m], labels[m : m + s]
    qring = angle_ring(m + 1)
    exps = st.tuples(*[st.integers(0, 4)] * (m + 2))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    items = data.draw(st.lists(st.tuples(exps, coeffs), max_size=6), label="terms")
    vq = sum((qring.monomial(c, e) for e, c in items), qring.zero())
    ring = angle_ring(n)
    assert _wc_integral(vq, S, s_comp, ring) == _kernel_wc_integral(vq, S, s_comp, ring)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_closed_form_of_the_zero_quotient_is_zero(s):
    ring, zero, S = angle_ring(s + 1), angle_ring(2).zero(), list(range(2, s + 2))
    assert _wc_integral(zero, S, [1], ring) == ring.zero() == _kernel_wc_integral(zero, S, [1], ring)


# -- point queries through one joined plan of path terms per chamber orbit ----------


def _fresh(poly):
    """A copy of ``poly`` with no evaluation plan yet."""
    return Poly.from_canonical(poly.ring, dict(poly.nums), poly.den)


def _query_points(c, rng):
    """Seeded interior points of ``c``, and the points with one weight raised
    to 1 (a zero angle) that still lie in ``c``."""
    point, slack = chambers.realize(c)
    n = c.space.n
    out = []
    for _ in range(2):
        delta = [F(rng.randint(0, 999), 1000) * slack / (2 * n) for _ in range(n)]
        w = WeightVector(c.space, tuple(a - d for a, d in zip(point, delta)))
        out.append(w)
        for j in range(n):
            raised = WeightVector(c.space, w.a[:j] + (F(1),) + w.a[j + 1 :])
            try:
                if classify(raised) == c:
                    out.append(raised)
            except OnWallError:
                pass
    return out


def test_orbit_evaluation_matches_own_volume(empty_memos, monkeypatch):
    """Queried in shuffled chamber order from empty memos, every chamber of
    D_{0,5}, D_{1,4}, D_{2,3} and D_{1,3} gives, formally and numerically,
    the value of its own volume at the query's angles, zero angles included,
    and one joined plan is built per chamber orbit."""
    spaces = [S05, StabilitySpace(1, 4), StabilitySpace(2, 3), StabilitySpace(1, 3)]
    rng = random.Random(20261018)
    chambers_all = [c for space in spaces for c in enumerate_chambers(space)]
    orbits = sum(len(enumerate_chambers(space, up_to_symmetry=True)) for space in spaces)
    rng.shuffle(chambers_all)
    queries = [(c, w) for c in chambers_all for w in _query_points(c, rng)]
    assert sum(F(1) in w.a for _, w in queries) > 100  # zero angles are exercised
    joined = []
    join = volumes._joined

    def recording(parts):
        joined.append(parts)
        return join(parts)

    monkeypatch.setattr(volumes, "_joined", recording)
    answers = [(c, w, piecewise_volume(w), piecewise_volume(w, numeric=True)) for c, w in queries]
    monkeypatch.setattr(volumes, "_joined", join)
    assert len(joined) == len(volumes._evaluation_orbits) == orbits
    for c, w, (got_c, vr, formal), (_, _, numeric) in answers:
        assert got_c == c and vr is volumes._volume_cache[c]
        want = _fresh(vr.poly).evaluate_angles(w.theta_values(vr.poly.ring))
        assert formal == want, (c, w)
        assert numeric == evaluate_pi_poly(want, 50), (c, w)


@pytest.mark.parametrize("g,n", [(0, 5), (1, 4), (2, 3), (1, 3)], ids=["D05", "D14", "D23", "D13"])
def test_numeric_query_equals_numeric_formal_value(g, n):
    """On every chamber, at seeded interior points and at those with a weight
    raised to 1, the numeric query, which never builds the value as a Poly,
    gives the Decimal of the formal value, digit for digit, at 1, 50 and 100
    digits."""
    rng = random.Random(20261019 + 10 * g + n)
    for c in enumerate_chambers(StabilitySpace(g, n)):
        for w in _query_points(c, rng)[:3]:
            got_c, _, formal = piecewise_volume(w)
            assert got_c == c
            for digits in (1, 50, 100):
                _, _, value = piecewise_volume(w, numeric=True, digits=digits)
                assert value.as_tuple() == evaluate_pi_poly(formal, digits).as_tuple(), (c, w, digits)


def test_clear_volume_cache_drops_every_evaluator(fresh_volume_caches):
    """After clear_volume_cache() no evaluator survives: the next query
    builds its evaluator from the chamber's recomputed volume."""
    w = WeightVector(S05, (F(9, 10), F(9, 10), F(2, 25), F(9, 10), F(3, 20)))
    c, before, value = piecewise_volume(w)
    assert c in volumes._evaluators and volumes._evaluation_orbits
    tables = (
        volumes._volume_cache,
        volumes._steps,
        volumes._crossing_cache,
        volumes._crossing_orbits,
        volumes._orbit_sources,
        volumes._kernels,
        volumes._evaluation_orbits,
        volumes._evaluators,
    )
    assert all(tables)
    clear_volume_cache()
    assert not any(tables)
    _, after, again = piecewise_volume(w)
    assert after is volumes._volume_cache[c] and after is not before
    assert again == value


PATH_SPACES = [S05, StabilitySpace(1, 4), StabilitySpace(2, 3), StabilitySpace(1, 3), StabilitySpace(1, 5)]


def test_path_values_equal_own_volume_values(empty_memos):
    """Every chamber of D_{0,5}, D_{1,4}, D_{2,3}, D_{1,3} and D_{1,5}, at a
    seeded interior point and at one with a weight raised to 1 (a zero
    angle) where one lies in it, gives formally and numerically exactly the
    value of its own memoized volume (``_point_value`` on that poly).  Half
    the chambers, drawn at random, are warmed first by ``chamber_volume``,
    whose climbs start from LP witnesses; the queries, in shuffled order,
    climb the others from memos that hold only what came before them."""
    rng = random.Random(20261022)
    queries = []
    for space in PATH_SPACES:
        for c in enumerate_chambers(space):
            first, *others = _query_points(c, rng)
            queries.append((c, first))
            queries.extend((c, w) for w in others[:1] if F(1) in w.a)
    assert sum(F(1) in w.a for _, w in queries) > 800  # zero angles are exercised
    warm = rng.sample(queries, len(queries) // 2)
    for c, _ in warm:
        chamber_volume(c)
    rng.shuffle(queries)
    for c, w in queries:
        got_c, vr, formal = piecewise_volume(w)
        _, _, numeric = piecewise_volume(w, numeric=True)
        assert got_c == c and vr is volumes._volume_cache[c]
        powers, den = volumes._point_value(vr.poly, w, range(c.space.n))
        assert formal == pi_poly(powers, den), (c, w)
        assert numeric == evaluate_pi_numerators(powers, den, 50), (c, w)


def test_point_queries_plan_no_chamber_volume(empty_memos, monkeypatch):
    """Point queries on every chamber of D_{0,5}, D_{1,4}, D_{2,3} and D_{1,3}
    run ``_plan`` on Mirzakhani's polynomials and the crossing kernels
    alone, never on the volume of a non-main chamber, and the joined plans
    hold the main chamber's plan and one kernel per step."""
    spaces = [S05, StabilitySpace(1, 4), StabilitySpace(2, 3), StabilitySpace(1, 3)]
    rng = random.Random(20261023)
    points = [_query_points(c, rng)[0] for space in spaces for c in enumerate_chambers(space)]
    planned = []
    build = poly_module._plan

    def recording(vecs, n):
        planned.append(vecs)
        return build(vecs, n)

    monkeypatch.setattr(poly_module, "_plan", recording)
    for w in points:
        piecewise_volume(w, numeric=True)
    monkeypatch.setattr(poly_module, "_plan", build)
    kernels = list(volumes._kernels.values())
    mains = [volumes._volume_cache[main_chamber(space)].poly for space in spaces]
    assert kernels and sorted(map(id, planned)) == sorted(id(p._vecs) for p in kernels + mains)
    assert not any(vr.poly._plan for c, vr in volumes._volume_cache.items() if c._masks)
