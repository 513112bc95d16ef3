"""Named verification checks: paper fixtures and structural invariants.

Each check compares engine output against an independently stated expected
value (closed forms, hand-integrated fixtures, combinatorial oracles) and
reports a machine-readable record.  ``CRITERIA`` groups the checks, with
their spaces bound, into the acceptance criteria, each with its suite and
runtime budget.  The CLI ``verify`` command runs the criteria of a suite and
exits nonzero if anything fails; the pytest acceptance suite runs the same
table, one test per criterion within its budget.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import comb, factorial, lcm
from operator import ne
from typing import Callable, Iterable, Iterator

from . import reference as ref
from .chambers import (
    Chamber,
    StabilitySpace,
    WeightVector,
    classify,
    enumerate_chambers,
    light_chamber,
    main_chamber,
    minimal_chamber_0,
    realize,
)
from .errors import NoFlatHullError, NotIncidentError, NotRealizableError
from .intersection import kappa_psi_intersection, psi_intersection
from .numeric import evaluate_pi_numerators
from .poly import Poly, PolyRing, angle_ring, phi_form
from .volumes import (
    _compositions,
    _integrate_crossing,
    _point_value,
    chamber_volume,
    cp1n_chamber,
    cp1n_volume,
    dilaton_check,
    eval_at_2pi,
    general_dilaton_check,
    losev_manin_chamber,
    losev_manin_volume,
    minimal_chamber_volume_closed,
    mirzakhani_volume,
    wall_crossing_poly,
)


@dataclass
class CheckResult:
    id: str
    description: str
    passed: bool
    expected: str
    computed: str

    def to_json_dict(self) -> dict:
        return asdict(self)


class Reporter:
    def __init__(self):
        self.results: list[CheckResult] = []

    def record(self, id: str, description: str, expected, computed) -> None:
        self.results.append(
            CheckResult(id, description, expected == computed, str(expected), str(computed))
        )

    def record_bool(self, id: str, description: str, ok: bool, detail: str = "") -> None:
        self.results.append(
            CheckResult(id, description, bool(ok), "pass", "pass" if ok else f"FAIL {detail}")
        )

    def record_cases(
        self, id: str, describe: Callable[[int], str], failures: Iterable[int], what: str
    ) -> None:
        """Record a check over cases: ``failures`` yields the failure count
        of each case, ``describe`` makes the description from the number of
        cases, and the check passes iff it met a case and no failure."""
        total = bad = 0
        for failed in failures:
            total += 1
            bad += failed
        self.record_bool(id, describe(total), bad == 0 and total > 0, f"{bad} {what}")


def _name(space: StabilitySpace) -> str:
    return f"D_({space.g},{space.n})"


# -- paper-fixture suite -------------------------------------------------------------


def _chambers_04() -> dict[str, Chamber]:
    s04 = StabilitySpace(0, 4)
    b0 = main_chamber(s04)
    b1 = b0.cross({3, 4})
    b2 = b1.cross({2, 4})
    return {"B0": b0, "B1": b1, "B2": b2, "B3": b2.cross({1, 4}), "B4": b2.cross({2, 3})}


def check_main_volumes(rep: Reporter) -> None:
    rep.record("P01a", "V_{0,3} = 1", ref.v_main_03(), mirzakhani_volume(0, 3).poly)
    rep.record("P01b", "V_{0,4} main chamber", ref.v_main_04(), mirzakhani_volume(0, 4).poly)
    rep.record("P01c", "V_{1,1} = (4pi^2-t^2)/48", ref.v_main_11(), mirzakhani_volume(1, 1).poly)
    rep.record("P01d", "V_{1,2} product formula", ref.v_main_12(), mirzakhani_volume(1, 2).poly)


def check_chambers_04(rep: Reporter) -> None:
    expected = ref.chamber_volumes_04()
    for name, c in _chambers_04().items():
        rep.record(
            f"P02{name}", f"(0,4) chamber volume {name}", expected[name], chamber_volume(c).poly
        )


def check_wall_crossings_04(rep: Reporter) -> None:
    cs = _chambers_04()
    for (name, wall), expected in ref.wall_crossings_04().items():
        got = wall_crossing_poly(cs[name], set(wall)).poly
        rep.record(f"P03.{name}.{wall}", f"(0,4) wc from {name} across {wall}", expected, got)


def check_12(rep: Reporter) -> None:
    s12 = StabilitySpace(1, 2)
    rep.record(
        "P04a",
        "(1,2) wall-crossing polynomial",
        ref.wall_crossing_12(),
        wall_crossing_poly(main_chamber(s12), {1, 2}).poly,
    )
    rep.record(
        "P04b",
        "(1,2) light-chamber volume",
        ref.v_light_12(),
        chamber_volume(light_chamber(s12)).poly,
    )


def check_05_s3(rep: Reporter) -> None:
    expected = ref.wall_crossing_05_s3()

    def failures():
        for c in enumerate_chambers(StabilitySpace(0, 5)):
            try:
                yield wall_crossing_poly(c, {3, 4, 5}).poly != expected
            except (NotIncidentError, NotRealizableError):
                continue

    rep.record_cases(
        "P05",
        lambda total: f"(0,5) |S|=3 crossing equals closed form from all {total} chambers above",
        failures(),
        "mismatches",
    )


def check_05_s2_cases(rep: Reporter) -> None:
    s05 = StabilitySpace(0, 5)
    expected = ref.wall_crossing_05_cases()
    for case, weights in ref.case_weights_05().items():
        c = classify(WeightVector(s05, weights))
        got = wall_crossing_poly(c, {4, 5}).poly
        rep.record(f"P06.case{case}", f"(0,5) |S|=2 case {case}", expected[case], got)


def _psi0_by_string(d: tuple[int, ...]) -> Fraction:
    """Genus-0 correlator via the string equation only (independent oracle)."""
    d = tuple(sorted(d))
    if d == (0, 0, 0):
        return Fraction(1)
    assert d[0] == 0, "dimension-matched genus-0 indices always carry a zero"
    rest = d[1:]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        if dj >= 1:
            total += _psi0_by_string(rest[:j] + (dj - 1,) + rest[j + 1 :])
    return total


def check_intersections(rep: Reporter) -> None:
    for g, m, d, want in ref.INTERSECTION_ANCHORS:
        got = (
            psi_intersection(g, d) if m == 0 else kappa_psi_intersection(g, m, d)
        )
        rep.record(f"P07.anchor.g{g}m{m}d{''.join(map(str, d))}", "intersection anchor", want, got)

    def failures():
        for n in range(3, 9):
            for d in _compositions(n - 3, n):
                if list(d) != sorted(d):
                    continue  # each multiset of indices once, ascending
                closed = Fraction(factorial(n - 3))
                for x in d:
                    closed /= factorial(x)
                yield psi_intersection(0, d) != closed or _psi0_by_string(d) != closed

    rep.record_cases(
        "P07.genus0",
        lambda total: f"genus-0 closed form vs string-only derivation on {total} indices (n<=8)",
        failures(),
        "mismatches",
    )


def check_closed_forms(rep: Reporter) -> None:
    for n in range(4, 7):
        closed = minimal_chamber_volume_closed(n, 1).poly
        eng = chamber_volume(minimal_chamber_0(StabilitySpace(0, n), 1)).poly
        rep.record(f"P08.n{n}", f"minimal-chamber closed form n={n}", closed, eng)
    for n in range(2, 5):
        closed = losev_manin_volume(n)
        eng = chamber_volume(losev_manin_chamber(n)).poly
        dst = closed.ring
        images = (
            [dst.pi()]
            + [dst.two_pi() - 2 * dst.pi() * dst.var(j) for j in range(1, n + 1)]
            + [dst.zero(), dst.zero()]
        )
        rep.record(f"P09.n{n}", f"Losev-Manin closed form n={n}", closed, eng.compose(dst, images))
    for n in range(1, 4):
        closed = cp1n_volume(n)
        eng = chamber_volume(cp1n_chamber(n)).poly
        dst = closed.ring
        images = [dst.pi()] + [
            dst.two_pi() - 2 * dst.pi() * dst.var(j) for j in range(1, n + 4)
        ]
        rep.record(f"P10.n{n}", f"(CP^1)^n closed form n={n}", closed, eng.compose(dst, images))


def check_cayley(rep: Reporter) -> None:
    ring = PolyRing(("pi", "e"))

    def v(k: int):
        if k == 1:
            return ring.one()
        return losev_manin_volume(k).compose(ring, [ring.pi()] + [ring.var(1)] * k)

    for n in range(3, 7):
        lhs = v(n)
        terms = (Fraction(i * (n - i), n - 1) * comb(n, i) * v(i) * v(n - i) for i in range(1, n))
        rhs = sum(terms, ring.zero()) * (2 * ring.pi() * ring.var(1)) ** 2 / 2
        rep.record(f"P11.n{n}", f"Cayley tree recursion for equal-weight LM volumes n={n}", lhs, rhs)


def check_limits(rep: Reporter, spaces: Iterable[StabilitySpace]) -> None:
    for space in spaces:
        rep.record_cases(
            f"P12.light.{space.g}.{space.n}",
            lambda total: f"2pi limit vanishes at all {total} light coordinates of {_name(space)}",
            (
                not eval_at_2pi(chamber_volume(c), i).is_zero()
                for c in enumerate_chambers(space)
                for i in space.labels
                if c.is_light(i)
            ),
            "nonzero",
        )


def check_limits_12(rep: Reporter) -> None:
    """The (g,2) corollary limits for g=1, in the main and the light chamber."""
    # limitdil1 for the main chamber of (1,2): each term c pi^a t^k of
    # V_{1,1}, times t and integrated from 0 to t1, is c/(k+2) pi^a t1^(k+2)
    r2 = angle_ring(2)
    lhs = eval_at_2pi(mirzakhani_volume(1, 2), 2)
    v11 = mirzakhani_volume(1, 1).poly
    rhs = Poly(r2, {(a, k + 2, 0): -c / (k + 2) for (a, k), c in v11.terms.items()})
    rep.record("P12.limitdil1", "V_{1,2}(i t1, 2 pi i) = -int_0^{t1} t V_{1,1}(it) dt", rhs, lhs)
    # corollary (g,2) for g=1: derivative limits of both polynomials
    s12 = StabilitySpace(1, 2)
    vm = mirzakhani_volume(1, 2).poly
    got = vm.diff(2).subs(2, r2.two_pi())
    v11_in2 = v11.relabeled(r2, [0, 1])
    rep.record(
        "P12.dilmirz12",
        "d V^Mirz_{1,2}/d t2 at 2pi = 2pi(1-2g) V_{1,1}",
        -r2.two_pi() * v11_in2,
        got,
    )
    vl = chamber_volume(light_chamber(s12)).poly
    got = vl.diff(2).subs(2, r2.two_pi())
    rep.record(
        "P12.dillight12",
        "d V_{1,CL}/d t2 at 2pi = (2pi(1-2g)+t1) V_{1,1}",
        (-r2.two_pi() + r2.var(1)) * v11_in2,
        got,
    )


def check_dilaton(rep: Reporter, spaces: Iterable[StabilitySpace]) -> None:
    for space in spaces:
        rep.record_cases(
            f"P13.{space.g}.{space.n}",
            lambda total: f"dilaton identity at all {total} flat coordinates of {_name(space)}",
            (
                ne(*dilaton_check(c, i))
                for c in enumerate_chambers(space)
                for i in space.labels
                if c.is_flat(i)
            ),
            "mismatches",
        )


def check_general_dilaton(rep: Reporter, space: StabilitySpace) -> None:
    def failures():
        for c in enumerate_chambers(space):
            for i in space.labels:
                if c.is_flat(i):
                    continue
                try:
                    yield ne(*general_dilaton_check(c, i))
                except (NoFlatHullError, NotRealizableError):
                    continue

    rep.record_cases(
        "P14",
        lambda total: f"general dilaton identity on {total} non-flat coordinates of {_name(space)}",
        failures(),
        "mismatches",
    )


# -- invariants suite ------------------------------------------------------------------


def _incident_walls(c: Chamber):
    """The walls W_S that ``c.cross`` accepts, each with the chamber below:
    (S, c.cross(S)) for the minimal heavy sets S whose chamber below is
    realizable."""
    for S in c.heavy_min():
        try:
            below = c.cross(S)
        except NotRealizableError:
            continue
        yield S, below


def _lift_failures(
    space: StabilitySpace, failures: Callable[[Poly, frozenset[int]], int]
) -> Iterator[int]:
    """The failures of every incident wall of every chamber of ``space``, a
    wall with crossing wc counting ``failures(_phi_lift(wc, S), S)``.

    Chambers with equal quotients C/S read one memoized wc, so the count is
    taken once per distinct (wc, S) read.  The key is the polynomial read,
    not C/S, so a crossing that differs from its quotient's is judged on
    its own."""
    seen: dict[tuple[Poly, frozenset[int]], int] = {}
    for c in enumerate_chambers(space):
        for S, _ in _incident_walls(c):
            key = (wall_crossing_poly(c, S).poly, S)
            verdict = seen.get(key)
            if verdict is None:
                verdict = seen[key] = failures(_phi_lift(*key), S)
            yield verdict


def _nonvanishing(lifted: Poly, S: frozenset[int]) -> bool:
    """I01's verdict on one lifted crossing: a term of u-degree 0 or 1."""
    u = lifted.ring.nvars - 1
    return any(e[u] < 2 for e in lifted.nums)


def check_continuity(rep: Reporter, spaces: Iterable[StabilitySpace]) -> None:
    """wc_{C,S} and all its first partials vanish on W_S: no term of the lift
    f = ``_phi_lift(wc, S)`` has u-degree 0 or 1.  The verdict is taken once
    per distinct crossing (``_lift_failures``), and counted on every wall.

    theta -> (y, u), y = theta without theta_k, is affine and invertible, so
    wc and grad wc vanish on W_S iff f and grad_(y,u) f vanish on u = 0.
    f(y, 0) is the u^0 part of f and df/du(y, 0) its u^1 part, and the
    y-partials vanish with f(y, 0).  So the two agree for every polynomial."""
    for space in spaces:
        rep.record_cases(
            f"I01.{space.g}.{space.n}",
            lambda total: f"wc and all partials vanish on their wall ({total} walls of {_name(space)})",
            _lift_failures(space, _nonvanishing),
            "walls nonvanishing",
        )


def check_path_independence(rep: Reporter, spaces: Iterable[StabilitySpace]) -> None:
    """V_C + wc_{C,S} = V_{C.cross(S)} on every wall of every chamber.

    Every path of simple crossings from the main chamber is a chain of such
    edges, so the volume is the same along all of them.  Each crossing is
    integrated afresh, so the check never compares the memo with itself.
    """
    for space in spaces:
        rep.record_cases(
            f"I02.{space.g}.{space.n}",
            lambda total: f"path independence on {total} walls of {_name(space)}",
            (
                chamber_volume(c).poly + _integrate_crossing(c, S) != chamber_volume(below).poly
                for c in enumerate_chambers(space)
                for S, below in _incident_walls(c)
            ),
            "mismatches",
        )


def check_quotient_crossing_equality(rep: Reporter, space: StabilitySpace) -> None:
    """Chambers with equal quotients C/S have identical wc_{.,S} (corollary).

    Each crossing is integrated afresh: the wall-crossing memo is keyed by
    (C/S, S), so reading it here would compare it with itself.
    """
    groups: dict[tuple, list] = {}
    for c in enumerate_chambers(space):
        for S, _ in _incident_walls(c):
            key = (tuple(sorted(S)), c.quotient(S))
            groups.setdefault(key, []).append(_integrate_crossing(c, S))
    bad = sum(
        1 for polys in groups.values() if any(p != polys[0] for p in polys[1:])
    )
    nontrivial = sum(1 for polys in groups.values() if len(polys) > 1)
    rep.record_bool(
        "I06",
        f"equal quotients give equal crossings: {len(groups)} (wall, quotient) classes, "
        f"{nontrivial} with several chambers above, on {_name(space)}",
        bad == 0 and nontrivial > 0,
        f"{bad} classes disagree",
    )


def check_quotient_equivalence(rep: Reporter, space: StabilitySpace) -> None:
    """Prop: for chambers separated by W_T, (T meets S) iff equal quotients by S."""
    quotient_sets = [S for S in space.subsets() if space.n - len(S) + 1 >= 3]
    cs = enumerate_chambers(space)
    quotients = {c: [c.quotient(S) for S in quotient_sets] for c in cs}  # once per chamber
    rep.record_cases(
        "I03",
        lambda total: f"quotient-equivalence criterion on {total} (pair, S) cases of {_name(space)}",
        (
            bool(T & S) != (q1 == q2)
            for c1 in cs
            for T, c2 in _incident_walls(c1)
            for S, q1, q2 in zip(quotient_sets, quotients[c1], quotients[c2])
        ),
        "failures",
    )


def _phi_lift(poly: Poly, S: frozenset[int]) -> Poly:
    """``poly`` in the ring extended by u, with theta_k = u + 2 pi(|S|-1) -
    sum_{j in S-k} theta_j substituted for k = min(S), which turns phi_S
    into the variable u."""
    n = poly.ring.nvars - 1
    ext = angle_ring(n, extra="u")
    k = min(S)
    rel = ext.var(n + 1) + ext.two_pi() - phi_form(ext, S - {k})
    return poly.relabeled(ext, range(n + 1)).subs(k, rel)


def _evenness_failures(lifted: Poly, S: frozenset[int]) -> int:
    """I04's failures on one lifted crossing: one for a u-degree that is odd
    or below 2, one for a term with some theta_j, j in S other than min(S)."""
    u = lifted.ring.nvars - 1
    k = min(S)
    keys = lifted.nums
    odd = any(e[u] % 2 or e[u] < 2 for e in keys)
    return odd + any(e[j] for e in keys for j in S if j != k)


def check_evenness(rep: Reporter, spaces: Iterable[StabilitySpace]) -> None:
    """wc is an even polynomial of degree >= 2 in phi_S with theta_{S^c} coefficients.

    ``_phi_lift`` replaces theta_k, k = min(S), by a form without theta_k, so
    only the other theta_j of S can appear in a lifted term.  The verdict is
    taken once per distinct crossing (``_lift_failures``), and counted on
    every wall."""
    rep.record_cases(
        "I04",
        lambda total: f"wall-crossings are even polynomials in phi of degree >= 2 ({total} walls)",
        chain.from_iterable(_lift_failures(space, _evenness_failures) for space in spaces),
        "failures",
    )


def check_positivity(rep: Reporter, spaces: Iterable[StabilitySpace]) -> None:
    """The volume is positive at 20 random interior points of every chamber,
    each evaluated to 50 digits.

    The points a_j - r_j / 1000 * slack / (2n), r_j in 0..999, around the
    chamber's LP witness are built as ints over one denominator, and each
    is evaluated on the chamber's own volume in integers (``_point_value``).
    A point that ``classify`` puts in another chamber fails.
    """
    rng = random.Random(20260808)

    def failures(space: StabilitySpace):
        n = space.n
        for c in enumerate_chambers(space):
            point, slack = realize(c)
            poly = chamber_volume(c).poly
            scale = 2000 * n * slack.denominator
            den = lcm(scale, *(x.denominator for x in point))
            base = [x.numerator * (den // x.denominator) for x in point]
            step = slack.numerator * (den // scale)
            for _ in range(20):
                nums = [k - rng.randint(0, 999) * step for k in base]
                w = WeightVector._from_ints(space, nums, den)
                if classify(w) != c:
                    yield True
                else:
                    yield not evaluate_pi_numerators(*_point_value(poly, w, range(n)), 50) > 0

    for space in spaces:
        rep.record_cases(
            f"I05.{space.g}.{space.n}",
            lambda total: f"positivity at {total} random interior points of {_name(space)}",
            failures(space),
            "failures",
        )


# -- the criterion table -------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """An acceptance criterion: checks, with their spaces bound, that run in
    ``suite`` and together stay within ``budget`` seconds."""

    number: int
    suite: str
    budget: float
    checks: tuple[Callable[[Reporter], None], ...]

    def run(self, rep: Reporter) -> None:
        for check in self.checks:
            check(rep)


D04, D05, D12 = StabilitySpace(0, 4), StabilitySpace(0, 5), StabilitySpace(1, 2)
D13, D14, D23 = StabilitySpace(1, 3), StabilitySpace(1, 4), StabilitySpace(2, 3)

CRITERIA: tuple[Criterion, ...] = (
    # V_{0,3} = 1, V_{0,4}, V_{1,1} = (4pi^2-t^2)/48, V_{1,2}
    Criterion(1, "paper", 5, (check_main_volumes,)),
    # five (0,4) chamber volumes and the four listed wall-crossings
    Criterion(2, "paper", 5, (check_chambers_04, check_wall_crossings_04)),
    # (1,2) wall-crossing and light chamber, and the (g,2) corollary limits
    Criterion(3, "paper", 5, (check_12, check_limits_12)),
    # (0,5): |S|=3 crossing from every chamber above it, four |S|=2 cases
    Criterion(4, "paper", 30, (check_05_s3, check_05_s2_cases)),
    # minimal chamber n=4,5,6; Losev-Manin n<=4; (CP^1)^n n<=3; Cayley n<=6
    Criterion(5, "paper", 180, (check_closed_forms, check_cayley)),
    # 2pi vanishing at light coordinates, dilaton at flat ones, general dilaton
    Criterion(
        6,
        "paper",
        120,
        (
            partial(check_limits, spaces=(D04, D05, D12)),
            partial(check_dilaton, spaces=(D05, D12)),
            partial(check_general_dilaton, space=D05),
        ),
    ),
    # backend anchors and the genus-0 closed form for all n <= 8
    Criterion(7, "paper", 30, (check_intersections,)),
    # continuity and differentiability at every wall, path independence,
    # quotient criteria, evenness, positivity at 20 interior points per chamber
    Criterion(
        8,
        "invariants",
        300,
        (
            partial(check_continuity, spaces=(D04, D12, D05, D13, D14, D23)),
            partial(check_path_independence, spaces=(D04, D12, D05, D13, D14, D23)),
            partial(check_quotient_equivalence, space=D05),
            partial(check_quotient_crossing_equality, space=D05),
            partial(check_evenness, spaces=(D04, D12, D13, D14, D23)),
            partial(check_positivity, spaces=(D05, D12, D23, D13, D14)),
        ),
    ),
)

SUITES: tuple[str, ...] = tuple(dict.fromkeys(c.suite for c in CRITERIA))


def run(suite: str = "all") -> list[CheckResult]:
    """The sorted results of the criteria of ``suite``, or of all of them."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose {', '.join(SUITES)}, all)")
    rep = Reporter()
    for criterion in CRITERIA:
        if suite in ("all", criterion.suite):
            criterion.run(rep)
    rep.results.sort(key=lambda r: r.id)
    return rep.results
