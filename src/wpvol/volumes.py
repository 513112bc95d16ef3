"""The volume engine.

Main-chamber polynomials come from exact intersection numbers:

    V_{g,n}(i theta) = sum_{m + |alpha| = d}  (2 pi^2)^m / m!
                       * prod_j (-theta_j^2/2)^{alpha_j} / alpha_j!
                       * <kappa_1^m psi^alpha>_{g,n},          d = 3g-3+n,

using 2 pi^2 (1-a_j)^2 = theta_j^2 / 2.  Every other chamber volume is the
main-chamber polynomial plus the wall-crossing polynomials along a path of
simple crossings; a wall-crossing across W_S is the exact integral

    wc_{C,S} = 1/((s-2)! 2^(s-2)) * int_0^{phi_S}
               V_{g,C/S}(i theta_{S^c}, i t) (phi_S^2 - t^2)^(s-2) t dt,

with s = |S| and phi_S = sum_{j in S} theta_j - 2 pi (s-1).  The quotient
volume is computed recursively by the same engine (the merged point is
labelled last and bound to the integration variable), so the recursion
strictly reduces n and bottoms out at one-chamber spaces.  The integral is a
Beta integral and is computed in closed form: with m = s - 2,

    int_0^phi t^(k+1) (phi^2 - t^2)^m dt = m! 2^m phi^(k+2m+2) / prod_{i=0}^m (k+2+2i),

because expanding (phi^2 - t^2)^m binomially leaves phi^(k+2m+2) times
sum_i (-1)^i C(m,i) / (k+2+2i), and sum_i (-1)^i C(m,i) / (y+i) =
m! / (y (y+1) ... (y+m)) at y = k/2 + 1.  The m! 2^m cancels the prefactor,
so with c_k the coefficient of t^k in V_{g,C/S},

    wc_{C,S} = sum_k c_k(pi, theta_{S^c}) phi_S^(k+2s-2) / prod_{i=0}^{s-2} (k+2+2i),

an identity of polynomials; ``_wc_integral`` expands phi_S^(k+2s-2) once per
crossing and forms no kernel product and no antiderivative.

The path is built from the chamber upward, one uncrossing at a time
(``chambers.last_crossing``), and the recursion carries a point a = nums / den
of the chamber.  An uncrossing already known to be realizable comes first.
Otherwise the wall is the one that the segment from a to (1, ..., 1), a point
of the main chamber, crosses first, a tie broken exactly by a perturbation of
a (``chambers._crossing_order``); the chambers the segment passes through are
realizable, by points of the segment, so no LP is solved on the way (the
proof is in the ``chambers`` module docstring).  The point is kept up the
segment; a chamber picked off it climbs on from its memoized witness.  Point
queries start from their weight vector, ``chamber_volume`` from the witness
of the chamber's realizability LP, which a main chamber, holding (1, ..., 1),
does not need.

Volumes are memoized per chamber.  Crossings are memoized per (C/S, S) and,
below that, per key orbit: relabeling the points that fix the merged one is a
symmetry, and phi_S is symmetric in S, so wc depends only on the space of
C/S, on s and on the orbit of C/S.  One integral is computed per key orbit,
in the labels of its key, and relabeled (``Poly.relabeled``) for every key
in it; keyed by ``chambers._sorted_key``, as are the realizability and
evaluation orbit tables, so this holds at every n.  The identity checks
integrate through ``_integrate_crossing``, which neither table calls.
Point queries (``piecewise_volume``) evaluate no chamber volume but its path
terms.  The climb records the step each volume was built from
(``_steps``), so a volume is Mirzakhani's polynomial plus the crossings of
the steps up to the main chamber.  By the closed form a crossing at a point
is its kernel K_S / L_S (``_wc_kernel``) at t = phi_S, the other angles read
from theta_{S^c}: the quotient volume with each t^k scaled by L_S / P_k and
raised by t^(2s-2), P_k = prod_{i=0}^{s-2} (k+2+2i) and L_S their lcm, a
poly the size of the quotient volume rather than of the expanded crossing.
One kernel is built per crossing key orbit, from the quotient whose volume
that orbit's integral came from, when a query first needs it.  Mirzakhani's
plan and the kernels' plans, each phi_S an extra angle, are joined into one
plan per S_n orbit of chambers (``poly._joined``) and evaluated at the
angles permuted.  The value is that of the sum the memoized volume was
built as, term for term, and that volume is still the one returned.

Also here: closed-form chamber volumes (genus-0 minimal chamber, Losev-Manin,
(CP^1)^n), the 2 pi limit (light coordinates), and the dilaton-type derivative
identities.  Identity checks return both sides as exact polynomials so a
failure is diagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import comb, factorial, lcm
from operator import add, itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .chambers import (
    Chamber,
    CrossingPath,
    Point,
    StabilitySpace,
    WeightVector,
    _cached_point,
    _label_mask,
    _sorted_key,
    classify,
    crossing_path,
    flat_hull,
    last_crossing,
    light_hull,
    main_chamber,
    minimal_chamber_0,
)
from .errors import NotRealizableError, UnstableError, WpvolError
from .intersection import kappa_psi_intersection
from .numeric import evaluate_pi_numerators
from .poly import Poly, PolyRing, _joined, _Plan, _vectors, angle_ring, phi_form, pi_poly
from .rationals import check_int

PROV_MAIN = "main-chamber-intersection"
PROV_PATH = "wall-crossing-path"


@dataclass(frozen=True)
class VolumeResult:
    """A chamber volume polynomial in the variables (pi, t1..tn)."""

    chamber: Chamber
    poly: Poly
    provenance: str

    def to_json_dict(self) -> dict:
        return {
            "chamber": self.chamber.to_json_dict(),
            "poly": self.poly.to_json_dict(),
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class WallCrossingPoly:
    """wc_{C,S}: the jump of the volume when crossing W_S downward from C."""

    chamber_above: Chamber
    wall: frozenset[int]
    poly: Poly

    @property
    def phi(self) -> Poly:
        """phi_S = sum_{j in S} theta_j - 2 pi (|S| - 1), built on each read."""
        return phi_form(angle_ring(self.chamber_above.space.n), self.wall)

    def to_json_dict(self) -> dict:
        return {
            "chamber": self.chamber_above.to_json_dict(),
            "wall": sorted(self.wall),
            "poly": self.poly.to_json_dict(),
            "phi": self.phi.to_json_dict(),
        }


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def mirzakhani_volume(g: int, n: int) -> VolumeResult:
    """The main-chamber (Mirzakhani) volume polynomial V_{g,n}(i theta)."""
    space = StabilitySpace(g, n)  # validates stability
    ring = angle_ring(n)
    d = 3 * g - 3 + n
    # the coefficient 2^m / m! * <...> * prod (-1)^a / (2^a a!) as p / q, with
    # |alpha| = d - m; (m, alpha) -> (2m, 2 alpha) is injective, so no merging
    terms = {}
    for m in range(d + 1):
        sign = (-1) ** (d - m)
        for alpha in _compositions(d - m, n):
            num = kappa_psi_intersection(g, m, alpha)
            if num == 0:
                continue
            q = factorial(m) * 2 ** (d - m) * num.denominator
            for a in alpha:
                q *= factorial(a)
            terms[(2 * m,) + tuple(2 * a for a in alpha)] = sign * 2**m * num.numerator, q
    den = lcm(*(q for _, q in terms.values()))
    nums = {e: p * (den // q) for e, (p, q) in terms.items()}
    return VolumeResult(main_chamber(space), Poly.from_canonical(ring, nums, den), PROV_MAIN)


# -- wall crossing -----------------------------------------------------------------


@cache
def _multinomials(s: int, i: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The exponent tuples beta of length s and sum i, and the coefficients
    i! / prod beta_j!: the terms of (x_1 + ... + x_s)^i, as C(i, b) times
    the terms of (x_2 + ... + x_s)^(i-b) for each power b of x_1."""
    if s == 1:
        return ((i,),), (1,)
    betas: list[tuple[int, ...]] = []
    coeffs: list[int] = []
    for b in range(i + 1):
        rest, ms = _multinomials(s - 1, i - b)
        betas.extend((b,) + r for r in rest)
        coeffs.extend(comb(i, b) * m for m in ms)
    return tuple(betas), tuple(coeffs)


@cache
def _phi_row(s: int, k: int) -> tuple[int, tuple[int, ...]]:
    """(P, row) for t^k in the quotient volume: the divisor
    P = prod_{i=0}^{s-2} (k + 2 + 2i) of phi_S^N, N = k + 2s - 2, and the
    coefficients C(N, i) (-2(s-1))^(N-i) of sigma^i pi^(N-i) in phi_S^N."""
    N = k + 2 * s - 2
    P = 1
    for i in range(s - 1):
        P *= k + 2 + 2 * i
    return P, tuple(comb(N, i) * (-2 * (s - 1)) ** (N - i) for i in range(N + 1))


def _wc_integral(
    quotient_poly: Poly, S: Sequence[int], s_comp: Sequence[int], ring: PolyRing
) -> Poly:
    """The wall-crossing polynomial in ``ring``, in closed form.

    ``quotient_poly`` is the volume of the quotient chamber (merged point
    last) on 1 + len(s_comp) + 1 variables; ``S`` holds the variables of the
    wall set, ``s_comp`` those that carry the other angles, in the order of
    the quotient's variables.  With m = s - 2 and c_k the coefficient of t^k
    in the quotient volume (a polynomial in pi and theta_{S^c}),

        int_0^phi t^(k+1) (phi^2 - t^2)^m dt = m! 2^m phi^(k+2m+2) / prod_{i=0}^m (k+2+2i),

    since expanding (phi^2 - t^2)^m gives phi^(k+2m+2) sum_i (-1)^i C(m,i)
    / (k+2+2i), and sum_i (-1)^i C(m,i) / (y+i) = m! / (y (y+1) ... (y+m))
    at y = k/2 + 1.  The m! 2^m cancels the prefactor, so

        wc = sum_k c_k phi_S^(k+2s-2) / prod_{i=0}^{s-2} (k+2+2i).

    With phi_S = sigma - 2(s-1) pi, sigma = sum_{j in S} theta_j, a term
    pi^a theta^alpha t^k sends pi^(a+k+2s-2-i) theta^alpha sigma^i to the
    output with an integer weight (``_phi_row``) over the lcm L of the
    divisors, so the terms are grouped by (alpha, a + k) and each group gives
    one coefficient per i; sigma^i expands by multinomials over S
    (``_multinomials``).  Every output monomial is then written exactly once.
    """
    s = len(S)
    nvars = ring.nvars
    keys, vals = quotient_poly._support()
    rows = {k: _phi_row(s, k) for k in {e[-1] for e in keys}}
    L = lcm(*(P for P, _ in rows.values()))
    top = 2 * s - 2
    groups: dict[tuple[int, ...], list[int]] = {}  # (a + k, *alpha) -> coefficients of sigma^i by i
    for e, c in zip(keys, vals):
        k = e[-1]
        P, row = rows[k]
        group = (e[0] + k,) + e[1:-1]
        out = groups.get(group)
        if out is None:  # k <= a + k, so sigma^i has i <= a + k + 2s - 2
            out = groups[group] = [0] * (group[0] + top + 1)
        out[: len(row)] = map(add, out, map(mul, row, repeat(c * (L // P))))
    # each output exponent tuple is a gather from (0, pi exponent, *alpha, *beta)
    source = [0] * nvars  # a variable in neither S nor s_comp reads the 0
    source[0] = 1
    for j, p in enumerate(chain(s_comp, S)):
        source[p] = j + 2
    place = itemgetter(*source)
    out_keys: list[tuple[int, ...]] = []
    out_vals: list[int] = []
    for group, coeffs in groups.items():
        r, alpha = group[0], group[1:]
        for i, x in enumerate(coeffs):
            if x:
                betas, ms = _multinomials(s, i)
                out_keys.extend(map(place, map(((0, r + top - i) + alpha).__add__, betas)))
                out_vals.extend(map(mul, ms, repeat(x)))
    return Poly._reduced(ring, _vectors(nvars, out_keys, out_vals), quotient_poly.den * L)


def _integrate_crossing(c: Chamber, S: frozenset[int]) -> Poly:
    """wc_{C,S} integrated afresh from the quotient volume, bypassing the memo.

    The identity checks (path independence, equal quotients give equal
    crossings) compute through this, so they never compare the memo with
    itself.  ``c`` must be incident to and above W_S.
    """
    vq = chamber_volume(c.quotient(S)).poly
    comp = sorted(set(c.space.labels) - S)
    return _wc_integral(vq, sorted(S), comp, angle_ring(c.space.n))


# wc_{C,S} depends on C only through the quotient C/S (the paper's corollary),
# so one integral serves every chamber above W_S with the same quotient.
# Per (C/S, S): the crossing and its path term (``_Term``), one lookup.
_crossing_cache: dict[tuple[Chamber, frozenset[int]], tuple[Poly, _Term]] = {}
# Relabeling the points that fix the merged one maps C/S to another quotient
# and wc to the relabeled wc, and phi_S is symmetric in S, so wc depends only
# on (space of C/S, |S|, orbit of C/S).  Keyed so, by the sorted key of C/S
# with the merged label kept last (``chambers._sorted_key``, ``merged_last``),
# wc in the reference labelling: the complement of S in the order of that
# key, then S.
_crossing_orbits: dict[tuple[StabilitySpace, int, tuple[int, ...]], Poly] = {}
# Per key orbit: the quotient its integral was computed from, and that
# quotient's sorting permutation; kernels are built in its labels.
_orbit_sources: dict[tuple[StabilitySpace, int, tuple[int, ...]], tuple[Chamber, tuple[int, ...]]] = {}


class _Term(NamedTuple):
    """wc_{C,S} as a path term of a point query: the kernel of ``source``
    (``_kernel``), a quotient in the key orbit of C/S, its angle variable
    j < last reading the angle of C at position reads[j - 1] and its last
    variable phi_S, S given by the positions ``wall`` (0 for label 1)."""

    source: Chamber
    reads: tuple[int, ...]
    wall: tuple[int, ...]


# Per (quotient, |S|): the kernel K_S / L_S of ``_wc_kernel``, built when a
# path plan first needs it.
_kernels: dict[tuple[Chamber, int], Poly] = {}


def wall_crossing_poly(c: Chamber, S: Iterable[int]) -> WallCrossingPoly:
    """wc_{C,S} for a chamber incident to and above W_S.

    Memoized under (C/S, S).
    """
    S = frozenset(S)
    c.cross(S)  # validates incidence and realizability below
    return WallCrossingPoly(c, S, _crossing(c, S)[0])


def _crossing(c: Chamber, S: frozenset[int]) -> tuple[Poly, _Term]:
    """The memoized wc_{C,S} and its path term, for c known to be incident
    to and above W_S.

    Read from the exact (C/S, S) table; on a miss, relabeled from the
    key-orbit table, and integrated once per key orbit.
    """
    quotient = c.quotient(S)
    key = (quotient, S)
    got = _crossing_cache.get(key)
    if got is None:
        got = _crossing_cache[key] = _orbit_crossing(c, S, quotient)
    return got


def _orbit_crossing(c: Chamber, S: frozenset[int], quotient: Chamber) -> tuple[Poly, _Term]:
    """wc_{C,S} through the key-orbit table, and its path term; ``quotient``
    is C/S.  A miss integrates in the reference labelling (label j of C/S is
    variable perm[j-1] + 1, S the last |S|); hit and miss relabel it to
    ``c``."""
    form, perm, order = _sorted_key(quotient, merged_last=True)
    ring = angle_ring(c.space.n)
    key = (quotient.space, len(S), form)
    ref = _crossing_orbits.get(key)
    if ref is None:
        vq = chamber_volume(quotient).poly
        s_ref = range(len(perm), c.space.n + 1)
        ref = _crossing_orbits[key] = _wc_integral(vq, s_ref, [p + 1 for p in perm[:-1]], ring)
        _orbit_sources[key] = quotient, perm
    source, source_perm = _orbit_sources[key]
    # reference variable i <= n - |S| is label order[i-1] + 1 of C/S, comp[order[i-1]] of c;
    # label j of the source is reference variable source_perm[j-1] + 1
    comp = sorted(set(c.space.labels) - S)
    wall = sorted(S)
    poly = ref.relabeled(ring, [0, *(comp[i] for i in order[:-1]), *wall])
    reads = tuple(comp[order[p]] - 1 for p in source_perm[:-1])
    return poly, _Term(source, reads, tuple(j - 1 for j in wall))


def _kernel(source: Chamber, s: int) -> Poly:
    """The memoized ``_wc_kernel`` of the volume of the quotient ``source``."""
    kernel = _kernels.get((source, s))
    if kernel is None:
        kernel = _kernels[source, s] = _wc_kernel(chamber_volume(source).poly, s)
    return kernel


def _wc_kernel(quotient_poly: Poly, s: int) -> Poly:
    """K_S / L_S: the quotient volume with each t^k (t its last variable)
    sent to L_S / P_k * t^(k + 2s - 2), over L_S, P_k = prod_{i=0}^{s-2}
    (k + 2 + 2i) and L_S their lcm.  By the closed form (module docstring)
    wc_{C,S} is this poly with t set to phi_S and the other angles read from
    theta_{S^c}, so at a point it needs only this poly, which is the size of
    the quotient volume, and no expanded phi_S power.
    """
    keys, vals = quotient_poly._support()
    divisors = {k: _phi_row(s, k)[0] for k in {e[-1] for e in keys}}
    L = lcm(*divisors.values())
    shift = 2 * s - 2
    out_keys = [e[:-1] + (e[-1] + shift,) for e in keys]
    out_vals = [c * (L // divisors[e[-1]]) for e, c in zip(keys, vals)]
    ring = quotient_poly.ring
    return Poly._reduced(ring, _vectors(ring.nvars, out_keys, out_vals), quotient_poly.den * L)


_volume_cache: dict[Chamber, VolumeResult] = {}
# Per non-main chamber in ``_volume_cache``: the step its volume was built
# from, the chamber above and the crossing's path term, so its volume is
# Mirzakhani's plus the crossings of the steps up to the main chamber.
_steps: dict[Chamber, tuple[Chamber, _Term]] = {}


def chamber_volume(c: Chamber) -> VolumeResult:
    """V_{g,C}: main-chamber intersection theory plus crossings along a path.

    A non-main chamber is the volume of the chamber above one of its maximal
    light sets S (``last_crossing``) plus the crossing of W_S.  Results are
    memoized per chamber; by path independence the polynomial does not depend
    on which S is uncrossed (covered by tests).  The path starts from the
    witness of the realizability LP of ``c`` (``_realizable_chamber_volume``);
    a main chamber, which holds (1, ..., 1), is realizable with no LP.
    """
    if c._masks and c not in _volume_cache and not c.is_realizable():
        raise NotRealizableError(f"{c} is not realizable")
    return _realizable_chamber_volume(c, None)


def _realizable_chamber_volume(c: Chamber, point: Optional[Point]) -> VolumeResult:
    """``chamber_volume`` of a chamber known to be realizable, given a point
    (nums, den) of it or of a chamber below whose segment reaches it, or None
    (for a chamber with a memoized witness, or a main chamber), so no LP is
    solved for ``c`` itself: ``last_crossing`` returns a realizable chamber
    above it and a wall it crosses down to ``c``.

    The point steers that choice where no candidate is known to be
    realizable: the wall is the first that the segment from the point to
    (1, ..., 1), a point of the main chamber, crosses, in the exact order of
    ``chambers._crossing_order``, which has no ties.  The chambers the
    segment passes through hold points of it, so they are realizable with no
    LP, and the point stays the same up the path.  A chamber with a memoized
    witness climbs from that witness instead: the candidates known to be
    realizable come first, so those are exactly the chambers picked off the
    segment and the ones ``chamber_volume`` is asked for.  The witness is
    turned into a point only when the segment is consulted.
    """
    got = _volume_cache.get(c)
    if got is not None:
        return got
    if not c._masks:
        result = mirzakhani_volume(c.space.g, c.space.n)
    else:

        def start() -> Point:
            nonlocal point
            point = _cached_point(c) or point
            return point

        above, wall = last_crossing(c, _volume_cache, start)
        poly = _realizable_chamber_volume(above, point).poly
        wc, term = _crossing(above, wall)
        result = VolumeResult(c, poly + wc, PROV_PATH)
        _steps[c] = above, term
    _volume_cache[c] = result
    return result


# Relabeling the points maps a chamber's path terms to the relabeled terms,
# so point queries evaluate every chamber of an S_n orbit through the joined
# plan of the path terms of the first one queried (``_path_plan``).  Keyed by
# (space, ``chambers._sorted_key``): that plan, its den, its phi_S reads
# and that chamber's sorting permutation.
_Walls = tuple[tuple[Callable, int], ...]
_evaluation_orbits: dict[
    tuple[StabilitySpace, tuple[int, ...]], tuple[_Plan, int, _Walls, tuple[int, ...]]
] = {}
# Per chamber: its own volume, its orbit's joined plan, den and phi_S reads,
# and for each angle variable of that plan's chamber the index of the angle
# of w it reads.
_evaluators: dict[Chamber, tuple[VolumeResult, _Plan, int, _Walls, tuple[int, ...]]] = {}


def _evaluator(c: Chamber, point: Point) -> tuple[VolumeResult, _Plan, int, _Walls, tuple[int, ...]]:
    """The ``_evaluators`` entry of a realizable chamber, given a point of it."""
    vr = _realizable_chamber_volume(c, point)
    key, perm, order = _sorted_key(c)
    entry = _evaluation_orbits.get((c.space, key))
    if entry is None:
        entry = _evaluation_orbits[c.space, key] = (*_path_plan(c), perm)
    plan, den, walls, rep_perm = entry
    # perm and rep_perm take c and the representative to the same key, so
    # label j of the representative is label order[rep_perm[j-1]] + 1 of c,
    # whose angle variable j of the representative's plan reads
    return vr, plan, den, walls, tuple(order[p] for p in rep_perm)


def _path_plan(c: Chamber) -> tuple[_Plan, int, _Walls]:
    """(plan, den, walls) for a chamber with a memoized volume: the joined
    plan (``poly._joined``) of Mirzakhani's polynomial and the kernel of
    each step up from c (``_steps``, ``_kernel``), and per step
    (itemgetter of its wall, 2(s - 1)).

    The plan reads the n angles of c and then phi_S of each step, in step
    order; at theta_j = A_j / B * pi, phi_S = (sum_{j in S} A_j - 2(s - 1) B)
    / B * pi.  By the closed form each kernel at phi_S is the step's
    crossing, so the plan's value is that of the sum of the polynomials the
    volume of c was built from, term for term.
    """
    n = c.space.n
    parts: list[tuple[_Plan, int, Sequence[int]]] = []
    walls = []
    while c._masks:
        c, (source, reads, wall) = _steps[c]
        kernel = _kernel(source, len(wall))
        parts.append((kernel._evaluation_plan(), kernel.den, (*reads, n + len(walls))))
        walls.append((itemgetter(*wall), 2 * len(wall) - 2))
    main = _realizable_chamber_volume(c, None).poly
    plan, den = _joined([(main._evaluation_plan(), main.den, range(n)), *parts])
    return plan, den, tuple(walls)


def piecewise_volume(w: WeightVector, numeric: bool = False, digits: int = 50):
    """Classify, compute the chamber volume, and evaluate at theta(w).

    Returns (chamber, VolumeResult, value) where value is a univariate-in-pi
    Poly, or a Decimal in numeric mode.  The VolumeResult is the chamber's
    own memoized volume.  The value is that of its path terms, Mirzakhani's
    polynomial and one kernel per crossing of the path its volume was built
    along, through the joined plan of the first chamber of its S_n orbit
    that was queried, at the angles relabeled (``_evaluation_orbits``,
    ``_path_plan``); no plan of a chamber volume is built.  The query runs
    in integers from w's integer form to the exact value (``_path_value``).
    Only ``numeric=False`` makes the value a Poly, the canonical one, so it
    is the value of the chamber's own volume; in numeric mode the numerators
    go straight to ``evaluate_pi_numerators``.
    """
    c = classify(w)
    got = _evaluators.get(c)
    if got is None:
        got = _evaluators[c] = _evaluator(c, (w.nums, w.den))  # w lies in c
    vr, plan, den, walls, reads = got
    powers, den = _path_value(plan, den, walls, w, reads)
    if numeric:
        return c, vr, evaluate_pi_numerators(powers, den, digits)
    return c, vr, pi_poly(powers, den)


def _path_value(
    plan: _Plan, den: int, walls: _Walls, w: WeightVector, reads: Sequence[int]
) -> tuple[dict[int, int], int]:
    """A ``_path_plan`` at theta(w), its angle j set to the angle of w at
    position reads[j], then phi_S of each wall: ({pi power: numerator},
    denominator).

    With B = w.den, angle j is A_j / B * pi for A_j = 2 (B - w.nums[reads[j]]),
    and phi_S is (sum_{j in S} A_j - 2(s - 1) B) / B * pi.
    """
    B, nums = w.den, w.nums
    A = [2 * (B - nums[i]) for i in reads]
    A += [sum(get(A)) - k * B for get, k in walls]
    powers = plan.evaluate(A, B, (1,) * len(A))
    return powers, den * B ** plan.top


def _point_value(poly: Poly, w: WeightVector, reads: Sequence[int]) -> tuple[dict[int, int], int]:
    """``poly`` at theta(w), its angle variable j set to the angle of w at
    position reads[j - 1]: ({pi power: numerator}, denominator), through the
    poly's own plan; the reference that path values are tested against.
    """
    return _path_value(poly._evaluation_plan(), poly.den, (), w, reads)


# -- closed forms ------------------------------------------------------------------


def minimal_chamber_volume_closed(n: int, j: int = 1) -> VolumeResult:
    """Genus-0 minimal chamber volume, theta form of the closed formula.

    V_{0,C_j} = (2 pi^2)^{n-3}/(n-3)! (-2+sum a)^{n-3} (-a_j+sum_{k!=j} a_k)^{n-3}
    with a = 1 - theta/(2 pi); both factors carry the same exponent n-3.
    """
    check_int(j, "the label j")
    if check_int(n, "the number of points") < 3:
        raise UnstableError("need n >= 3")
    chamber = minimal_chamber_0(StabilitySpace(0, n), j)  # j in 1..n, before any poly is built
    ring = angle_ring(n)
    two_pi = ring.two_pi()
    sum_all = sum((ring.var(k) for k in range(1, n + 1)), ring.zero())
    f1 = (n - 2) * two_pi - sum_all
    f2 = (n - 2) * two_pi + 2 * ring.var(j) - sum_all
    poly = f1 ** (n - 3) * f2 ** (n - 3) / Fraction(2 ** (n - 3) * factorial(n - 3))
    return VolumeResult(chamber, poly, f"closed-form(minimal-chamber j={j})")


def losev_manin_chamber(n: int) -> Chamber:
    """L_n in D_{0,n+2}: light iff the set avoids the two weight-1 points."""
    if check_int(n, "the number of light points") < 1:
        raise UnstableError("need n >= 1")
    space = StabilitySpace(0, n + 2)
    light = [tuple(range(1, n + 1))] if n >= 2 else []
    return Chamber(space, tuple(light))


def losev_manin_volume(n: int) -> Poly:
    """V_{0,L_n}(i theta, 0, 0) in weight variables: ring (pi, e1..en).

    Closed form (2 pi)^{2(n-1)} prod e_j (sum e_k)^{n-2}; the engine value is
    recovered by substituting theta_j -> 2 pi (1 - e_j) and theta at the two
    heavy points -> 0.
    """
    if check_int(n, "the number of light points") < 2:
        raise UnstableError("the closed form needs n >= 2")
    ring = PolyRing(("pi",) + tuple(f"e{i}" for i in range(1, n + 1)))
    poly = ring.const(Fraction(4) ** (n - 1)) * ring.pi() ** (2 * (n - 1))
    for k in range(1, n + 1):
        poly = poly * ring.var(k)
    return poly * sum((ring.var(k) for k in range(1, n + 1)), ring.zero()) ** (n - 2)


def cp1n_chamber(n: int) -> Chamber:
    """A_n in D_{0,n+3}: light iff the set meets at most one heavy point."""
    if check_int(n, "the number of light points") < 1:
        raise UnstableError("need n >= 1")
    space = StabilitySpace(0, n + 3)
    light = [tuple(range(1, n + 1)) + (h,) for h in (n + 1, n + 2, n + 3)]
    return Chamber(space, tuple(light))


def cp1n_volume(n: int) -> Poly:
    """V_{0,A_n}(i theta) in weight variables: ring (pi, e1..en, b1..b3).

    Closed form (2 pi)^{2n} prod e_j (-2 + sum e_j + sum b_k)^n.
    """
    if check_int(n, "the number of light points") < 1:
        raise UnstableError("need n >= 1")
    names = ("pi",) + tuple(f"e{i}" for i in range(1, n + 1)) + ("b1", "b2", "b3")
    ring = PolyRing(names)
    poly = ring.const(Fraction(4) ** n) * ring.pi() ** (2 * n)
    for k in range(1, n + 1):
        poly = poly * ring.var(k)
    return poly * sum((ring.var(k) for k in range(1, n + 4)), ring.const(-2)) ** n


# -- limits and derivative identities ------------------------------------------------


def eval_at_2pi(vr: VolumeResult, i: int) -> Poly:
    """Substitute theta_i = 2 pi; the zero polynomial iff light in i (Lemma)."""
    _label_mask(vr.chamber.space.n, (i,), 1, "coordinate")
    return _at_2pi(vr.poly, i)


def _at_2pi(p: Poly, i: int, partial: bool = False) -> Poly:
    """``p``, or with ``partial`` its theta_i-partial, at theta_i = 2 pi."""
    if partial:
        p = p.diff(i)
    return p.subs(i, p.ring.two_pi())


def _crossings_at_2pi(
    ring: PolyRing, steps: Iterable[tuple[Chamber, frozenset[int]]], i: int, partial: bool = False
) -> Poly:
    """The sum of ``_at_2pi`` over the crossings wc of the (chamber above,
    wall) ``steps``, in ``ring``."""
    wcs = (wall_crossing_poly(above, wall).poly for above, wall in steps)
    return sum((_at_2pi(wc, i, partial) for wc in wcs), ring.zero())


def dilaton_rhs(c: Chamber, i: int) -> Poly:
    """-2 pi (2g-2+|q|+sum_{j not in q} a(theta_j)) V_{g,C|} as one polynomial.

    Expanding a(theta) = 1 - theta/(2 pi) gives the polynomial coefficient
    -2 pi (2g-2+n') + sum_{j not in q} theta_j over the n' remaining points.
    """
    space = c.space
    ring = angle_ring(space.n)
    keep = [j for j in space.labels if j != i]
    q = c.q_set(i)
    coeff = ring.const(-(2 * space.g - 2 + len(keep))) * ring.two_pi()
    coeff = sum((ring.var(j) for j in keep if j not in q), coeff)
    return coeff * chamber_volume(c.restrict(keep)).poly.relabeled(ring, [0, *keep])


def dilaton_check(c: Chamber, i: int) -> tuple[Poly, Poly]:
    """Both sides of the derivative identity at a flat coordinate.

    lhs = d V_{g,C} / d theta_i at theta_i = 2 pi;
    rhs = -2 pi (2g-2+|q(C)|+sum_{j not in q} a(theta_j)) V_{g,C restricted}.
    """
    if not c.is_flat(i):
        raise WpvolError(f"chamber is not flat in coordinate {i}")
    return _at_2pi(chamber_volume(c).poly, i, partial=True), dilaton_rhs(c, i)


def wc_derivative_check(c: Chamber, S: Iterable[int], j: int) -> tuple[Poly, Poly]:
    """Both sides of the wall-crossing derivative identity for j in S.

    lhs = d wc_{C,S} / d theta_j at theta_j = 2 pi.  For |S| = 2 the rhs is
    theta_k V_{g,C/S} with the merged angle bound to theta_k (k the other
    element); for |S| > 2 it is phi_{S-j} times the wall-crossing polynomial
    of the restricted chamber across W_{S-j}, whose quotient equals C/S.
    """
    S = frozenset(S)
    if j not in S:
        raise ValueError(f"{j} is not in the wall set {sorted(S)}")
    wcp = wall_crossing_poly(c, S)
    ring = wcp.poly.ring
    lhs = _at_2pi(wcp.poly, j, partial=True)
    quotient = c.quotient(S)
    vq = chamber_volume(quotient).poly
    comp = sorted(set(c.space.labels) - S)
    if len(S) == 2:
        (k,) = sorted(S - {j})
        rhs = ring.var(k) * vq.relabeled(ring, [0, *comp, k])
    else:
        s_rest = sorted(S - {j})
        rhs = phi_form(ring, s_rest) * _wc_integral(vq, s_rest, comp, ring)
    return lhs, rhs


# -- generalized dilaton -------------------------------------------------------------


def incident_zero_check(c: Chamber, i: int) -> tuple[Poly, Poly, CrossingPath]:
    """V_{g,C}(.., theta_i=2 pi) against minus the wall-crossing sum.

    Crossing from C down to the chamber light in i (walls all contain i) and
    evaluating the vanishing identity of the light chamber gives
    lhs = V_C at theta_i = 2 pi, rhs = - sum_j wc_j at theta_i = 2 pi.
    """
    path = crossing_path(c, light_hull(c, i))
    rhs = -_crossings_at_2pi(angle_ring(c.space.n), path.steps, i)
    return eval_at_2pi(chamber_volume(c), i), rhs, path


def general_dilaton_check(
    c: Chamber,
    i: int,
    up_walls: Optional[Sequence[Iterable[int]]] = None,
) -> tuple[Poly, Poly]:
    """Derivative identity for chambers that need not be flat in i.

    Default mode descends from c to its flat hull across walls containing i
    (sizes >= 3), so  lhs = d V_C/d theta_i|_{2 pi}  is compared with
    TheoremRHS(hull) - sum d wc/d theta_i|_{2 pi} over the path.

    With ``up_walls`` the identity is assembled in the other direction: the
    walls are uncrossed from c (in the given order, last crossed first) to
    reach a chamber F that must be flat in i, and the rhs becomes
    TheoremRHS(F) + sum d wc/d theta_i|_{2 pi}.
    """
    ring = angle_ring(c.space.n)
    lhs = _at_2pi(chamber_volume(c).poly, i, partial=True)
    if up_walls is None:
        hull = flat_hull(c, i)
        dwc = _crossings_at_2pi(ring, crossing_path(c, hull).steps, i, partial=True)
        return lhs, dilaton_rhs(hull, i) - dwc

    walls = [frozenset(w) for w in up_walls]
    chain = [c]
    for wall in reversed(walls):
        chain.append(chain[-1].uncross(wall))
    flat_top = chain[-1]
    if not flat_top.is_flat(i):
        raise WpvolError("the chamber above the given walls is not flat in i")
    # chain[1:] reversed lists the chambers crossed downward, in order
    dwc = _crossings_at_2pi(ring, zip(reversed(chain[1:]), walls), i, partial=True)
    return lhs, dilaton_rhs(flat_top, i) + dwc


def clear_volume_cache() -> None:
    _volume_cache.clear()
    _steps.clear()
    _crossing_cache.clear()
    _crossing_orbits.clear()
    _orbit_sources.clear()
    _kernels.clear()
    _evaluation_orbits.clear()
    _evaluators.clear()
