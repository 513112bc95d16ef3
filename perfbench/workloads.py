"""The benchmark workloads: seeded inputs, the timed operation and its checks.

Every workload has the same shape.  ``setup(seed)`` returns the list of ops;
it runs before the clock starts.  ``run(op)`` is the timed call into wpvol.
``record(op, out)`` is the op's output as JSON data; its SHA-256 enters the
run digest.  ``golden(op, out)`` maps golden-file keys to the digests this
op must reproduce, and ``problems(op, out)`` lists the failures of the checks
that need no golden file (homogeneity, counts, positivity).

Only the public wpvol API is used, so that removing internals cannot break
the benchmark.  All calls go through the ``wpvol`` package namespace, where
the tracer rebinds them.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import wpvol  # noqa: E402
from wpvol import reference  # noqa: E402

if Path(wpvol.__file__).resolve().parent != SRC / "wpvol":
    raise ImportError(f"wpvol was imported from {wpvol.__file__}, not from {SRC}")

# pi to 100 digits, independent of wpvol.numeric, for the point-query value check.
PI = Decimal(
    "3.1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
)


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    return hashlib.sha256(canonical(data).encode()).hexdigest()


def volume_key(c) -> str:
    return "volume " + canonical(c.to_json_dict())


def volume_degree(space) -> int:
    """Volumes of D_{g,n} are homogeneous of degree 2(3g-3+n) in (pi, theta)."""
    return 2 * (3 * space.g - 3 + space.n)


def homogeneity_problems(vr) -> list[str]:
    d = volume_degree(vr.chamber.space)
    if vr.poly.is_homogeneous(d):
        return []
    return [f"{vr.chamber} volume is not homogeneous of degree {d}"]


def stable(g: int, n: int) -> bool:
    return 2 * g - 2 + n > 0


class VolumeTable:
    """All chamber volumes of some spaces, in seed-shuffled order.

    Set-up enumerates the chambers and computes the volumes of every smaller
    space of the same genus, where the quotient volumes of the wall crossings
    live.  Otherwise the first op to need a quotient volume would pay for it,
    and the op times would depend on the seed's order.  One op is one
    ``chamber_volume`` call.
    """

    COUNTS = {(0, 5): 1087, (1, 4): 96, (2, 3): 9, (1, 3): 9}

    def __init__(self, spaces=((1, 4),)):
        self.spaces = spaces

    def setup(self, seed: int) -> list:
        ops = []
        for g, n in self.spaces:
            chambers = wpvol.enumerate_chambers(wpvol.StabilitySpace(g, n))
            if len(chambers) != self.COUNTS[(g, n)]:
                raise RuntimeError(
                    f"D_{{{g},{n}}} has {len(chambers)} chambers, expected {self.COUNTS[(g, n)]}"
                )
            ops.extend(chambers)
            for m in range(1, n):
                if stable(g, m):
                    for c in wpvol.enumerate_chambers(wpvol.StabilitySpace(g, m)):
                        wpvol.chamber_volume(c)
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, c):
        return wpvol.chamber_volume(c)

    def record(self, c, vr):
        return vr.to_json_dict()

    def golden(self, c, vr) -> dict[str, str]:
        return {volume_key(c): digest(vr.to_json_dict())}

    def problems(self, c, vr) -> list[str]:
        if vr.chamber != c:
            return [f"volume of {c} reports chamber {vr.chamber}"]
        return homogeneity_problems(vr)


class Enumerate:
    """Chamber enumeration of every space, then the same spaces up to symmetry.

    One op is one ``enumerate_chambers`` call.  D_{0,5} and D_{1,5} carry the
    time.  The spaces D_{g,3} and D_{g,4} of genus g >= 1 have the chambers of
    D_{1,3} and D_{1,4} and each is enumerated anew, so they make
    groups of alike ops.  Their numbers are chosen so that the median (ranks
    20 and 21 of 40) falls in the middle of the twelve D_{g,4} symmetry
    reductions and the tail (rank 30) in the middle of the twelve D_{g,4}
    enumerations; one slow op then cannot move either far.
    """

    SPACES = [(g, 3) for g in range(1, 7)] + [(g, 4) for g in range(1, 13)] + [(0, 5), (1, 5)]
    COUNTS = {(0, 5, False): 1087, (0, 5, True): 36, (1, 5, False): 2690, (1, 5, True): 92}

    def setup(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for up_to_symmetry in (False, True):
            spaces = list(self.SPACES)
            rng.shuffle(spaces)
            ops.extend((g, n, up_to_symmetry) for g, n in spaces)
        return ops

    def run(self, op):
        g, n, up_to_symmetry = op
        return wpvol.enumerate_chambers(wpvol.StabilitySpace(g, n), up_to_symmetry=up_to_symmetry)

    def record(self, op, chambers):
        return [c.to_json_dict() for c in chambers]

    def golden(self, op, chambers) -> dict[str, str]:
        return {"enumerate " + canonical(list(op)): digest(self.record(op, chambers))}

    def problems(self, op, chambers) -> list[str]:
        expected = self.COUNTS.get(op)
        if expected is not None and len(chambers) != expected:
            return [f"enumerate {op}: {len(chambers)} chambers, expected {expected}"]
        return []


def on_wall(k: tuple[int, ...], denominator: int) -> bool:
    """True if some sum of two or more weights k_j / denominator equals 1."""
    return any(
        sum(sub) == denominator
        for r in range(2, len(k) + 1)
        for sub in combinations(k, r)
    )


def weight_vectors(seed: int, count: int, spaces, denominator: int = 1000) -> list:
    """Seeded weight vectors, ``count / len(spaces)`` per entry of ``spaces``
    (a space listed twice gets twice the share), in shuffled order.

    Weights are k / denominator with 1 <= k <= denominator.  Vectors on a wall
    or with sum a <= 2 - 2g are rejected by exact integer arithmetic.
    """
    rng = random.Random(seed)
    order = [spaces[i % len(spaces)] for i in range(count)]
    rng.shuffle(order)
    out = []
    for g, n in order:
        while True:
            k = tuple(rng.randint(1, denominator) for _ in range(n))
            if sum(k) > (2 - 2 * g) * denominator and not on_wall(k, denominator):
                break
        a = tuple(Fraction(x, denominator) for x in k)
        out.append(wpvol.WeightVector(wpvol.StabilitySpace(g, n), a))
    return out


class PointQueries:
    """A closed loop with one client; one op is one numeric volume query.

    D_{2,3} and D_{1,3} have 9 chambers each and hit the volume cache; D_{0,5}
    and D_{1,4} have 1087 and 96 and mostly miss it.  D_{2,3} gets two shares,
    so that the median falls among its warm queries: with equal shares it fell
    where the cheap warm queries end and the costly ones begin, and moved by
    10 % from seed to seed.
    """

    SPACES = ((0, 5), (1, 4), (2, 3), (2, 3), (1, 3))
    QUERIES = 1500
    DIGITS = 50

    def __init__(self):
        self._digests: dict = {}  # volume digest per chamber, for the checks
        self._integer_forms: dict = {}  # (denominator, integer terms) per chamber

    def setup(self, seed: int) -> list:
        return weight_vectors(seed, self.QUERIES, self.SPACES)

    def run(self, w):
        return wpvol.piecewise_volume(w, numeric=True, digits=self.DIGITS)

    def _exact_value(self, w, vr) -> Fraction:
        """V(theta(w)) / pi^deg, by exact arithmetic independent of Poly.

        Each term c * pi^e0 * prod theta_j^e_j, with theta_j = (2 - 2 a_j) pi =
        u_j / 500 * pi and u_j = 1000 - 1000 a_j, becomes c * prod u_j^e_j /
        500^(sum e_j) times pi^deg.  Coefficients are put over one common
        denominator per chamber, so the sum is in integers.
        """
        form = self._integer_forms.get(vr.chamber)
        if form is None:
            common = lcm(*(c.denominator for c in vr.poly.terms.values()))
            top = volume_degree(vr.chamber.space)
            terms = [(e[1:], c.numerator * (common // c.denominator)) for e, c in vr.poly.terms.items()]
            form = self._integer_forms[vr.chamber] = (common, top, terms)
        common, top, terms = form
        u = [int(1000 - 1000 * a) for a in w.a]
        total = 0
        for exps, coeff in terms:
            for uj, k in zip(u, exps):
                coeff *= uj**k
            total += coeff * 500 ** (top - sum(exps))
        return Fraction(total, common * 500**top)

    def _volume_digest(self, vr) -> str:
        got = self._digests.get(vr.chamber)
        if got is None:
            got = self._digests[vr.chamber] = digest(vr.to_json_dict())
        return got

    def record(self, w, out):
        c, vr, value = out
        return {"weights": [str(x) for x in w.a], "volume": self._volume_digest(vr), "value": str(value)}

    def golden(self, w, out) -> dict[str, str]:
        c, vr, value = out
        return {volume_key(c): self._volume_digest(vr)}

    def problems(self, w, out) -> list[str]:
        c, vr, value = out
        found = []
        for J in w.space.subsets():
            if c.value(J) != (1 if sum(w.a[j - 1] for j in J) > 1 else 0):
                found.append(f"{c} does not contain {w.a}: wall {sorted(J)}")
                break
        if vr.chamber != c:
            found.append(f"volume of {c} reports chamber {vr.chamber}")
        found += homogeneity_problems(vr)
        if not value > 0:
            found.append(f"volume at {w.a} is not positive: {value}")
        exact = self._exact_value(w, vr)
        with localcontext() as ctx:
            ctx.prec = self.DIGITS + 20
            expected = Decimal(exact.numerator) / Decimal(exact.denominator) * PI ** volume_degree(w.space)
            if abs(value - expected) > abs(expected) * Decimal(10) ** (5 - self.DIGITS):
                found.append(f"volume at {w.a} is {value}, expected {expected}")
        return found


FIXTURES = {
    (0, 3): reference.v_main_03,
    (0, 4): reference.v_main_04,
    (1, 1): reference.v_main_11,
    (1, 2): reference.v_main_12,
    (2, 1): reference.v_main_21,
}


def fixture_problems() -> list[str]:
    """Main-chamber volumes and intersection numbers against wpvol.reference.

    The workloads' own ops have no fixtures, so every pass checks these after
    its timed phase: V_{0,3}, V_{0,4}, V_{1,1}, V_{1,2}, V_{2,1} and the
    intersection anchors, among them <tau_1>_1 = 1/24 and <tau_4>_2 = 1/1152.
    """
    found = []
    for (g, n), fixture in FIXTURES.items():
        vr = wpvol.mirzakhani_volume(g, n)
        found += homogeneity_problems(vr)
        if vr.poly != fixture():
            found.append(f"V_{{{g},{n}}} differs from the reference fixture")
    for g, m, d, value in reference.INTERSECTION_ANCHORS:
        got = wpvol.kappa_psi_intersection(g, m, d)
        if got != value:
            found.append(f"<kappa_1^{m} tau_{d}>_{g} = {got}, expected {value}")
    return found


WORKLOADS = {
    "volume_table": VolumeTable,
    "enumerate": Enumerate,
    "point_queries": PointQueries,
}
