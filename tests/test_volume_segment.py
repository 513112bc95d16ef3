"""The segment order of crossing paths, against the LP-only recursion.

A crossing path follows the straight segment from a point p of its lower
chamber to a point q of its upper one and crosses the walls in the order the
segment meets them, a tie broken as if p were moved by (eta, eta^2, ...,
eta^n) for eta -> 0+ (``chambers._crossing_order``).  The volume engine
climbs from a point of the chamber to (1, ..., 1) where no candidate of
``last_crossing`` is known to be realizable, and ``crossing_path`` goes from
the witness of its lower end to that of its upper end; neither solves an LP
for a chamber on the way.  The references here are the former LP-only
recursion (``lp_reference``), which by path independence gives the same
volumes bit for bit, and the crossing times as exact Fractions at points
moved by a concrete small eta.
"""

import random
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest
from lp_reference import former_volume

import wpvol.chambers as chambers
import wpvol.volumes as volumes
from wpvol.chambers import StabilitySpace, WeightVector, classify, crossing_path, enumerate_chambers
from wpvol.errors import OnWallError
from wpvol.volumes import chamber_volume, piecewise_volume

SPACES = [StabilitySpace(0, 5), StabilitySpace(1, 4), StabilitySpace(1, 5), StabilitySpace(2, 3)]
SPACE_IDS = ["D05", "D14", "D15", "D23"]
MEMOS = [
    (chambers, "_realize_cache"),
    (chambers, "_realize_orbits"),
    (chambers, "_enum_cache"),
    (volumes, "_volume_cache"),
    (volumes, "_crossing_cache"),
    (volumes, "_crossing_orbits"),
    (volumes, "_evaluation_orbits"),
    (volumes, "_evaluators"),
]
# Two concrete perturbation sizes; both give the order of the limit eta -> 0+
# on every point here.
ETAS = (F(1, 10**20), F(1, 10**24))


@pytest.fixture
def empty_memos(monkeypatch):
    """Every chamber and volume memo empty, the orbit tables included, and
    restored afterwards."""
    for module, name in MEMOS:
        monkeypatch.setattr(module, name, {})


@pytest.fixture(scope="module")
def reference():
    """Per space: its chambers and their reference volumes, computed with
    every memo swapped out and restored afterwards."""
    with pytest.MonkeyPatch.context() as patched:
        for module, name in MEMOS:
            patched.setattr(module, name, {})
        polys, crossings = {}, {}
        out = {}
        for space in SPACES:
            found = enumerate_chambers(space)
            out[space] = found, {c: former_volume(c, polys, crossings) for c in found}
    return out


def lp_counter(monkeypatch):
    """Wrap ``chambers.simplex_max``; the returned dict counts the LPs solved
    under ``last_crossing`` and elsewhere."""
    counts = {"last_crossing": 0, "other": 0}
    solve = chambers.simplex_max

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "last_crossing":
            frame = frame.f_back
        counts["other" if frame is None else "last_crossing"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(chambers, "simplex_max", counting)
    return counts


def pick_recorder(monkeypatch):
    """Wrap the engine's ``last_crossing``.  The returned lists hold, per
    call, whether its pick was in the realizability memo but had no volume
    yet (a pick off the segment that the climb goes on from), and, per
    point it asked for, the chamber and the point."""
    picks, points = [], []
    climb = volumes.last_crossing

    def recording(dst, known, point):
        def asked():
            points.append((dst, point()))
            return points[-1][1]

        above, S = climb(dst, known, asked)
        picks.append(above not in known and chambers._realize_cache.get(above) is not None)
        return above, S

    monkeypatch.setattr(volumes, "last_crossing", recording)
    return picks, points


def perturbed(point, eta):
    """The point (nums, den) moved by (eta, eta^2, ..., eta^n), as Fractions."""
    nums, den = point
    return [F(k, den) + eta**j for j, k in enumerate(nums, 1)]


def crossing_time(a, b, s):
    """The t at which the segment a + t (b - a) between the Fraction points a
    and b meets the wall of the label mask s."""
    labels = chambers._labels(s)
    sa, sb = sum(a[j - 1] for j in labels), sum(b[j - 1] for j in labels)
    return (1 - sa) / (sb - sa)


def as_fractions(point):
    nums, den = point
    return [F(k, den) for k in nums]


def ones(n):
    """(1, ..., 1) as a point (nums, den)."""
    return (1,) * n, 1


def perturbed_order(masks, p, q, eta):
    """The masks sorted by the exact crossing times of the segment from p,
    moved by eta, to q."""
    a, b = perturbed(p, eta), as_fractions(q)
    return sorted(masks, key=lambda s: crossing_time(a, b, s))


def segment_meets(c, point):
    """Whether the perturbed segment from the point (nums, den) to
    (1, ..., 1) passes through the chamber c: the minimal heavy sets of c are
    all heavy before any of its maximal light sets turns heavy, for both
    sizes of perturbation."""

    def meets(eta):
        a = perturbed(point, eta)
        b = [1] * len(a)

        def reached(J):  # when the sum over J reaches 1, or 0 if it is past 1
            return F(0) if sum(a[j - 1] for j in J) > 1 else crossing_time(a, b, chambers._mask(J))

        return max(map(reached, c.heavy_min()), default=F(0)) < min(map(reached, c.light_max))

    return all(map(meets, ETAS))


def segment_recorder(monkeypatch):
    """Wrap ``chambers._crossing_order``; the returned dict counts its calls
    and those where two walls tie for the least unperturbed crossing time."""
    counts = {"calls": 0, "ties": 0}
    order = chambers._crossing_order

    def counting(masks, p, q):
        got = order(masks, p, q)
        a, b = as_fractions(p), as_fractions(q)
        times = [crossing_time(a, b, s) for s in got[:2]]
        counts["calls"] += 1
        counts["ties"] += len(times) == 2 and times[0] == times[1]
        return got

    monkeypatch.setattr(chambers, "_crossing_order", counting)
    return counts


def random_point(space, rng):
    """A seeded weight vector with weights k/1000 off every wall, or None."""
    try:
        w = WeightVector(space, tuple(F(rng.randint(1, 1000), 1000) for _ in space.labels))
        classify(w)
    except (ValueError, OnWallError):  # the sum condition, or a wall
        return None
    return w


def repeated_weight_point(space, rng):
    """A seeded weight vector off every wall with a_1 repeated at a second
    label, which makes ties, or None."""
    w = random_point(space, rng)
    if w is None:
        return None
    nums = list(w.nums)
    nums[rng.choice(space.labels[1:]) - 1] = nums[0]
    try:
        w = WeightVector._from_ints(space, nums, w.den)
        classify(w)
    except (ValueError, OnWallError):
        return None
    return w


def assert_volume_cache_realizable():
    """Every chamber with a memoized volume is realizable by its own LP."""
    for c in volumes._volume_cache:
        assert chambers._solve(c) is not None, c


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_volumes_from_witness_points_match_lp_reference(space, reference, empty_memos, monkeypatch):
    """From empty memos, ``chamber_volume`` of every chamber, in a seeded
    order, climbs from the LP witness of the chamber and gives the reference
    volume with no LP under ``last_crossing``; every segment consulted
    passes through its chamber, ties included, and every chamber reached is
    realizable."""
    found, want = reference[space]
    _, points = pick_recorder(monkeypatch)
    segment = segment_recorder(monkeypatch)
    lps = lp_counter(monkeypatch)
    for c in random.Random(34).sample(found, len(found)):
        assert chamber_volume(c).poly == want[c], c
    assert lps["last_crossing"] == 0 and segment["calls"] > 0
    assert segment["ties"] > 0 or space.n == 3
    for c, point in points:
        assert segment_meets(c, point), (c, point)
    assert_volume_cache_realizable()


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_volumes_from_random_points_match_lp_reference(space, reference, empty_memos, monkeypatch):
    """From empty memos with a seeded fifth of the chambers realized first,
    ``piecewise_volume`` at seeded k/1000 points gives the reference volume
    of the chamber classified, with no LP under ``last_crossing``.  Some
    climbs go on from a realize-cached pick off the segment, and some take
    the first set the segment crosses; every segment consulted passes
    through the chamber it is consulted for, and every chamber reached is
    realizable."""
    found, want = reference[space]
    rng = random.Random(space.n * 10 + space.g)
    for c in rng.sample(found, len(found) // 5):
        chambers.realize(c)
    picks, points = pick_recorder(monkeypatch)
    segment = segment_recorder(monkeypatch)
    lps = lp_counter(monkeypatch)
    queried = 0
    for _ in range(600):
        w = random_point(space, rng)
        if w is None:
            continue
        c, vr, _ = piecewise_volume(w)
        assert vr.poly == want[c], w
        queried += 1
    assert queried > 200 and any(picks) and segment["calls"] > 0
    assert lps["last_crossing"] == 0
    for c, point in points:
        assert segment_meets(c, point), (c, point)
    assert_volume_cache_realizable()


# (0.25, 0.35, 0.25, 0.35, 0.95) in D_{0,5}: its maximal light sets are the
# triples of {1, 2, 3, 4}, and {1, 2, 4} and {2, 3, 4}, of sum 0.95, tie for
# the first crossing at t = 0.05 / 2.05.
TIED = WeightVector(StabilitySpace(0, 5), (F(1, 4), F(7, 20), F(1, 4), F(7, 20), F(19, 20)))
# (0.2, 0.1, 0.5, 0.1, 0.95) in D_{1,5}: the light sets {1, 3}, of sum 0.7,
# and {1, 2, 4}, of sum 0.4, sets of different sizes, tie on the segment to
# (1, ..., 1) at t = 0.3 / 1.3.
SIZES_TIED = WeightVector(StabilitySpace(1, 5), (F(1, 5), F(1, 10), F(1, 2), F(1, 10), F(19, 20)))


def test_a_tie_for_the_first_crossing_needs_no_lp(reference, empty_memos, monkeypatch):
    """At ``TIED`` two maximal light sets tie for the first crossing; the
    query climbs past the tie with no LP under ``last_crossing`` and gives
    the reference volume."""
    c = classify(TIED)
    assert c.light_max == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    a, b = list(TIED.a), [1] * 5
    times = sorted(crossing_time(a, b, s) for s in c._masks)
    assert times[0] == times[1] == F(1, 41) < times[2]
    lps = lp_counter(monkeypatch)
    _, vr, _ = piecewise_volume(TIED)
    assert vr.poly == reference[TIED.space][1][c]
    assert lps["last_crossing"] == 0


def light_walls(point, q):
    """The masks of the sets of size >= 2 light at the point and heavy at q,
    both points (nums, den)."""
    (a, den_a), (b, den_b) = point, q
    n = len(a)
    return [
        chambers._mask(J)
        for r in range(2, n + 1)
        for J in combinations(range(1, n + 1), r)
        if sum(a[j - 1] for j in J) < den_a and sum(b[j - 1] for j in J) > den_b
    ]


@pytest.mark.parametrize(
    "w, first, second", [(TIED, (1, 2, 4), (2, 3, 4)), (SIZES_TIED, (1, 3), (1, 2, 4))], ids=["TIED", "sizes"]
)
def test_crossing_order_breaks_constructed_ties_as_the_perturbed_segment(w, first, second):
    """At a point where the walls ``first`` and ``second`` tie,
    ``_crossing_order`` of every light set is the order of the exact
    crossing times at the point moved by either eta, and ``first`` comes
    first; at ``SIZES_TIED`` the rule reads h = |S| - 1, which differs."""
    p, q = (w.nums, w.den), ones(w.space.n)
    walls = light_walls(p, q)
    first, second = chambers._mask(first), chambers._mask(second)
    a, b = as_fractions(p), as_fractions(q)
    assert crossing_time(a, b, first) == crossing_time(a, b, second)
    want = [perturbed_order(walls, p, q, eta) for eta in ETAS]
    assert want[0] == want[1] == chambers._crossing_order(walls, p, q)
    assert want[0].index(first) < want[0].index(second)


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_first_crossed_is_the_least_exact_crossing_time(space):
    """``_crossing_order`` against the exact crossing times at the start
    point moved by either eta, at seeded points, a fifth of them with a
    repeated weight, towards (1, ..., 1) or towards another seeded point:
    the two etas give one order, and it is the order returned, so the wall
    crossed first has the least perturbed time."""
    rng = random.Random(7 * space.n + space.g)
    checked = ties = 0
    for _ in range(300):
        w = repeated_weight_point(space, rng) if rng.random() < 0.2 else random_point(space, rng)
        v = random_point(space, rng) if rng.random() < 0.5 else None
        if w is None:
            continue
        p, q = (w.nums, w.den), ones(space.n) if v is None else (v.nums, v.den)
        walls = light_walls(p, q)
        want = [perturbed_order(walls, p, q, eta) for eta in ETAS]
        assert want[0] == want[1] == chambers._crossing_order(walls, p, q), (w, v)
        a, b = as_fractions(p), as_fractions(q)
        times = [crossing_time(a, b, s) for s in walls]
        checked += len(walls) > 1
        ties += len(set(times)) < len(times)
    assert checked > 100 and ties > 5


# (0.32, 0.42, 0.42, 0.32, 0.9) in D_{0,5}: its maximal light sets are the six
# pairs of {1, 2, 3, 4}.  The segment to (1, ..., 1) crosses {2, 3} first,
# then {1, 2}, {1, 3}, {2, 4} and {3, 4} all at once, then {1, 4}.
WHY = WeightVector(StabilitySpace(0, 5), (F(8, 25), F(21, 50), F(21, 50), F(8, 25), F(9, 10)))


def test_the_tie_break_keeps_the_climb_in_realizable_chambers(empty_memos, monkeypatch):
    """Climbing from ``WHY`` by ``last_crossing`` takes the four tied walls
    in the order of the rule, with no LP, and every chamber on the way is
    realizable; another order of the tied walls, {2, 3}, {1, 2}, {3, 4},
    leaves light_max ((1, 3), (1, 4), (2, 4)), which is not."""
    p = (WHY.nums, WHY.den)
    c = classify(WHY)
    a, b = as_fractions(p), [1] * 5
    times = [crossing_time(a, b, s) for s in c._masks]
    assert sorted(times)[1] == sorted(times)[4] < sorted(times)[5]
    lps = lp_counter(monkeypatch)
    walls, path, cur = [], [], c
    while cur._masks:
        cur, S = chambers.last_crossing(cur, (), lambda: p)
        walls.append(tuple(sorted(S)))
        path.append(cur)
    assert lps["last_crossing"] == 0
    assert walls == [(2, 3), (1, 2), (1, 3), (2, 4), (3, 4), (1, 4)]
    assert all(chambers._solve(x) is not None for x in path)
    wrong = c
    for J in [(2, 3), (1, 2), (3, 4)]:
        wrong = wrong._above(chambers._mask(J))
    assert wrong.light_max == ((1, 3), (1, 4), (2, 4)) and chambers._solve(wrong) is None


@pytest.mark.parametrize("space", [SPACES[0], SPACES[1], SPACES[3]], ids=["D05", "D14", "D23"])
def test_crossing_path_solves_no_lp_beyond_its_ends(space, empty_memos, monkeypatch):
    """From empty memos, ``crossing_path`` of seeded comparable pairs solves
    LPs only to realize its two ends; it crosses exactly the sets light in
    the lower chamber and heavy in the upper one, once each, and every
    chamber on the path is realizable by its own LP."""
    found = enumerate_chambers(space)
    rng = random.Random(35 * space.n + space.g)
    pairs = []
    for dst in rng.sample(found, min(40, len(found))):
        light = dst._closure()
        above = [c for c in found if c != dst and not c._closure() & ~light]
        if above:
            pairs.append((rng.choice(above), dst))
    long_paths = 0
    for src, dst in pairs:
        with pytest.MonkeyPatch.context() as patched:
            for module, name in MEMOS:
                patched.setattr(module, name, {})
            lps = lp_counter(patched)
            path = crossing_path(src, dst)
            assert set(chambers._realize_cache) <= {src, dst}
            assert lps["other"] + lps["last_crossing"] <= 2
        between = {J for J in space.subsets() if dst.value(J) == 0 and src.value(J) == 1}
        assert sorted(path.walls(), key=sorted) == sorted(between, key=sorted)
        assert path.steps[0][0] == src and path.replay() == dst
        assert all(chambers._solve(above) is not None for above, _ in path.steps)
        long_paths += len(path.steps) > 2
    assert len(pairs) > min(20, len(found) // 2) and long_paths > 0


@pytest.mark.parametrize("space", SPACES[:2], ids=SPACE_IDS[:2])
def test_the_segment_runs_through_the_chamber_above_its_first_wall(space, empty_memos, monkeypatch):
    """Just past its first wall, the segment lies in the chamber that
    ``last_crossing`` uncrosses to, with no LP: at t midway between t_S and
    the next crossing time of the chamber above, where no two walls tie."""
    rng = random.Random(space.n)
    lps = lp_counter(monkeypatch)
    checked = 0
    for _ in range(300):
        w = random_point(space, rng)
        if w is None or not classify(w)._masks:
            continue
        c, p = classify(w), (w.nums, w.den)
        a, b = list(w.a), [1] * space.n
        s, *rest = chambers._crossing_order(c._masks, p, ones(space.n))
        if rest and crossing_time(a, b, s) == crossing_time(a, b, rest[0]):
            continue
        above, S = chambers.last_crossing(c, (), lambda: p)
        assert S == frozenset(chambers._labels(s)) and above == c._above(s)
        later = [crossing_time(a, b, m) for m in above._masks]
        t = (crossing_time(a, b, s) + min(later, default=F(1))) / 2
        assert classify(WeightVector(space, tuple(x + t * (1 - x) for x in w.a))) == above
        checked += 1
    assert checked > 100 and lps == {"last_crossing": 0, "other": 0}


def tie_free_points(space, count, seed):
    """Seeded k/1000 points of ``space`` at which no two light sets share a
    crossing time, so that no climb from them meets a tie."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        w = random_point(space, rng)
        if w is None:
            continue
        light = [
            chambers._mask(J)
            for r in range(2, space.n + 1)
            for J in combinations(space.labels, r)
            if sum(w.a[j - 1] for j in J) < 1
        ]
        times = [crossing_time(w.a, [1] * space.n, s) for s in light]
        if len(set(times)) == len(times):
            out.append(w)
    return out


def test_point_queries_solve_no_lp_under_last_crossing(empty_memos, monkeypatch):
    """From empty memos, ``piecewise_volume`` at seeded tie-free points of
    D_{0,5} and D_{1,4} solves no LP under ``last_crossing``: only the
    realizability LPs of the quotient chambers, one per S_n orbit of the
    quotients reached other than main chambers, pinned in number."""
    points = tie_free_points(StabilitySpace(0, 5), 60, 11) + tie_free_points(StabilitySpace(1, 4), 40, 23)
    lps = lp_counter(monkeypatch)
    for w in points:
        piecewise_volume(w)
    assert lps["last_crossing"] == 0
    assert lps["other"] == 4
