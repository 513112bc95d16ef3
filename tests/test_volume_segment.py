"""The segment rule of the volume engine against the LP-only recursion.

Given a point of the chamber whose volume it computes, the engine climbs the
straight segment from that point to (1, ..., 1): where no candidate of
``last_crossing`` is known to be realizable, the wall uncrossed is the first
one the segment crosses, and no LP is solved.  The reference here is the
former recursion, which decides every such candidate by the realizability LP
in ``light_max`` order; by path independence both give the same polynomial,
bit for bit.
"""

import random
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

import wpvol.chambers as chambers
import wpvol.volumes as volumes
from wpvol.chambers import StabilitySpace, WeightVector, classify, enumerate_chambers, main_chamber
from wpvol.errors import NotComparableError, OnWallError
from wpvol.poly import angle_ring
from wpvol.volumes import _wc_integral, chamber_volume, mirzakhani_volume, piecewise_volume

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


@pytest.fixture
def empty_memos(monkeypatch):
    """Every chamber and volume memo empty, the orbit tables included, and
    restored afterwards."""
    for module, name in MEMOS:
        monkeypatch.setattr(module, name, {})


def former_last_crossing(src, dst, known):
    """Reference: ``last_crossing`` without a point.  Candidates known to be
    realizable first, then the first one the realizability LP accepts."""
    unknown = []
    for S in dst.light_max:
        s = chambers._mask(S)
        if not src._is_light(s):
            above = dst._above(s)
            if above in known or chambers._realize_cache.get(above) is not None:
                return above, frozenset(S)
            unknown.append((above, frozenset(S)))
    for above, S in unknown:
        if above.is_realizable():
            return above, S
    raise NotComparableError(f"{src} does not lie strictly above {dst}")


def former_volume(c, polys, crossings):
    """Reference: the LP-only recursion, each crossing integrated once per
    exact key (C/S, S) from a quotient volume of the reference itself."""
    got = polys.get(c)
    if got is None:
        if not c.light_max:
            got = mirzakhani_volume(c.space.g, c.space.n).poly
        else:
            above, S = former_last_crossing(main_chamber(c.space), c, polys)
            key = (above.quotient(S), S)
            wc = crossings.get(key)
            if wc is None:
                vq = former_volume(key[0], polys, crossings)
                comp = sorted(set(c.space.labels) - S)
                wc = crossings[key] = _wc_integral(vq, sorted(S), comp, angle_ring(c.space.n))
            got = former_volume(above, polys, crossings) + wc
        polys[c] = got
    return got


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

    def recording(src, dst, known, point):
        def asked():
            points.append((dst, point()))
            return points[-1][1]

        above, S = climb(src, dst, known, asked)
        picks.append(above not in known and chambers._realize_cache.get(above) is not None)
        return above, S

    monkeypatch.setattr(volumes, "last_crossing", recording)
    return picks, points


def segment_meets(c, point):
    """Whether the segment from the point (nums, den) to (1, ..., 1) passes
    through the chamber c: the minimal heavy sets of c are all heavy before
    any of its maximal light sets turns heavy."""
    nums, den = point
    a = [F(k, den) for k in nums]

    def reached(J):  # when the sum over J reaches 1, or 0 if it is past 1
        sigma = sum(a[j - 1] for j in J)
        return F(0) if sigma > 1 else (1 - sigma) / (len(J) - sigma)

    return max(map(reached, c.heavy_min()), default=F(0)) < min(map(reached, c.light_max))


def segment_pick_counter(monkeypatch):
    """Wrap ``chambers._first_crossed``; the returned dict counts its
    answers: a first set crossed, or a tie."""
    counts = {"first": 0, "tie": 0}
    first = chambers._first_crossed

    def counting(masks, point):
        got = first(masks, point)
        counts["tie" if got is None else "first"] += 1
        return got

    monkeypatch.setattr(chambers, "_first_crossed", counting)
    return counts


def random_point(space, rng):
    """A seeded weight vector with weights k/1000 off every wall, or None."""
    try:
        w = WeightVector(space, tuple(F(rng.randint(1, 1000), 1000) for _ in space.labels))
        classify(w)
    except (ValueError, OnWallError):  # the sum condition, or a wall
        return None
    return w


def crossing_time(w, s):
    """t_S of the segment from w to (1, ..., 1) for the label mask s."""
    labels = chambers._labels(s)
    sigma = sum(w.a[j - 1] for j in labels)
    return (1 - sigma) / (len(labels) - sigma)


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_volumes_from_witness_points_match_lp_reference(space, reference, empty_memos, monkeypatch):
    """From empty memos, ``chamber_volume`` of every chamber, in a seeded
    order, climbs from the LP witness of the chamber and gives the reference
    volume; every segment consulted passes through its chamber."""
    found, want = reference[space]
    _, points = pick_recorder(monkeypatch)
    segment = segment_pick_counter(monkeypatch)
    for c in random.Random(34).sample(found, len(found)):
        assert chamber_volume(c).poly == want[c], c
    assert segment["first"] > 0
    for c, point in points:
        assert segment_meets(c, point), (c, point)


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_volumes_from_random_points_match_lp_reference(space, reference, empty_memos, monkeypatch):
    """From empty memos with a seeded fifth of the chambers realized first,
    ``piecewise_volume`` at seeded k/1000 points gives the reference volume
    of the chamber classified.  Some climbs go on from a realize-cached pick
    off the segment, and some take the first set the segment crosses; every
    segment consulted passes through the chamber it is consulted for."""
    found, want = reference[space]
    rng = random.Random(space.n * 10 + space.g)
    for c in rng.sample(found, len(found) // 5):
        chambers.realize(c)
    picks, points = pick_recorder(monkeypatch)
    segment = segment_pick_counter(monkeypatch)
    queried = 0
    for _ in range(600):
        w = random_point(space, rng)
        if w is None:
            continue
        c, vr, _ = piecewise_volume(w)
        assert vr.poly == want[c], w
        queried += 1
    assert queried > 200 and any(picks) and segment["first"] > 0
    for c, point in points:
        assert segment_meets(c, point), (c, point)


# (0.25, 0.35, 0.25, 0.35, 0.95) in D_{0,5}: its maximal light sets are the
# triples of {1, 2, 3, 4}, and {1, 2, 4} and {2, 3, 4}, of sum 0.95, tie for
# the first crossing at t = 0.05 / 2.05.
TIED = WeightVector(StabilitySpace(0, 5), (F(1, 4), F(7, 20), F(1, 4), F(7, 20), F(19, 20)))


def test_a_tie_for_the_first_crossing_falls_back_to_the_lp(reference, empty_memos, monkeypatch):
    c = classify(TIED)
    assert c.light_max == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    times = sorted(crossing_time(TIED, s) for s in c._masks)
    assert times[0] == times[1] == F(1, 41) < times[2]
    assert chambers._first_crossed(c._masks, (TIED.nums, TIED.den)) is None
    lps = lp_counter(monkeypatch)
    _, vr, _ = piecewise_volume(TIED)
    assert vr.poly == reference[TIED.space][1][c]
    assert lps["last_crossing"] > 0


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_first_crossed_is_the_least_exact_crossing_time(space):
    """``_first_crossed`` against the crossing times as Fractions, at seeded
    points of every kind of chamber: the mask of the least t_S, or None on a
    tie.  Points whose weights repeat make ties."""
    rng = random.Random(7 * space.n + space.g)
    ties = firsts = 0
    for _ in range(400):
        w = random_point(space, rng) if rng.random() < 0.8 else None
        if w is None:  # a point with repeated weights
            w = random_point(space, random.Random(rng.randint(0, 9)))
            if w is None:
                continue
            k = rng.choice(space.labels[1:])
            nums = list(w.nums)
            nums[k - 1] = nums[0]
            try:
                w = WeightVector._from_ints(space, nums, w.den)
                classify(w)
            except (ValueError, OnWallError):
                continue
        masks = classify(w)._masks
        if not masks:
            continue
        times = sorted((crossing_time(w, s), s) for s in masks)
        tied = len(times) > 1 and times[0][0] == times[1][0]
        want = None if tied else times[0][1]
        assert chambers._first_crossed(masks, (w.nums, w.den)) == want, w
        ties += tied
        firsts += not tied
    assert firsts > 50 and (ties > 0 or space.n == 3)


@pytest.mark.parametrize("space", SPACES[:2], ids=SPACE_IDS[:2])
def test_the_segment_runs_through_the_chamber_above_its_first_wall(space, empty_memos, monkeypatch):
    """Just past its first wall, the segment lies in the chamber that
    ``last_crossing`` uncrosses to, with no LP: at t midway between t_S and
    the next crossing time of the chamber above."""
    rng = random.Random(space.n)
    lps = lp_counter(monkeypatch)
    checked = 0
    for _ in range(300):
        w = random_point(space, rng)
        if w is None or not classify(w)._masks:
            continue
        c = classify(w)
        s = chambers._first_crossed(c._masks, (w.nums, w.den))
        if s is None:
            continue
        above, S = chambers.last_crossing(main_chamber(space), c, (), lambda: (w.nums, w.den))
        assert S == frozenset(chambers._labels(s)) and above == c._above(s)
        later = [crossing_time(w, m) for m in above._masks]
        t = (crossing_time(w, s) + min(later, default=F(1))) / 2
        assert classify(WeightVector(space, tuple(a + t * (1 - a) for a in w.a))) == above
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
        times = [crossing_time(w, s) for s in light]
        if len(set(times)) == len(times):
            out.append(w)
    return out


def test_point_queries_solve_no_lp_under_last_crossing(empty_memos, monkeypatch):
    """From empty memos, ``piecewise_volume`` at seeded tie-free points of
    D_{0,5} and D_{1,4} solves no LP under ``last_crossing``: only the
    realizability LPs of the quotient chambers, one per S_n orbit of the
    quotients reached, pinned in number."""
    points = tie_free_points(StabilitySpace(0, 5), 60, 11) + tie_free_points(StabilitySpace(1, 4), 40, 23)
    lps = lp_counter(monkeypatch)
    for w in points:
        piecewise_volume(w)
    assert lps["last_crossing"] == 0
    assert lps["other"] == 9
