"""Chamber operations against the former code they replaced.

Each ``former_*`` function below is the code of ``wpvol.chambers`` that one
shared path now replaces: the three hand-written searches for the first
offending subset (``cross``, ``crossing_path``, ``flat_hull``), the two
hull tails, ``uncross`` on sorted label tuples, ``minimal_chamber_0`` on
label combinations, ``quotient`` and ``restrict`` with their own stability
checks, and the two integer-form setters of ``WeightVector``.  Every result
and every error message must be the same.
"""

import itertools
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpvol.chambers import (
    Chamber,
    StabilitySpace,
    WeightVector,
    _adopt,
    _compressed,
    _label_mask,
    _labels,
    _mask,
    _maximal,
    crossing_path,
    enumerate_chambers,
    flat_hull,
    light_hull,
    minimal_chamber_0,
)
from wpvol.errors import (
    NoFlatHullError,
    NotComparableError,
    NotIncidentError,
    NotRealizableError,
    UnstableError,
)

# -- the former code ----------------------------------------------------------------


def former_cross(c, S):
    s = _label_mask(c.space.n, S, 2, "wall set")
    labels = _labels(s)
    if c._is_light(s):
        raise NotIncidentError(f"chamber is not above W_{list(labels)}")
    if not all(c._is_light(s & ~(1 << (j - 1))) for j in labels):
        heavy = next(
            T
            for r in range(2, len(labels))
            for T in itertools.combinations(labels, r)
            if not c._is_light(_mask(T))
        )
        raise NotIncidentError(
            f"chamber is not incident to W_{list(labels)}: heavy proper subset {list(heavy)}"
        )
    below = _adopt(c.space, tuple(sorted([a for a in c._masks if a & ~s] + [s])))
    if not below.is_realizable():
        raise NotRealizableError(f"no weight vector below W_{list(labels)} from {c}")
    return below


def former_uncross(c, S):
    S = tuple(sorted(set(S)))
    if S not in map(_labels, c._masks):
        raise NotIncidentError(f"{list(S)} is not a maximal light set of {c}")
    above = c._above(_mask(S))
    if not above.is_realizable():
        raise NotRealizableError(f"no weight vector above W_{list(S)} from {c}")
    return above


def former_comparability_error(src, dst):
    """The message of the NotComparableError of ``crossing_path(src, dst)``,
    or None if src lies above dst."""
    bad = [a for a in src._masks if not dst._is_light(a)]
    for r in range(2, src.space.n + 1) if bad else ():
        subsets = (T for a in bad for T in itertools.combinations(_labels(a), r))
        found = [T for T in subsets if not dst._is_light(_mask(T))]
        if found:
            return f"{list(min(found))} is light above but heavy below; chambers incomparable"
    return None


def former_flat_hull(c, i):
    bit = _label_mask(c.space.n, (i,), 1, "coordinate")
    far = (1 << c.space.n) - 1 & ~c._partners(i)
    pairs = (
        T
        for a in c._masks
        if a & far
        for T in itertools.combinations(_labels(a & ~bit), 2)
        if _mask(T) & far
    )
    S = min(pairs, default=None)
    if S is not None:
        raise NoFlatHullError(f"no flat hull in coordinate {i}: light set {list(S)} meets q(C)")
    hull = _adopt(c.space, _maximal(a | bit for a in c._masks))
    if not hull.is_realizable():
        raise NotRealizableError(f"flat hull of {c} in coordinate {i} is not realizable")
    return hull


def former_light_hull(c, i):
    bit = _label_mask(c.space.n, (i,), 1, "coordinate")
    singles = (1 << j for j in range(c.space.n))
    hull = _adopt(c.space, _maximal(a | bit for a in (*c._masks, *singles)))
    if not hull.is_realizable():
        raise NotRealizableError(f"light hull of {c} in coordinate {i} is not realizable")
    return hull


def former_minimal_chamber_0(space, j):
    if space.g != 0:
        raise ValueError("minimal_chamber_0 is a genus-0 construction")
    _label_mask(space.n, (j,), 1, "label")
    others = [x for x in space.labels if x != j]
    light = [tuple(sorted(c)) for c in itertools.combinations(others, space.n - 2)]
    if space.n == 3:
        light = []
    return Chamber(space, tuple(light))


def former_quotient(c, S):
    s = _label_mask(c.space.n, S, 2, "quotient set")
    n2 = c.space.n - s.bit_count() + 1
    if 2 * c.space.g - 2 + n2 <= 0:
        raise UnstableError(f"quotient space D_({c.space.g},{n2}) unstable")
    return _adopt(StabilitySpace(c.space.g, n2), _maximal(_compressed(c._masks, s)))


def former_restrict(c, T):
    t = _label_mask(c.space.n, T, 0, "restriction set")
    k = t.bit_count()
    if 2 * c.space.g - 2 + k <= 0:
        raise UnstableError(f"restricted space D_({c.space.g},{k}) unstable")
    drop = (1 << c.space.n) - 1 & ~t
    return _adopt(StabilitySpace(c.space.g, k), _maximal(_compressed(c._masks, drop)))


def former_check(space, nums, den):
    for k in nums:
        if not 0 < k <= den:
            raise ValueError(f"weight {F(k, den)} outside (0,1]")
    if sum(nums) <= (2 - 2 * space.g) * den:
        raise ValueError("total weight violates sum a_j > 2-2g")


def former_weight_vector(space, a):
    """(a, den, nums) as the former constructor set them."""
    a = tuple(x if x.__class__ is F else F(x) for x in a)
    if len(a) != space.n:
        raise ValueError("weight count does not match n")
    den = lcm(*(x.denominator for x in a))
    nums = tuple(x.numerator if x.denominator == den else x.numerator * (den // x.denominator) for x in a)
    former_check(space, nums, den)
    return a, den, nums


def former_from_ints(space, nums, den):
    """(a, den, nums) as the former ``WeightVector._from_ints`` set them."""
    nums = tuple(nums)
    if len(nums) != space.n:
        raise ValueError("weight count does not match n")
    former_check(space, nums, den)
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = tuple(k // g for k in nums)
    return tuple(F(k, den) for k in nums), den, nums


# -- comparison -----------------------------------------------------------------------

ERRORS = (
    ValueError,
    UnstableError,
    NotIncidentError,
    NotRealizableError,
    NoFlatHullError,
    NotComparableError,
)


def outcome(f, *args):
    """f(*args) in comparable form: a chamber as (space, masks), a weight
    vector as (a, den, nums), an exception as (type, message)."""
    try:
        got = f(*args)
    except ERRORS as exc:
        return type(exc), str(exc)
    if isinstance(got, Chamber):
        return got.space, got._masks
    if isinstance(got, WeightVector):
        return got.a, got.den, got.nums
    return got


SPACES = [StabilitySpace(0, 5), StabilitySpace(1, 4)]


@pytest.mark.parametrize("space", SPACES, ids=["D05", "D14"])
def test_cross_error_on_every_non_incident_wall_matches_former(space):
    """Every wall of every chamber that is not one of its minimal heavy sets
    gets the former NotIncidentError, heavy proper subset included."""
    heavy_proper = 0
    for c in enumerate_chambers(space):
        minimal = set(c._heavy_masks())
        for S in space.subsets():
            if _mask(S) not in minimal:
                got = outcome(c.cross, S)
                assert got == outcome(former_cross, c, S)
                heavy_proper += "heavy proper subset" in got[1]
    assert heavy_proper > 0


@pytest.mark.parametrize("space", SPACES, ids=["D05", "D14"])
def test_uncross_on_every_set_matches_former(space):
    """``uncross`` at every label set of size >= 2 of every chamber: the
    former chamber above, or the former error."""
    for c in enumerate_chambers(space):
        for S in space.subsets():
            assert outcome(c.uncross, S) == outcome(former_uncross, c, S)


def test_crossing_path_error_on_incomparable_pairs_matches_former():
    """A seeded sample of pairs of chambers of D_{0,5}: every incomparable
    pair gets the former message, which names the first set in
    ``subsets()`` order that is light above and heavy below."""
    every = enumerate_chambers(StabilitySpace(0, 5))
    rng = random.Random(33)
    incomparable = 0
    for _ in range(16000):
        src, dst = rng.choice(every), rng.choice(every)
        want = former_comparability_error(src, dst)
        if want is not None:
            incomparable += 1
            with pytest.raises(NotComparableError) as err:
                crossing_path(src, dst)
            assert str(err.value) == want
    assert incomparable > 14000


@pytest.mark.parametrize("space", SPACES, ids=["D05", "D14"])
def test_hulls_on_every_coordinate_match_former(space):
    """Both hulls in every coordinate of every chamber: the former hull, or
    the former NoFlatHullError or NotRealizableError."""
    flat = {NoFlatHullError: 0, NotRealizableError: 0, space: 0}
    for c in enumerate_chambers(space):
        for i in space.labels:
            got = outcome(flat_hull, c, i)
            assert got == outcome(former_flat_hull, c, i)
            flat[got[0]] += 1
            assert outcome(light_hull, c, i) == outcome(former_light_hull, c, i)
    # every outcome occurs, but D_{1,4} has no unrealizable flat hull
    assert flat[NoFlatHullError] and flat[space] and (space.g or flat[NotRealizableError])


@pytest.mark.parametrize("n", range(3, 8))
def test_minimal_chamber_0_matches_former(n):
    space = StabilitySpace(0, n)
    for j in (*space.labels, 0, n + 1, True):
        got = outcome(minimal_chamber_0, space, j)
        assert got == outcome(former_minimal_chamber_0, space, j)
    assert outcome(minimal_chamber_0, StabilitySpace(1, n), 1) == outcome(
        former_minimal_chamber_0, StabilitySpace(1, n), 1
    )


def test_every_quotient_and_restriction_of_d05_matches_former():
    """``quotient`` at every set and ``restrict`` to every set of every
    chamber of D_{0,5}: the former chamber, or the former UnstableError."""
    space = StabilitySpace(0, 5)
    every_set = [J for r in range(6) for J in itertools.combinations(space.labels, r)]
    unstable = 0
    for c in enumerate_chambers(space):
        for S in space.subsets():
            got = outcome(c.quotient, S)
            assert got == outcome(former_quotient, c, S)
            unstable += got[0] is UnstableError
        for T in every_set:
            got = outcome(c.restrict, T)
            assert got == outcome(former_restrict, c, T)
            unstable += got[0] is UnstableError
    assert unstable > 0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([StabilitySpace(g, n) for g, n in ((0, 4), (0, 5), (1, 2), (2, 3))]).flatmap(
        lambda space: st.tuples(
            st.just(space),
            st.lists(st.integers(-20, 130), min_size=space.n - 1, max_size=space.n + 1),
            st.integers(1, 120),
            st.integers(1, 3 * 2**64),
        )
    )
)
def test_weight_vector_setters_match_former(case):
    """``WeightVector(space, a)`` and ``_from_ints`` of the same weights over
    a scaled denominator set the former ``a``, ``den`` and ``nums`` or raise
    the former error; where both build one, they are equal, with one hash
    and one repr."""
    space, nums, den, scale = case
    a = tuple(F(k, den) for k in nums)
    scaled = [k * scale for k in nums]
    assert outcome(WeightVector, space, a) == outcome(former_weight_vector, space, a)
    assert outcome(WeightVector._from_ints, space, scaled, den * scale) == outcome(
        former_from_ints, space, scaled, den * scale
    )
    try:
        w = WeightVector(space, a)
    except ValueError:
        return
    v = WeightVector._from_ints(space, scaled, den * scale)
    assert (v.a, v.den, v.nums) == (w.a, w.den, w.nums)
    assert v == w and hash(v) == hash(w) and repr(v) == repr(w)
