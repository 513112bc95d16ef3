"""Chambers on masks against the label-set implementation they replaced.

``SetChamber`` below is the former ``Chamber``: the light antichain as sorted
label tuples, made canonical by a quadratic maximality filter over
frozensets, and every operation written on label sets.  ``set_flat_hull``,
``set_light_hull`` and ``set_comparability_error`` are the former hull
constructions and the former comparability test of ``crossing_path``.  They
share no code with ``Chamber`` except ``realize``, which both use to decide
realizability.  Every chamber operation must give the same chambers, values,
sets, JSON, text and errors.
"""

import copy
import itertools
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpvol.chambers as chambers
from wpvol.chambers import (
    Chamber,
    StabilitySpace,
    chamber_from_json_dict,
    crossing_path,
    enumerate_chambers,
    realize,
)
from wpvol.errors import (
    NoFlatHullError,
    NotComparableError,
    NotIncidentError,
    NotRealizableError,
    UnstableError,
)
from wpvol.volumes import flat_hull, light_hull

# -- the reference: the former label-set chamber --------------------------------------


def _canonical_antichain(sets):
    family = [frozenset(s) for s in sets]
    maximal = [s for s in family if not any(s < t for t in family)]
    return tuple(sorted(set(tuple(sorted(s)) for s in maximal)))


def _realizable(c):
    return realize(Chamber(c.space, c.light_max)) is not None


@dataclass(frozen=True)
class SetChamber:
    space: StabilitySpace
    light_max: tuple

    def __post_init__(self):
        labels = set(self.space.labels)
        family = [frozenset(s) for s in self.light_max]
        for s in family:
            if len(s) < 2 or not s <= labels:
                raise ValueError(f"invalid light set {sorted(s)}")
        object.__setattr__(self, "light_max", _canonical_antichain(family))

    def value(self, J):
        J = frozenset(J)
        if len(J) <= 1:
            return 0
        return 0 if any(J <= frozenset(s) for s in self.light_max) else 1

    def heavy_min(self):
        return [
            J
            for J in self.space.subsets()
            if self.value(J) == 1 and all(self.value(J - {j}) == 0 for j in J)
        ]

    def cross(self, S):
        S = frozenset(S)
        if len(S) < 2 or not S <= set(self.space.labels):
            raise ValueError(f"invalid wall set {sorted(S)}")
        if self.value(S) != 1:
            raise NotIncidentError(f"chamber is not above W_{sorted(S)}")
        for r in range(2, len(S)):
            for T in itertools.combinations(sorted(S), r):
                if self.value(T) == 1:
                    raise NotIncidentError(
                        f"chamber is not incident to W_{sorted(S)}: "
                        f"heavy proper subset {sorted(T)}"
                    )
        below = SetChamber(self.space, self.light_max + (tuple(sorted(S)),))
        if not _realizable(below):
            raise NotRealizableError(f"no weight vector below W_{sorted(S)} from {self}")
        return below

    def uncross(self, S):
        S = tuple(sorted(set(S)))
        if S not in self.light_max:
            raise NotIncidentError(f"{list(S)} is not a maximal light set of {self}")
        above = self._above(S)
        if not _realizable(above):
            raise NotRealizableError(f"no weight vector above W_{list(S)} from {self}")
        return above

    def _above(self, S):
        subwalls = tuple(itertools.combinations(S, len(S) - 1)) if len(S) > 2 else ()
        return SetChamber(self.space, tuple(s for s in self.light_max if s != S) + subwalls)

    def quotient(self, S):
        S = frozenset(S)
        if len(S) < 2 or not S <= set(self.space.labels):
            raise ValueError(f"invalid quotient set {sorted(S)}")
        n2 = self.space.n - len(S) + 1
        if 2 * self.space.g - 2 + n2 <= 0:
            raise UnstableError(f"quotient space D_({self.space.g},{n2}) unstable")
        comp = sorted(set(self.space.labels) - S)
        space2 = StabilitySpace(self.space.g, n2)
        light = []
        for J in space2.subsets():
            if n2 in J:
                continue
            if self.value(frozenset(comp[i - 1] for i in J)) == 0:
                light.append(J)
        return SetChamber(space2, tuple(tuple(sorted(s)) for s in light))

    def restrict(self, T):
        T = sorted(set(T))
        if not set(T) <= set(self.space.labels):
            raise ValueError(f"invalid restriction set {T}")
        if 2 * self.space.g - 2 + len(T) <= 0:
            raise UnstableError(f"restricted space D_({self.space.g},{len(T)}) unstable")
        relabel = {j: i for i, j in enumerate(T, start=1)}
        light = []
        for s in self.light_max:
            inter = [relabel[j] for j in s if j in relabel]
            if len(inter) >= 2:
                light.append(tuple(sorted(inter)))
        return SetChamber(StabilitySpace(self.space.g, len(T)), tuple(light))

    def permuted(self, perm):
        return SetChamber(self.space, tuple(tuple(sorted(perm[j] for j in s)) for s in self.light_max))

    def q_set(self, i):
        return frozenset(j for j in self.space.labels if j != i and self.value({j, i}) == 1)

    def is_light(self, i):
        return not self.q_set(i) and self.is_flat(i)

    def is_flat(self, i):
        for S in self.space.subsets():
            if i not in S and self.value(S) == 0 and self.value(S | {i}) == 1:
                return False
        return True

    def to_json_dict(self):
        return {"g": self.space.g, "n": self.space.n, "light_max": [list(s) for s in self.light_max]}

    def __str__(self):
        sets = ",".join("{" + ",".join(map(str, s)) + "}" for s in self.light_max)
        return f"Chamber(g={self.space.g},n={self.space.n},light_max=[{sets}])"


def set_comparability_error(src, dst):
    for J in src.space.subsets():
        if dst.value(J) > src.value(J):
            return f"{sorted(J)} is light above but heavy below; chambers incomparable"
    return None


def set_flat_hull(c, i):
    q = c.q_set(i)
    light = list(c.light_max)
    for S in c.space.subsets():
        if i in S or c.value(S) == 1:
            continue
        if c.value(S | {i}) == 1:
            if q & S:
                raise NoFlatHullError(f"no flat hull in coordinate {i}: light set {sorted(S)} meets q(C)")
            light.append(tuple(sorted(S | {i})))
    hull = SetChamber(c.space, tuple(light))
    if not _realizable(hull):
        raise NotRealizableError(f"flat hull of {c} in coordinate {i} is not realizable")
    return hull


def set_light_hull(c, i):
    light = list(c.light_max)
    for S in c.space.subsets(min_size=1):
        if i not in S and c.value(S) == 0 and c.value(S | {i}) == 1:
            light.append(tuple(sorted(S | {i})))
    hull = SetChamber(c.space, tuple(light))
    if not _realizable(hull):
        raise NotRealizableError(f"light hull of {c} in coordinate {i} is not realizable")
    return hull


# -- comparison -------------------------------------------------------------------------


def outcome(f, *args):
    """The result of f(*args) in comparable form: a chamber as (space, light
    antichain), anything else as itself, an exception as (type, message)."""
    try:
        got = f(*args)
    except (ValueError, NotIncidentError, NotRealizableError, UnstableError, NoFlatHullError) as exc:
        return type(exc), str(exc)
    if isinstance(got, (Chamber, SetChamber)):
        return got.space, got.light_max
    return got


def assert_same_chamber(new, ref):
    assert isinstance(new, Chamber)
    assert new.space == ref.space and new.light_max == ref.light_max
    assert new._masks == tuple(sorted(map(chambers._mask, ref.light_max)))
    assert new == Chamber(ref.space, ref.light_max) and hash(new) == hash(Chamber(ref.space, ref.light_max))
    assert new.to_json_dict() == ref.to_json_dict() and str(new) == str(ref)
    assert repr(new) == f"Chamber(space={ref.space!r}, light_max={ref.light_max!r})"
    assert chamber_from_json_dict(new.to_json_dict()) == new


def assert_same_operations(new, ref, perm):
    """Every chamber operation of ``new`` against the reference ``ref``."""
    space = ref.space
    assert_same_chamber(new, ref)
    every = space.subsets(min_size=0)
    assert [new.value(J) for J in every] == [ref.value(J) for J in every]
    assert new.heavy_min() == ref.heavy_min()
    for J in every:
        if len(J) >= 2:
            assert outcome(new.quotient, J) == outcome(ref.quotient, J)
            assert outcome(new.cross, J) == outcome(ref.cross, J)
        assert outcome(new.restrict, J) == outcome(ref.restrict, J)
    for bad in ({0, 1}, {1}, {space.n, space.n + 1}):
        assert outcome(new.quotient, bad) == outcome(ref.quotient, bad)
        assert outcome(new.cross, bad) == outcome(ref.cross, bad)
    assert outcome(new.restrict, {space.n + 1}) == outcome(ref.restrict, {space.n + 1})
    for S in ref.light_max:
        above = new._above(chambers._mask(S))
        assert above._masks == tuple(sorted(above._masks))
        assert_same_chamber(above, ref._above(S))
        assert outcome(new.uncross, S) == outcome(ref.uncross, S)
    for S in ref.heavy_min()[:2]:
        assert outcome(new.uncross, S) == outcome(ref.uncross, S)
    assert_same_chamber(new.permuted(perm), ref.permuted(perm))
    for i in space.labels:
        assert new.q_set(i) == ref.q_set(i)
        assert new.is_flat(i) == ref.is_flat(i)
        assert new.is_light(i) == ref.is_light(i)
        assert outcome(flat_hull, new, i) == outcome(set_flat_hull, ref, i)
        assert outcome(light_hull, new, i) == outcome(set_light_hull, ref, i)


@st.composite
def light_families(draw, max_n=7):
    """(space, light sets): up to six random sets of two or more labels, as
    lists in random order, possibly nested or repeated."""
    n = draw(st.integers(2, max_n))
    g = draw(st.integers(0 if n >= 3 else 1, 2))
    sets = draw(st.lists(st.sets(st.integers(1, n), min_size=2), max_size=6))
    order = draw(st.permutations(range(len(sets))))
    return StabilitySpace(g, n), [sorted(sets[k], reverse=k % 2 == 1) for k in order]


@settings(max_examples=80, deadline=None)
@given(light_families(), st.data())
def test_mask_chamber_matches_label_set_chamber(family, data):
    space, light = family
    new, ref = Chamber(space, light), SetChamber(space, tuple(map(tuple, light)))
    perm = dict(zip(space.labels, data.draw(st.permutations(list(space.labels)))))
    assert_same_operations(new, ref, perm)


@settings(max_examples=60, deadline=None)
@given(light_families(max_n=6), light_families(max_n=6))
def test_mask_equality_and_comparability_match(first, second):
    space, light = first
    other = [[j for j in s if j <= space.n] for s in second[1]]
    other = [s for s in other if len(set(s)) >= 2]
    a, b = Chamber(space, light), Chamber(space, other)
    ref_a, ref_b = SetChamber(space, tuple(map(tuple, light))), SetChamber(space, tuple(map(tuple, other)))
    assert (a == b) == (ref_a == ref_b)
    if a == b:
        assert hash(a) == hash(b)
    for src, dst, ref_src, ref_dst in ((a, b, ref_a, ref_b), (b, a, ref_b, ref_a)):
        want = set_comparability_error(ref_src, ref_dst) if src != dst else None
        try:
            crossing_path(src, dst)
        except NotComparableError as exc:
            if want is not None or "light above" in str(exc):
                assert str(exc) == want
        except NotRealizableError:
            assert want is None
        else:
            assert want is None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.lists(st.integers(-1, n + 2), max_size=n), max_size=4))
    )
)
def test_constructor_errors_match(args):
    n, light = args
    space = StabilitySpace(1, n)
    assert outcome(Chamber, space, light) == outcome(SetChamber, space, tuple(map(tuple, light)))


@pytest.mark.parametrize("g,n", [(0, 5), (1, 5)], ids=["D05", "D15"])
def test_cross_and_uncross_on_every_realizable_chamber(g, n):
    """``cross`` at every set and ``uncross`` at every maximal light set of
    every chamber of D_{0,5} and D_{1,5}, against the reference."""
    space = StabilitySpace(g, n)
    walls = space.subsets()
    for c in enumerate_chambers(space):
        ref = SetChamber(space, c.light_max)
        for S in walls:
            assert outcome(c.cross, S) == outcome(ref.cross, S)
        for S in ref.light_max:
            assert outcome(c.uncross, S) == outcome(ref.uncross, S)


@pytest.mark.parametrize("closure", [False, True], ids=["lazy", "built"])
def test_chamber_round_trips_through_pickle_and_copy(closure):
    """``Chamber.__reduce__`` rebuilds an equal chamber, with the same hash,
    masks and light sets, through pickle, ``copy`` and ``deepcopy``, whether
    or not the light closure was built; the copy builds the same closure."""
    space = StabilitySpace(1, 5)
    for c in (Chamber(space, []), Chamber(space, [[1, 2, 3], [4, 5], [1, 4]])):
        if closure:
            c._closure()
        for again in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
            assert type(again) is Chamber and again == c and hash(again) == hash(c)
            assert again._masks == c._masks and again.light_max == c.light_max
            assert again._closure() == c._closure()


# -- large n ----------------------------------------------------------------------------


def test_chamber_at_n64_builds_nothing_of_size_2_to_the_n(monkeypatch):
    """Construction, equality, hashing, text, JSON, ``value``, ``quotient``
    and ``restrict`` read the masks alone: none of them builds the light
    closure, the subset order or the list of subsets."""

    def exponential(*args, **kwargs):
        raise AssertionError("built an object of size 2^n")

    for name in ("_light_closure", "_mask_sets", "_subset_order", "_relabelings"):
        monkeypatch.setattr(chambers, name, exponential)
    monkeypatch.setattr(StabilitySpace, "subsets", exponential)
    space = StabilitySpace(0, 64)
    light = [list(range(1, 33)), [63, 64, 1], list(range(30, 41)), [2, 3], [64, 33, 2]]
    c = Chamber(space, light)
    ref = SetChamber(space, tuple(map(tuple, light)))
    assert c.light_max == ref.light_max and str(c) == str(ref)
    assert c.to_json_dict() == ref.to_json_dict()
    again = chamber_from_json_dict(c.to_json_dict())
    assert again == c and hash(again) == hash(c) and again != Chamber(space, light[:2])
    sets = ([1, 32], [1, 33], [64, 63], [2, 3, 4], [2, 3, 50], [5], [])
    assert [c.value(J) for J in sets] == [ref.value(J) for J in sets] == [0, 1, 0, 0, 1, 0, 0]
    q = c.quotient({1, 2, 3, 64})
    assert q.space == StabilitySpace(0, 61)
    # the light sets of C/S are those of C inside the complement of S
    assert q.light_max == ref.restrict(range(4, 64)).light_max
    r = c.restrict(range(30, 65))
    assert r.space == StabilitySpace(0, 35) and r.light_max == ref.restrict(range(30, 65)).light_max
