"""Chamber combinatorics, realizability LP, paths and enumeration."""

import copy
import itertools
import pickle
import random
import re
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpvol.chambers as chambers
from wpvol.chambers import (
    Chamber,
    StabilitySpace,
    WeightVector,
    chamber_from_json_dict,
    classify,
    crossing_path,
    enumerate_chambers,
    light_chamber,
    main_chamber,
    minimal_chamber_0,
    realize,
    witness,
)
from wpvol.errors import (
    NotComparableError,
    NotIncidentError,
    NotRealizableError,
    OnWallError,
    UnstableError,
)
from wpvol.poly import angle_ring

S04 = StabilitySpace(0, 4)
S05 = StabilitySpace(0, 5)
S12 = StabilitySpace(1, 2)


def chambers_04():
    b0 = main_chamber(S04)
    b1 = b0.cross({3, 4})
    b2 = b1.cross({2, 4})
    return b0, b1, b2, b2.cross({1, 4}), b2.cross({2, 3})


def test_space_validation():
    with pytest.raises(UnstableError):
        StabilitySpace(0, 2)
    with pytest.raises(UnstableError):
        StabilitySpace(-1, 5)
    StabilitySpace(1, 1)


@pytest.mark.parametrize(
    "g,n", [(1.0, 2), (1, 2.0), (True, 3), (0, True), (0.5, 3), ("1", 2), (F(1), 2), (None, 2)]
)
def test_space_rejects_non_int_pairs(g, n):
    """A g or n that is not an int, a bool included, raises ValueError on
    every call and is never interned: (1, 2) stays the int pair, whose
    chambers serialize and realize as before."""
    for _ in range(2):
        with pytest.raises(ValueError):
            StabilitySpace(g, n)
    space = StabilitySpace(1, 2)
    assert type(space.g) is int and type(space.n) is int
    assert main_chamber(space).to_json_dict()["g"] == 1
    assert realize(light_chamber(space)) is not None


def test_space_is_interned():
    """One object per (g, n): the constructor, keyword construction, pickle,
    ``copy`` and ``deepcopy`` return it.  It keeps the value semantics, hash
    and repr of the former frozen dataclass, its errors and its
    immutability."""
    space = StabilitySpace(1, 4)
    assert StabilitySpace(1, 4) is space and StabilitySpace(g=1, n=4) is space
    for again in (pickle.loads(pickle.dumps(space)), copy.copy(space), copy.deepcopy(space)):
        assert again is space
    c = enumerate_chambers(space)[5]
    assert pickle.loads(pickle.dumps(c)).space is space
    assert hash(space) == hash((1, 4)) and space == space
    assert space != StabilitySpace(4, 1) and space != StabilitySpace(1, 5)
    assert space != (1, 4) and len({space, StabilitySpace(1, 4), StabilitySpace(2, 4)}) == 2
    assert repr(space) == "StabilitySpace(g=1, n=4)" and repr(S04) == "StabilitySpace(g=0, n=4)"
    assert (space.g, space.n, space.labels) == (1, 4, range(1, 5))
    for g, n, message in [
        (-1, 5, "bad (g,n)=(-1,5)"),
        (1, 0, "bad (g,n)=(1,0)"),
        (0, 2, "unstable moduli problem (g,n)=(0,2)"),
        (0, 1, "unstable moduli problem (g,n)=(0,1)"),
    ]:
        for _ in range(2):  # a failed pair is not kept
            with pytest.raises(UnstableError, match=re.escape(message) + "$"):
                StabilitySpace(g, n)
    with pytest.raises(AttributeError):
        space.g = 2
    with pytest.raises(AttributeError):
        space.extra = 1
    with pytest.raises(AttributeError):
        del space.n
    assert (space.g, space.n, hash(space)) == (1, 4, hash((1, 4)))


def test_weight_vector_keeps_fraction_weights():
    """Fraction weights are kept as given; other weights are converted, as
    ``Fraction(x)`` converts them."""
    a = (F(1, 3), F(1, 2), F(2, 3), F(3, 4))
    w = WeightVector(S04, a)
    assert all(x is y for x, y in zip(w.a, a))
    mixed = WeightVector(S04, (1, "1/2", F(2, 3), 0.75))
    assert mixed.a == (F(1), F(1, 2), F(2, 3), F(3, 4))
    assert all(type(x) is F for x in mixed.a)
    assert (mixed.den, mixed.nums) == (12, (12, 6, 8, 9))


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(S04, (F(0), F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        WeightVector(S04, (F(2), F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        WeightVector(S04, (F(1, 2),) * 4)  # total 2, needs > 2 at g=0


def fraction_rules(space, a):
    """The former validation, on the Fractions: its error message, or None."""
    a = tuple(F(x) for x in a)
    for x in a:
        if not 0 < x <= 1:
            return f"weight {x} outside (0,1]"
    if sum(a) <= 2 - 2 * space.g:
        return "total weight violates sum a_j > 2-2g"
    return None


WEIGHT_BOUNDARIES = [
    (S04, (F(1), F(1), F(1), F(1))),  # every weight 1
    (S04, (F(1), F(1, 3), F(1, 3), F(1, 3) + F(1, 10**30))),  # 1 and just above the sum bound
    (S04, (F(1, 2),) * 4),  # sum exactly 2 - 2g
    (S04, (F(1, 3), F(2, 5), F(5, 7), F(7, 13))),  # mixed denominators, sum exactly 2
    (S04, (F(1, 3), F(2, 5), F(5, 7), F(8, 13))),
    (StabilitySpace(0, 3), (F(2, 3), F(2, 3), F(2, 3))),  # sum exactly 2
    (StabilitySpace(0, 3), (F(1), F(1, 2), F(1, 2) + F(1, 2**70))),
    (StabilitySpace(1, 1), (F(1),)),
    (StabilitySpace(1, 2), (F(1, 10**20), F(1, 3))),  # g = 1: any weights in (0, 1]
    (S04, (F(0), F(1), F(1), F(1))),
    (S04, (F(1), F(1), F(1), F(1) + F(1, 10**30))),  # just above 1
    (S04, (F(1), F(-1, 2), F(1), F(1))),
    (S05, (F(1, 6), F(1, 10), F(1, 15), F(1), F(1))),  # mixed denominators, sum 2 + 1/3
    (S05, (F(1, 6), F(1, 10), F(1, 15), F(2, 3), F(1))),  # sum exactly 2
    (StabilitySpace(2, 3), (F(1, 2), F(3, 4), F(5, 6))),
]


@pytest.mark.parametrize("space,a", WEIGHT_BOUNDARIES)
def test_integer_validation_matches_fraction_rules(space, a):
    """Validation in integers over the lcm accepts and rejects exactly what
    the Fraction rules do, with their message; an accepted vector holds
    a_j = nums[j] / den over the lcm of its denominators, and equality,
    hashing and repr see only the space and the weights."""
    want = fraction_rules(space, a)
    if want is not None:
        with pytest.raises(ValueError) as err:
            WeightVector(space, a)
        assert str(err.value) == want
        return
    w = WeightVector(space, a)
    assert w.den == lcm(*(x.denominator for x in a))
    assert w.a == a and all(F(k, w.den) == x for k, x in zip(w.nums, a))
    assert repr(w) == f"WeightVector(space={space!r}, a={a!r})"
    same = WeightVector(space, tuple(map(str, a)))  # the same weights, parsed
    assert same == w and hash(same) == hash(w) and (same.den, same.nums) == (w.den, w.nums)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([S04, S05, S12, StabilitySpace(0, 3), StabilitySpace(2, 3)]).flatmap(
        lambda space: st.tuples(
            st.just(space),
            st.lists(
                st.fractions(min_value=-F(1, 2), max_value=F(3, 2), max_denominator=30),
                min_size=space.n,
                max_size=space.n,
            ),
        )
    )
)
def test_integer_validation_matches_fraction_rules_on_random_weights(case):
    space, a = case
    want = fraction_rules(space, a)
    if want is None:
        w = WeightVector(space, tuple(a))
        assert (w.den, w.nums) == (lcm(*(x.denominator for x in a)), tuple(x * w.den for x in a))
    else:
        with pytest.raises(ValueError, match=re.escape(want)):
            WeightVector(space, tuple(a))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([S04, S05, S12, StabilitySpace(0, 3), StabilitySpace(2, 3)]).flatmap(
        lambda space: st.tuples(
            st.just(space),
            st.lists(st.integers(-40, 200), min_size=space.n, max_size=space.n),
            st.integers(1, 120),
            st.integers(1, 3 * 2**64),
        )
    )
)
def test_weight_vector_from_ints_matches_constructor(case):
    """``WeightVector._from_ints(space, nums, den)`` is ``WeightVector(space,
    nums / den)``: the same weights, integer form, repr, equality and hash,
    or the same error, whatever common factor the numerators and den share."""
    space, nums, den, scale = case
    nums, den = [k * scale for k in nums], den * scale
    a = tuple(F(k, den) for k in nums)
    try:
        want = WeightVector(space, a)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            WeightVector._from_ints(space, nums, den)
        assert str(got.value) == str(err)
        return
    w = WeightVector._from_ints(space, nums, den)
    assert (w.a, w.den, w.nums) == (want.a, want.den, want.nums)
    assert repr(w) == repr(want) and w == want and hash(w) == hash(want)
    assert all(type(x) is F for x in w.a)


def test_classify_examples():
    assert classify(WeightVector(S04, (F(9, 10),) * 4)) == main_chamber(S04)
    c = classify(WeightVector(S04, (F(1), F(2, 5), F(2, 5), F(2, 5))))
    assert c == minimal_chamber_0(S04, 1)
    with pytest.raises(OnWallError):
        classify(WeightVector(S04, (F(1, 2), F(1, 2), F(3, 4), F(3, 4))))


def test_chamber_value_and_canonical_form():
    c = Chamber(S04, ((2, 3), (3, 2), (2, 3, 4)))  # duplicates and non-maximal
    assert c.light_max == ((2, 3, 4),)
    assert c.value({2, 3}) == 0 and c.value({2, 4}) == 0
    assert c.value({1, 2}) == 1
    assert c.value({3}) == 0 and c.value(()) == 0


M05 = main_chamber(S05)


@pytest.mark.parametrize(
    "call, label",
    [
        (lambda: M05.is_flat(99), "99"),
        (lambda: M05.is_flat(0), "0"),
        (lambda: M05.is_flat(True), "True"),
        (lambda: M05.q_set(99), "99"),
        (lambda: M05.q_set(2.0), "2.0"),
        (lambda: M05.is_light(6), "6"),
        (lambda: M05.value({1, 9}), "9"),
        (lambda: M05.value({True, 2}), "True"),
        (lambda: M05.value(["1", 2]), "'1'"),
        (lambda: chambers.flat_hull(M05, 9), "9"),
        (lambda: chambers.light_hull(M05, 9), "9"),
        (lambda: chambers.light_hull(M05, False), "False"),
        (lambda: minimal_chamber_0(S05, 1.0), "1.0"),
        (lambda: minimal_chamber_0(S05, 6), "6"),
        (lambda: M05.cross({1, 2.0}), "2.0"),
        pytest.param(lambda: M05.uncross([True, 2]), "True", id="uncross-True"),
        pytest.param(lambda: M05.uncross([1.0, 2]), "1.0", id="uncross-1.0"),
        pytest.param(lambda: M05.uncross(["1", 2]), "'1'", id="uncross-'1'"),
        pytest.param(lambda: M05.uncross({1, 9}), "[1, 9]", id="uncross-[1, 9]"),
        pytest.param(lambda: M05.uncross({2}), "[2]", id="uncross-[2]"),
        (lambda: M05.quotient({True, 3}), "True"),
        (lambda: M05.restrict([1, 2, 3.0]), "3.0"),
        (lambda: M05.restrict([1, 2, 6]), "[1, 2, 6]"),
        (lambda: Chamber(S05, [(1, 2.5)]), "2.5"),
    ],
)
def test_chamber_label_arguments_are_checked(call, label):
    """A label that is not an int in 1..n, a bool included, raises a
    ValueError naming it: none is read as a mask bit, or as 1."""
    with pytest.raises(ValueError, match=re.escape(label)):
        call()
    assert M05.is_flat(1) and M05.value({1, 2}) == 1 and M05.q_set(5) == {1, 2, 3, 4}


@pytest.mark.parametrize(
    "perm",
    [
        pytest.param({1: 2, 2: True, 3: 3, 4: 4}, id="bool-value"),
        pytest.param({True: 2, 2: 1, 3: 3, 4: 4}, id="bool-key"),
        pytest.param({1: 2.0, 2: 1, 3: 3, 4: 4}, id="float-value"),
        pytest.param({1.0: 2, 2: 1, 3: 3, 4: 4}, id="float-key"),
        pytest.param({1: "2", 2: 1, 3: 3, 4: 4}, id="str-value"),
        pytest.param({1: 2.0}, id="one-label"),
        pytest.param({1: 2, 2: 1, 3: 3}, id="missing-label"),
        pytest.param({1: 2, 2: 1, 3: 3, 4: 4, 5: 5}, id="extra-label"),
        pytest.param({1: 2, 2: 2, 3: 3, 4: 4}, id="not-bijective"),
        pytest.param({1: 2, 2: 5, 3: 3, 4: 4}, id="value-out-of-range"),
        pytest.param([2, 1, 3, 4], id="not-a-map"),
    ],
)
def test_permuted_rejects_a_map_that_is_no_relabeling(perm):
    """Both ``permuted`` methods take only a map of the labels 1..n onto
    themselves, ints and not bools, and raise the same one-line ValueError
    for anything else; a valid map still relabels."""
    w = WeightVector(S04, (F(1, 2), F(3, 4), F(1, 3), F(1, 2)))
    c = main_chamber(S04).cross({3, 4})
    with pytest.raises(ValueError) as moved_w:
        w.permuted(perm)
    with pytest.raises(ValueError) as moved_c:
        c.permuted(perm)
    assert str(moved_w.value) == str(moved_c.value) == (
        f"invalid relabeling {perm!r}: need a map of the labels 1..4 onto themselves"
    )
    swap = {1: 3, 2: 2, 3: 1, 4: 4}
    assert w.permuted(swap).a == (F(1, 3), F(3, 4), F(1, 2), F(1, 2))
    assert c.permuted(swap).light_max == ((1, 4),)


@pytest.mark.parametrize("S", [[True, 2], [1.0, 2], ["1", 2], [0, 1], [1, 6], [2], [], [3, 3]])
def test_uncross_rejects_a_bad_wall_set_as_cross_does(S):
    """``uncross`` checks its wall set as ``cross`` does: the same
    ValueError, whatever the chamber."""
    for c in (M05, minimal_chamber_0(S05, 1)):
        with pytest.raises(ValueError) as crossed:
            c.cross(S)
        with pytest.raises(ValueError) as uncrossed:
            c.uncross(S)
        assert str(uncrossed.value) == str(crossed.value)


def test_eval_at_2pi_checks_its_coordinate():
    from wpvol.volumes import chamber_volume, eval_at_2pi

    vr = chamber_volume(M05)
    for i, named in ((True, "True"), (1.0, "1.0"), (0, "[0]"), (6, "[6]")):
        with pytest.raises(ValueError, match=re.escape(named)):
            eval_at_2pi(vr, i)
    assert not eval_at_2pi(vr, 5).is_zero()


def test_special_chambers():
    assert main_chamber(S04).light_max == ()
    assert light_chamber(S12).value({1, 2}) == 0
    with pytest.raises(UnstableError):
        light_chamber(S04)
    b4 = minimal_chamber_0(S04, 1)
    assert b4.light_max == ((2, 3), (2, 4), (3, 4))
    assert minimal_chamber_0(StabilitySpace(0, 3), 2).light_max == ()


def test_simple_cross_examples():
    b0, b1, b2, b3, b4 = chambers_04()
    assert b1.light_max == ((3, 4),)
    assert b4 == minimal_chamber_0(S04, 1)
    assert main_chamber(S12).cross({1, 2}) == light_chamber(S12)


def test_simple_cross_errors():
    b0, b1, *_ = chambers_04()
    with pytest.raises(NotIncidentError):
        b1.cross({3, 4})  # already below
    with pytest.raises(NotRealizableError):
        b1.cross({1, 2})  # disjoint light pairs violate sum a > 2
    c1 = minimal_chamber_0(S04, 1)
    # {2,3,4} has all proper subsets light so the combinatorial incidence
    # holds, but a light 3-set in D_{0,4} would force sum a <= 2
    with pytest.raises(NotRealizableError):
        c1.cross({2, 3, 4})


def test_cross_incidence_requires_light_subsets():
    b0 = main_chamber(S05)
    with pytest.raises(NotIncidentError):
        b0.cross({1, 2, 3})  # heavy pairs inside


def test_quotient_examples():
    # main chamber quotient is the main chamber one point down
    assert main_chamber(S05).quotient({4, 5}) == main_chamber(S04)
    # (1,2)/{1,2} is the unique chamber of D_{1,1}
    q = light_chamber(S12).quotient({1, 2})
    assert q.space == StabilitySpace(1, 1) and q.light_max == ()
    # paper case 3 of section 4.6: quotient has the B2 pattern, merged last
    c = classify(WeightVector(S05, (F(9, 10), F(9, 10), F(2, 25), F(9, 10), F(3, 20))))
    q = c.quotient({4, 5})
    assert q.light_max == ((1, 3), (2, 3))
    b2 = chambers_04()[2]
    perms = [
        dict(zip((1, 2, 3, 4), p))
        for p in itertools.permutations((1, 2, 3, 4))
    ]
    assert any(q.permuted(p) == b2 for p in perms)
    with pytest.raises(UnstableError):
        main_chamber(S04).quotient({1, 2, 3})  # would land in D_{0,2}


def test_quotient_matches_definition_exhaustively():
    # (C/S)(J) = 0 if J below S, C(J) if J disjoint from S, 1 otherwise,
    # over every chamber of D_{0,5}
    for c in enumerate_chambers(S05):
        for S in ({4, 5}, {1, 2}, {3, 4, 5}):
            q = c.quotient(S)
            comp = sorted(set(S05.labels) - set(S))
            merged = q.space.n
            for J in q.space.subsets():
                if merged in J:
                    assert q.value(J) == 1
                else:
                    pre = {comp[i - 1] for i in J}
                    assert q.value(J) == c.value(pre)


def test_restrict_matches_definition_exhaustively():
    # C|_T(J) = C(J) over every chamber of D_{0,5}
    for c in enumerate_chambers(S05):
        for T in ((1, 2, 3), (2, 4, 5), (1, 2, 4, 5)):
            r = c.restrict(T)
            for J in r.space.subsets():
                pre = {T[i - 1] for i in J}
                assert r.value(J) == c.value(pre)


def test_restrict_examples():
    from wpvol.volumes import losev_manin_chamber

    l3 = losev_manin_chamber(3)  # D_{0,5}, heavy points 4,5
    r = l3.restrict({1, 2, 4, 5})
    assert r == losev_manin_chamber(2)
    assert main_chamber(S05).restrict({1, 2, 3}) == main_chamber(StabilitySpace(0, 3))
    b2 = chambers_04()[2]
    assert b2.restrict({1, 2, 3}) == main_chamber(StabilitySpace(0, 3))
    with pytest.raises(UnstableError):
        b2.restrict({1, 2})


def test_flat_light_q():
    b0, b1, b2, b3, b4 = chambers_04()
    from wpvol.volumes import cp1n_chamber, losev_manin_chamber

    for n in (2, 3):
        ln = losev_manin_chamber(n)
        assert ln.is_flat(n)
        assert not ln.is_light(n)
        assert ln.q_set(n) == {n + 1, n + 2}
    an = cp1n_chamber(2)
    for i in (1, 2):
        assert an.is_light(i)
    # main chamber of D_{g,n+1} has q = {1..n}
    assert main_chamber(S05).q_set(5) == {1, 2, 3, 4}
    assert b2.is_flat(4) and not b2.is_light(4)
    assert b2.q_set(4) == {1}
    assert b3.is_light(4)
    assert not b4.is_flat(4)  # light {2,3} jumps to heavy {2,3,4}


def test_realizability_examples():
    # two disjoint light pairs cannot coexist with total weight > 2
    assert not Chamber(S04, ((1, 2), (3, 4))).is_realizable()
    # any light set of size n-1 at genus 0 is unrealizable
    assert not Chamber(S04, ((2, 3, 4),)).is_realizable()
    assert not Chamber(S05, ((1, 2, 3, 4),)).is_realizable()
    # light chamber at g >= 1 realizable via tiny weights
    assert light_chamber(S12).is_realizable()
    assert light_chamber(StabilitySpace(2, 3)).is_realizable()


def test_witness_classifies_back():
    for c in enumerate_chambers(S04):
        w = witness(c)
        assert classify(w) == c
    for c in enumerate_chambers(S05)[::37]:
        assert classify(witness(c)) == c


def test_realize_slack_is_positive_margin():
    point, slack = realize(main_chamber(S04))
    assert slack > 0
    assert all(a >= slack for a in point)
    assert sum(point) > 2


def test_crossing_path_examples():
    b0, b1, b2, b3, b4 = chambers_04()
    path = crossing_path(b0, b4)
    assert {frozenset(w) for w in path.walls()} == {
        frozenset({3, 4}),
        frozenset({2, 4}),
        frozenset({2, 3}),
    }
    assert path.replay() == b4
    assert crossing_path(b2, b2).steps == ()
    path12 = crossing_path(main_chamber(S12), light_chamber(S12))
    assert path12.walls() == [frozenset({1, 2})]


def test_crossing_path_not_comparable():
    b0, b1, b2, b3, b4 = chambers_04()
    with pytest.raises(NotComparableError):
        crossing_path(b3, b4)
    with pytest.raises(NotComparableError):
        crossing_path(b4, b0)


def test_crossing_path_replays_and_intermediates_realizable():
    for space in (S05, StabilitySpace(1, 4)):
        for c in enumerate_chambers(space):
            path = crossing_path(main_chamber(space), c)
            cur = main_chamber(space)
            for above, wall in path.steps:
                assert above == cur
                assert above.is_realizable()
                cur = above.cross(wall)
            assert cur == c


def test_uncross_inverts_cross():
    for space in (S05, StabilitySpace(1, 4)):
        for c in enumerate_chambers(space):
            for S in space.subsets():
                try:
                    below = c.cross(S)
                except (NotIncidentError, NotRealizableError):
                    continue
                assert below.uncross(S) == c, (c, S)
    b0, b1, b2, b3, b4 = chambers_04()
    assert b2.uncross((3, 4)) == b0.cross({2, 4})
    with pytest.raises(NotIncidentError):
        b1.uncross({1, 2})  # heavy
    with pytest.raises(NotIncidentError):
        Chamber(S05, ((1, 2, 3),)).uncross({1, 2})  # light, not maximal
    # above: {1,4}, {2,3} light force a1+a2+a3+a4 < 2, so {1,2}, {3,4} not both heavy
    with pytest.raises(NotRealizableError):
        Chamber(S05, ((1, 2), (1, 3), (1, 4), (2, 3))).uncross({1, 2})
    unrealizable = 0  # (chamber, maximal light set) pairs of D_{0,5} with no chamber above
    for c in enumerate_chambers(S05):
        for S in c.light_max:
            try:
                c.uncross(S)
            except NotRealizableError:
                unrealizable += 1
    assert unrealizable == 940


def test_enumeration_counts():
    assert len(enumerate_chambers(S04)) == 27
    assert len(enumerate_chambers(S04, up_to_symmetry=True)) == 5
    assert len(enumerate_chambers(S12)) == 2
    assert len(enumerate_chambers(StabilitySpace(1, 3))) == 9
    # regression values, fixed once computed
    assert len(enumerate_chambers(S05)) == 1087
    assert len(enumerate_chambers(S05, up_to_symmetry=True)) == 36


def _reference_enumeration(space):
    """Reference: the former full search, a breadth-first search over
    ``Chamber.cross`` at every heavy set of every chamber, sorted by (number
    of maximal light sets, light antichain)."""
    start = main_chamber(space)
    seen = {start}
    frontier = [start]
    while frontier:
        new_frontier = []
        for c in frontier:
            for S in space.subsets():
                if c.value(S) != 1:
                    continue
                try:
                    below = c.cross(S)
                except (NotIncidentError, NotRealizableError):
                    continue
                if below not in seen:
                    seen.add(below)
                    new_frontier.append(below)
        frontier = new_frontier
    return sorted(seen, key=lambda c: (len(c.light_max), c.light_max))


@pytest.fixture
def empty_memos(monkeypatch):
    """Every chamber memo table empty for the test, and restored after it;
    the fixture's value empties them all again."""

    def empty():
        for name in ("_realize_cache", "_realize_orbits", "_enum_cache"):
            monkeypatch.setattr(chambers, name, {})

    empty()
    return empty


def per_genus_solve(c):
    """Reference: the former ``_solve``, the realizability LP of ``c`` in its
    own genus, whose last row is sum a >= 2-2g+s with the chamber's g."""
    n = c.space.n
    g = c.space.g
    rows, rhs = [], []

    def row(avec, sigma, b):
        rows.append(avec + [sigma])
        rhs.append(b)

    for j in range(n):
        e = [0] * n
        e[j] = 1
        row(e, 0, 1)
        e = [0] * n
        e[j] = -1
        row(e, 1, 3)
    for J in c.light_max:
        row([1 if j + 1 in J else 0 for j in range(n)], 1, 4)
    for m in c._heavy_masks():
        row([-(m >> j & 1) for j in range(n)], 1, 2)
    row([-1] * n, 1, 1 + 2 * g)
    value, x = chambers.simplex_max([0] * n + [1], rows, rhs)
    slack = value - 3
    return (tuple(x[:n]), slack) if slack > 0 else None


GENUS_CLASS_SPACES = [(g, n) for g in (2, 3) for n in range(2, 6) if (g, n) != (2, 3)]


@pytest.mark.parametrize(
    "g,n",
    [(0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (0, 5), (1, 5)] + GENUS_CLASS_SPACES,
    ids=["D04", "D12", "D13", "D14", "D23", "D05", "D15"]
    + [f"D{g}{n}" for g, n in GENUS_CLASS_SPACES],
)
def test_orbit_search_matches_full_search(monkeypatch, empty_memos, g, n):
    """The orbit search returns the list the full search finds with the LP
    of each chamber's own genus, from empty memos, and the representatives
    are the first chamber of each orbit.  Every chamber's witness equals,
    bit for bit, that of its own-genus LP, although a space of genus >= 2
    is enumerated and realized through its genus class."""
    space = StabilitySpace(g, n)
    solved = {}  # the own-genus LP, memoized per chamber alone

    def realize_afresh(c):
        if c not in solved:
            solved[c] = per_genus_solve(c)
        return solved[c]

    with monkeypatch.context() as patched:
        patched.setattr(chambers, "realize", realize_afresh)
        want = _reference_enumeration(space)
    own = {c: realize_afresh(c) for c in want}
    empty_memos()
    assert enumerate_chambers(space) == want
    assert enumerate_chambers(space, up_to_symmetry=True) == _reference_up_to_symmetry(want)
    assert {c: realize(c) for c in want} == own


def test_genus_classes_share_one_search(monkeypatch, empty_memos):
    """D_{7,4} enumerated before D_{1,4} runs the one search of their genus
    class; afterwards every chamber of both realizes without an LP, to the
    witness of its own-genus LP, and the two lists hold the same light
    antichains."""
    d74, d14 = StabilitySpace(7, 4), StabilitySpace(1, 4)
    got = {space: enumerate_chambers(space) for space in (d74, d14)}
    reps = {space: enumerate_chambers(space, up_to_symmetry=True) for space in (d74, d14)}
    assert [c.light_max for c in got[d74]] == [c.light_max for c in got[d14]]
    assert [c.light_max for c in reps[d74]] == [c.light_max for c in reps[d14]]
    assert all(c.space == space for space in got for c in got[space] + reps[space])
    with monkeypatch.context() as patched:
        patched.setattr(chambers, "simplex_max", _no_lp)
        known = {c: realize(c) for space in got for c in got[space] + reps[space]}
    assert known == {c: per_genus_solve(c) for c in known}


def test_d26_representatives_match_per_space_search(monkeypatch, empty_memos):
    """The D_{2,6} representatives, read from the search of D_{1,6}, and
    their witnesses equal those of a search of D_{2,6} alone with its own
    LPs."""
    space = StabilitySpace(2, 6)
    reps = enumerate_chambers(space, up_to_symmetry=True)
    got = {c: realize(c) for c in reps}
    empty_memos()
    with monkeypatch.context() as patched:
        patched.setattr(chambers, "_genus_class", lambda space: space)
        patched.setattr(chambers, "_solve", per_genus_solve)
        assert enumerate_chambers(space, up_to_symmetry=True) == reps
        assert {c: realize(c) for c in reps} == got
    assert len(reps) == 994


def test_solve_is_the_genus_class_lp(monkeypatch):
    """For g >= 1, ``_solve`` hands ``simplex_max`` the LP of D_{1,n}, on the
    chambers and the candidates of the enumeration and above the
    enumeration bound; at g = 0 the sum row keeps its own right-hand side."""
    seen = []

    def record(c, A, b):
        seen.append((A, b))
        return 0, [0] * len(c)

    def lps(space, antichains):
        seen.clear()
        for light_max in antichains:
            chambers._solve(Chamber(space, light_max))
        return list(seen)

    antichains = {
        n: [c.light_max for c in enumerate_chambers(d1n) + list(_candidates(d1n))]
        for n, d1n in ((n, StabilitySpace(1, n)) for n in (2, 3, 4, 5))
    }
    monkeypatch.setattr(chambers, "simplex_max", record)
    for n in (2, 3, 4, 5):
        want = lps(StabilitySpace(1, n), antichains[n])
        for g in (2, 3, 7):
            assert lps(StabilitySpace(g, n), antichains[n]) == want
    above = [(), ((1, 2),), ((1, 2, 3, 4, 5, 6, 7),)]
    assert lps(StabilitySpace(2, 7), above) == lps(StabilitySpace(1, 7), above)
    ((A, b),) = lps(S04, [()])
    assert (A[-1], b[-1]) == ([-1, -1, -1, -1, 1], 1)


@pytest.mark.parametrize("g,n", [(0, 4), (1, 4), (0, 5)], ids=["D04", "D14", "D05"])
def test_enumeration_witnesses_without_lp(monkeypatch, empty_memos, g, n):
    """After enumeration every chamber's witness is known without an LP; it
    lies in the chamber and has the margin a fresh LP gives."""
    space = StabilitySpace(g, n)
    found = enumerate_chambers(space)

    def no_lp(*args, **kwargs):
        raise AssertionError("simplex_max called for an enumerated chamber")

    monkeypatch.setattr(chambers, "simplex_max", no_lp)
    assert all(c in chambers._realize_cache for c in found)
    known = {c: realize(c) for c in found}
    for c, (point, slack) in known.items():
        assert classify(WeightVector(space, point)) == c
    monkeypatch.undo()
    for c, (point, slack) in known.items():
        assert chambers._solve(c)[1] == slack


def _reference_up_to_symmetry(every):
    """One chamber per S_n orbit of the full list ``every``, keyed by its
    smallest relabeled antichain over all n! permutations; the first chamber
    of each orbit, orbits in key order."""
    reps = {}
    for c in every:
        key = min(
            tuple(sorted(tuple(sorted(p[j - 1] for j in s)) for s in c.light_max))
            for p in itertools.permutations(c.space.labels)
        )
        reps.setdefault(key, c)
    return [reps[k] for k in sorted(reps)]


def _reference_minimal_heavy(light_max, n):
    """Reference: the former minimal heavy sets, a closure loop over the
    submasks of each maximal light set and a test of every mask."""
    light = {0} | {1 << j for j in range(n)}
    for a in light_max:
        sub = a
        while sub:
            light.add(sub)
            sub = (sub - 1) & a
    out = []
    for m in range(1 << n):
        if m not in light and all(m ^ (1 << j) in light for j in range(n) if m >> j & 1):
            out.append(m)
    return out


def _moved(point, perm):
    """Reference: the weights of ``point`` relabeled by ``perm``, a_j moved
    to position perm[j-1] + 1 as label j is; written as a scatter."""
    out = [None] * len(point)
    for j, p in enumerate(perm):
        out[p] = point[j]
    return tuple(out)


def _reference_orbit(masks, n):
    """Reference: the former ``chambers._orbit`` of the chamber with light
    antichain ``masks``: (form, perm), its canonical form, the smallest rank
    tuple over one relabeling per coset of its ties, and the first
    permutation reaching it; None if its desirability relation is not
    total."""
    ranks = chambers._desirability(chambers._light_closure(masks, n), n)
    if ranks is None:
        return None
    sym = chambers._relabelings(n)
    ks = chambers._coset_relabelings(n, ranks)
    forms = sym.relabeled(masks, ks)
    i = min(range(len(ks)), key=forms.__getitem__)
    return forms[i], sym.perms[ks[i]]


def _reference_orbit_search(space, orbits, canonical=None):
    """Reference: the former orbit search, which canonicalizes every candidate
    (by default over all n! relabelings; else by ``canonical``, where None
    drops it) and solves one LP per new canonical form, on the chamber of
    that form, in the table ``orbits`` keyed by (genus class, form); then
    expands the representatives.  Returns (the light antichains of all
    chambers, their witnesses, representatives validated by ``Chamber``)."""
    n = space.n
    sym = chambers._relabelings(n)
    cls = chambers._genus_class(space)
    canonical = canonical or (lambda masks: min(sym.relabeled(masks)))

    def chamber(key):
        return Chamber(space, tuple(chambers._labels(sym.masks[r]) for r in key))

    def realize_form(form):
        if (cls, form) not in orbits:
            orbits[(cls, form)] = chambers._solve(chamber(form))
        return orbits[(cls, form)]

    seen = {()}
    found = []
    frontier = [()]
    while frontier:
        new_frontier = []
        for key in frontier:
            found.append(key)
            masks = [sym.masks[r] for r in key]
            for S in _reference_minimal_heavy(masks, n):
                below = canonical([m for m in masks if m & ~S] + [S])
                if below is not None and below not in seen:
                    seen.add(below)
                    if realize_form(below) is not None:
                        new_frontier.append(below)
        frontier = new_frontier
    found.sort()
    witnesses = {}
    for key in found:
        point, slack = realize_form(key)
        for p, image in zip(sym.perms, sym.relabeled(sym.masks[r] for r in key)):
            if image not in witnesses:
                witnesses[image] = (_moved(point, p), slack)
    every = sorted(witnesses, key=lambda k: (len(k), k))
    light_max = [tuple(chambers._labels(sym.masks[r]) for r in k) for k in every]
    return light_max, [witnesses[k] for k in every], [chamber(k) for k in found]


def _key_chamber(space, key):
    """The chamber whose light antichain is the sorted key ``key`` (masks)."""
    return Chamber(space, tuple(map(chambers._labels, key)))


@pytest.mark.parametrize(
    "g,n",
    [(0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (0, 5), (1, 5)],
    ids=["D04", "D12", "D13", "D14", "D23", "D05", "D15"],
)
def test_orbit_search_matches_reference_orbit_search(empty_memos, g, n):
    """From empty memos, the filtered search returns the lists of the former
    orbit search, and its orbit table, keyed by the sorted key, holds one
    entry per realizable orbit of the former table, keyed by the canonical
    form, with the same witness relabeled; the forms the former table holds
    beyond those have no total desirability relation and are not
    realizable.  The full list gets the witnesses of the former one; a
    space of genus >= 2 also fills the memo with the chambers of its genus
    class, each with the witness of the same light antichain."""
    space = StabilitySpace(g, n)
    ref_orbits = {}
    want_all, want_witnesses, want_reps = _reference_orbit_search(space, ref_orbits)
    reps = enumerate_chambers(space, up_to_symmetry=True)
    assert [c.light_max for c in reps] == [c.light_max for c in want_reps]
    got_all = enumerate_chambers(space)
    assert [c.light_max for c in got_all] == want_all
    cls = chambers._genus_class(space)
    matched = set()
    for (key_space, key), entry in chambers._realize_orbits.items():
        assert key_space == cls
        form, perm = _full_scan_orbit(_key_chamber(space, key), False)
        canon = ref_orbits[(cls, form)]
        assert entry == (canon and (tuple(canon[0][p] for p in perm), canon[1]))
        matched.add((cls, form))
    assert len(matched) == len(chambers._realize_orbits)
    sym = chambers._relabelings(n)
    for key in ref_orbits.keys() - matched:
        light = chambers._light_closure((sym.masks[r] for r in key[1]), n)
        assert ref_orbits[key] is None and chambers._desirability(light, n) is None
    memo = chambers._realize_cache
    assert [memo[c] for c in got_all] == want_witnesses
    assert {c for c in memo if c.space == space} == set(got_all)
    for c in memo.keys() - set(got_all):
        assert c.space == cls != space
        assert memo[c] == memo[chambers._adopt(space, c._masks)]


def _reference_realize(c, memo, orbits):
    """Reference: the former ``realize``, on the tables ``memo`` (per
    chamber) and ``orbits`` (per genus class and canonical form, the witness
    in the labels of the canonical chamber); an orbit miss solves the LP of
    ``c`` itself."""
    if c not in memo:
        orbit = _reference_orbit([chambers._mask(s) for s in c.light_max], c.space.n)
        memo[c] = None
        if orbit is not None:
            form, perm = orbit
            key = (chambers._genus_class(c.space), form)
            if key not in orbits:
                got = chambers._solve(c)
                orbits[key] = got and (_moved(got[0], perm), got[1])
            canon = orbits[key]
            memo[c] = canon and (tuple(canon[0][p] for p in perm), canon[1])
    return memo[c]


@pytest.mark.parametrize("g,n", [(0, 5), (1, 5), (0, 6)], ids=["D05", "D15", "D06"])
def test_sorted_key_tables_match_canonical_form_tables(empty_memos, g, n):
    """From empty memos, the realizability tables keyed by the sorted key and
    those keyed by the n! canonical form (``_reference_orbit``, the former
    ``_orbit``) give the same witness, bit for bit, for every chamber that
    ``realize`` is asked about: first cold, in shuffled order before any
    search, on candidates and relabeled representatives; then after the
    search, on every candidate and every chamber of the full list.  The two
    orbit tables agree on realizability per orbit, and the representatives,
    their order and the full list are those of the former search."""
    space = StabilitySpace(g, n)
    orbits = {}
    want_all, want_witnesses, want_reps = _reference_orbit_search(
        space, orbits, lambda masks: (_reference_orbit(masks, n) or (None,))[0]
    )
    candidates = list(_candidates(space, want_reps))
    rng = random.Random(20261019 + n)
    relabeled = [c.permuted(dict(zip(space.labels, rng.sample(space.labels, n)))) for c in want_reps]
    cold = candidates + relabeled
    rng.shuffle(cold)
    cold = cold[:400]
    cold_memo, cold_orbits = {}, {}
    assert [realize(c) for c in cold] == [_reference_realize(c, cold_memo, cold_orbits) for c in cold]

    empty_memos()
    assert enumerate_chambers(space, up_to_symmetry=True) == want_reps
    got_all = enumerate_chambers(space)
    assert [c.light_max for c in got_all] == want_all
    assert [realize(c) for c in got_all] == want_witnesses
    memo = {}
    assert [realize(c) for c in candidates] == [_reference_realize(c, memo, orbits) for c in candidates]
    realizable = {}
    for (_, key), entry in chambers._realize_orbits.items():
        form, _ = _reference_orbit(list(key), n)
        realizable[form] = entry is not None
    assert len(realizable) == len(chambers._realize_orbits)
    assert realizable == {form: entry is not None for (_, form), entry in orbits.items()}


def _candidates(space, reps=None):
    """The chamber below each minimal heavy set of each orbit representative
    of ``space`` (or of ``reps``): the candidates the search filters."""
    for c in enumerate_chambers(space, up_to_symmetry=True) if reps is None else reps:
        for S in c.heavy_min():
            below = [s for s in c.light_max if not set(s) <= S] + [tuple(sorted(S))]
            yield Chamber(space, tuple(below))


@pytest.mark.parametrize(
    "g,n,rejected",
    [(0, 4, 2), (1, 2, 0), (1, 4, 2), (0, 5, 28), (1, 5, 43)],
    ids=["D04", "D12", "D14", "D05", "D15"],
)
def test_desirability_filter_rejects_no_realizable_chamber(g, n, rejected):
    """Every candidate the filter rejects has no solution to its LP, solved
    afresh; relabeling maps candidates to candidates and the filter to
    itself, so the candidates of the representatives cover them all.
    ``rejected`` counts the orbits of rejected candidates (regression values,
    fixed once computed)."""
    space = StabilitySpace(g, n)
    sym = chambers._relabelings(n)
    forms = set()
    for below in _candidates(space):
        masks = [chambers._mask(s) for s in below.light_max]
        if chambers._desirability(chambers._light_closure(masks, n), n) is None:
            assert chambers._solve(below) is None, below
            forms.add(min(sym.relabeled(masks)))
    assert len(forms) == rejected


def _sorted_form(c):
    """(desirability ranks, sorted key) of the chamber ``c``, or None if the
    relation is not total."""
    n = c.space.n
    ranks = chambers._desirability(chambers._light_closure(map(chambers._mask, c.light_max), n), n)
    orbit = chambers._sorted_key(c)
    assert (orbit is None) == (ranks is None)
    return orbit and (ranks, orbit[0])


def _image(masks, perm):
    """The light antichain ``masks`` relabeled by ``perm`` (label j goes to
    perm[j-1] + 1), as ascending masks."""
    return tuple(sorted(sum(1 << p for j, p in enumerate(perm) if m >> j & 1) for m in masks))


@pytest.mark.parametrize(
    "g,n", [(0, 4), (1, 2), (1, 4), (0, 5), (1, 5)], ids=["D04", "D12", "D14", "D05", "D15"]
)
def test_enumerated_chambers_have_total_desirability(g, n):
    """Every chamber is a weighted threshold family: its desirability relation
    is total, and its ranks order the labels by the witness weights."""
    space = StabilitySpace(g, n)
    for c in enumerate_chambers(space):
        got = _sorted_form(c)
        assert got is not None, c
        ranks = got[0]
        point = realize(c)[0]
        for i, j in itertools.permutations(range(n), 2):
            if point[i] > point[j]:
                assert ranks[i] <= ranks[j], c


@pytest.mark.parametrize("g,n", [(0, 4), (1, 4), (0, 5), (1, 5)], ids=["D04", "D14", "D05", "D15"])
def test_minimal_heavy_matches_reference_closure(g, n):
    for c in enumerate_chambers(StabilitySpace(g, n)):
        masks = [chambers._mask(s) for s in c.light_max]
        got = chambers._minimal_heavy(chambers._light_closure(masks, n), n)
        assert got == _reference_minimal_heavy(masks, n), c


@pytest.mark.parametrize(
    "g,n", [(0, 4), (1, 4), (0, 5), (1, 5)], ids=["D04", "D14", "D05", "D15"]
)
def test_tie_relabelings_match_all_relabelings(g, n):
    """For every candidate of the search with a total relation: every
    permutation that sorts the labels by desirability rank gives the sorted
    key, the image under the one relabeling ``_sorted_key`` takes, because
    swapping two tied labels maps the candidate to itself; and the coset
    relabelings reach each image of all n! relabelings once, each by the
    first permutation that reaches it."""
    space = StabilitySpace(g, n)
    sym = chambers._relabelings(n)
    pairs = list(itertools.permutations(range(n), 2))
    checked = 0
    for below in _candidates(space):
        masks = [chambers._mask(s) for s in below.light_max]
        got = _sorted_form(below)
        if got is None:
            continue
        ranks, key = got
        sorting = [p for p in sym.perms if all(p[i] < p[j] for i, j in pairs if ranks[i] < ranks[j])]
        assert {_image(masks, p) for p in sorting} == {key}
        for i, j in pairs:
            if ranks[i] == ranks[j]:
                swap = {k: k for k in space.labels} | {i + 1: j + 1, j + 1: i + 1}
                assert below.permuted(swap) == below
        first = {}
        for k, image in enumerate(sym.relabeled(masks)):
            first.setdefault(image, k)
        ks = chambers._coset_relabelings(n, ranks)
        assert dict(zip(sym.relabeled(masks, ks), ks)) == first
        assert len(ks) == len(first)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("g,n", [(1, 4), (0, 5), (1, 5)], ids=["D14", "D05", "D15"])
def test_sorted_form_is_an_orbit_key(g, n):
    """The search's dedup key, the antichain relabeled by desirability rank,
    is one per orbit of the full list and differs between orbits."""
    sym = chambers._relabelings(n)
    keys = {}
    for c in enumerate_chambers(StabilitySpace(g, n)):
        masks = [chambers._mask(s) for s in c.light_max]
        keys.setdefault(min(sym.relabeled(masks)), set()).add(_sorted_form(c)[1])
    assert all(len(forms) == 1 for forms in keys.values())
    assert len(set().union(*keys.values())) == len(keys)


@pytest.mark.parametrize("g,n", [(0, 4), (1, 4), (0, 5)], ids=["D04", "D14", "D05"])
def test_rank_tuple_chambers_equal_validated_chambers(g, n):
    """A chamber built from a sorted rank tuple, with no validation, equals the
    ``Chamber`` built from its light antichain, which keeps it unchanged."""
    space = StabilitySpace(g, n)
    for c in enumerate_chambers(space) + enumerate_chambers(space, up_to_symmetry=True):
        checked = Chamber(space, c.light_max)
        assert checked == c and hash(checked) == hash(c)
        assert checked.light_max == c.light_max


@pytest.mark.parametrize(
    "space,total",
    [(S04, 27), (StabilitySpace(1, 4), 96), (S05, 1087), (StabilitySpace(1, 5), 2690)],
    ids=["D04", "D14", "D05", "D15"],
)
def test_up_to_symmetry_matches_permutation_key(space, total):
    reps = enumerate_chambers(space, up_to_symmetry=True)
    assert reps == _reference_up_to_symmetry(enumerate_chambers(space))
    # orbit-stabiliser: the orbits of the representatives cover every chamber
    orbit_sizes = [
        len({c.permuted(dict(zip(space.labels, p))) for p in itertools.permutations(space.labels)})
        for c in reps
    ]
    assert sum(orbit_sizes) == total


def test_enumeration_deterministic_order():
    first = enumerate_chambers(S04)
    second = enumerate_chambers(S04)
    assert first == second
    reps1 = enumerate_chambers(S04, up_to_symmetry=True)
    reps2 = enumerate_chambers(S04, up_to_symmetry=True)
    assert reps1 == reps2


def test_enumeration_bound():
    from wpvol.errors import BoundExceededError

    assert chambers.ENUMERATION_BOUND == 6
    for n in (7, 8):
        with pytest.raises(BoundExceededError):
            enumerate_chambers(StabilitySpace(0, n))


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its arguments in the
    returned list."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_orbit_tables_above_the_enumeration_bound(monkeypatch, empty_memos):
    """Above ENUMERATION_BOUND the orbit tables still serve: a D_{0,7} chamber
    and a relabeling of it solve one LP between them, each witness that of
    its own fresh LP; a D_{2,7} chamber reads the entry of the same light
    antichain in D_{1,7} with no LP; and a crossing of a D_{0,7} chamber with
    a quotient with one light pair is read, relabeled, from the key-orbit
    crossing table with no integral, equal to the crossing integrated
    afresh."""
    from wpvol import volumes

    d07, d17, d27 = (StabilitySpace(g, 7) for g in (0, 1, 2))
    w = WeightVector(d07, (F(1, 5), F(9, 10), F(1, 3), F(7, 11), F(2, 7), F(3, 4), F(1, 2)))
    c = classify(w)
    other = c.permuted({1: 4, 2: 6, 3: 1, 4: 7, 5: 2, 6: 3, 7: 5})
    assert len(c.light_max) > 2 and other != c
    with monkeypatch.context() as patched:
        solved = _counting(patched, chambers, "simplex_max")
        got = realize(c), realize(other)
    assert len(solved) == 1 and None not in got
    assert got == (chambers._solve(c), chambers._solve(other))
    assert realize(Chamber(d17, c.light_max)) is not None
    with monkeypatch.context() as patched:
        patched.setattr(chambers, "simplex_max", _no_lp)
        assert realize(Chamber(d27, c.light_max)) == realize(Chamber(d17, c.light_max))

    for name in (
        "_volume_cache",
        "_steps",
        "_crossing_cache",
        "_crossing_orbits",
        "_orbit_sources",
    ):
        monkeypatch.setattr(volumes, name, {})
    c, S = Chamber(d07, ((1, 3, 7),)), frozenset({1, 2})
    assert c.quotient(S).light_max == ((1, 5),)
    volumes.wall_crossing_poly(c, S)
    keys = set(volumes._crossing_orbits)
    perm = {1: 2, 2: 7, 3: 4, 4: 1, 5: 3, 6: 5, 7: 6}
    c, S = c.permuted(perm), frozenset(perm[j] for j in S)
    with monkeypatch.context() as patched:
        integrated = _counting(patched, volumes, "_wc_integral")
        got = volumes.wall_crossing_poly(c, S).poly
    assert not integrated and set(volumes._crossing_orbits) == keys
    assert got == volumes._integrate_crossing(c, S)


@pytest.mark.parametrize("g,n", [(0, 5), (1, 5), (0, 6)], ids=["D05", "D15", "D06"])
def test_search_canonicalizes_realizable_orbits_only(monkeypatch, empty_memos, g, n):
    """The search solves one LP per sorted key of its candidates, on the
    chamber of the key, and takes the n! canonical form of the realizable
    ones alone: once per representative but the main chamber."""
    space = StabilitySpace(g, n)
    solved = _counting(monkeypatch, chambers, "_solve")
    canonicalized = _counting(monkeypatch, chambers, "_coset_relabelings")
    reps = enumerate_chambers(space, up_to_symmetry=True)
    assert len(canonicalized) == len(reps) - 1
    keys = [key for (_, key) in chambers._realize_orbits]
    assert [_sorted_form(c)[1] for (c,) in solved] == keys
    assert sum(entry is not None for entry in chambers._realize_orbits.values()) == len(reps) - 1


def test_orbit_sizes_of_d06_cover_every_chamber():
    """The D_{0,6} representatives, from the orbit search alone: their orbit
    sizes, read from the rank tables, sum to the 105 123 chambers, and the
    full list is not built."""
    space = StabilitySpace(0, 6)
    reps = enumerate_chambers(space, up_to_symmetry=True)
    sym = chambers._relabelings(6)
    sizes = [len(set(sym.relabeled(map(chambers._mask, c.light_max)))) for c in reps]
    assert (len(reps), sum(sizes)) == (448, 105123)
    assert chambers._enum_cache[space][1] is None


def _monotone_candidates(space):
    """Spec-stated enumeration strategy: antichain extension + pruning.

    Independent oracle for the BFS enumeration: generate all monotone 0/1
    functions on the size >= 2 subsets via their light antichains, prune by
    the genus-0 obstruction, LP-filter.
    """
    subsets = [frozenset(s) for s in space.subsets()]
    if space.g == 0:
        usable = [s for s in subsets if len(s) <= space.n - 2]
    else:
        usable = subsets
    found = set()
    for r in range(len(usable) + 1):
        for combo in itertools.combinations(usable, r):
            if any(a < b for a in combo for b in combo):
                continue
            c = Chamber(space, tuple(tuple(sorted(s)) for s in combo))
            if c.light_max == tuple(sorted(tuple(sorted(s)) for s in combo)):
                if c.is_realizable():
                    found.add(c)
    return found


def test_enumeration_matches_antichain_generation():
    assert set(enumerate_chambers(S04)) == _monotone_candidates(S04)
    assert set(enumerate_chambers(S12)) == _monotone_candidates(S12)


def test_symmetric_group_equivariance():
    w = WeightVector(S05, (F(9, 10), F(9, 10), F(2, 25), F(9, 10), F(3, 20)))
    c = classify(w)
    for p in itertools.permutations(range(1, 6)):
        perm = dict(zip(range(1, 6), p))
        assert classify(w.permuted(perm)) == c.permuted(perm)


def test_chamber_json_round_trip():
    b2 = chambers_04()[2]
    data = b2.to_json_dict()
    assert data == {"g": 0, "n": 4, "light_max": [[2, 4], [3, 4]]}
    assert chamber_from_json_dict(data) == b2
    assert chamber_from_json_dict({"light_max": [[2, 4], [3, 4]]}, g=0, n=4) == b2


def classify_by_fraction_sums(w):
    """Reference: the former classify, one Fraction sum per subset."""
    light = []
    for J in w.space.subsets():
        total = sum(w.a[j - 1] for j in J)
        if total == 1:
            return J
        if total < 1:
            light.append(tuple(sorted(J)))
    return Chamber(w.space, tuple(light))


SEEDED_SPACES = (S04, S05, S12, StabilitySpace(1, 3), StabilitySpace(2, 3), StabilitySpace(1, 5))


def seeded_weight_vectors(seed, count, spaces=SEEDED_SPACES):
    """Weights p/q with mixed denominators; about a third are put on a wall
    by making the weights of a random subset J sum to exactly 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        space = rng.choice(spaces)
        dens = [rng.choice([2, 3, 5, 7, 12, 1000]) for _ in space.labels]
        a = [F(rng.randint(1, q), q) for q in dens]
        if rng.random() < 0.35:
            J = rng.sample(list(space.labels), rng.randint(2, space.n))
            cuts = sorted(F(rng.randint(1, 59), 60) for _ in J[1:])
            parts = [hi - lo for lo, hi in zip([F(0)] + cuts, cuts + [F(1)])]
            if min(parts) <= 0:
                continue
            for j, x in zip(J, parts):
                a[j - 1] = x
        try:
            out.append(WeightVector(space, tuple(a)))
        except ValueError:  # total weight too small for the space
            continue
    return out


def test_integer_classify_matches_fraction_subset_sums():
    """The mask classify gives the light antichain of the Fraction reference,
    tuple for tuple, and on a wall the first wall in subsets() order."""
    on_wall = 0
    six = (StabilitySpace(0, 6), StabilitySpace(1, 6))
    for w in seeded_weight_vectors(20260, 600) + seeded_weight_vectors(20261, 300, six):
        want = classify_by_fraction_sums(w)
        if isinstance(want, Chamber):
            got = classify(w)
            assert got == want
            assert got.light_max == want.light_max
        else:
            on_wall += 1
            with pytest.raises(OnWallError) as err:
                classify(w)
            assert isinstance(err.value.wall, frozenset)
            assert err.value.wall == want
    assert on_wall > 50  # the on-wall branch is exercised


def test_classify_matches_fraction_subset_sums_at_n9():
    """At n = 9 the bitsets of classify span 512 masks: it still gives the
    Fraction reference's antichain or first wall; at n = 12 a vector whose
    every subset is light has the one maximal light set of all labels."""
    nine = (StabilitySpace(0, 9), StabilitySpace(1, 9))
    kinds = set()
    for w in seeded_weight_vectors(20262, 40, nine):
        want = classify_by_fraction_sums(w)
        kinds.add(isinstance(want, Chamber))
        if isinstance(want, Chamber):
            assert classify(w).light_max == want.light_max
        else:
            with pytest.raises(OnWallError) as err:
                classify(w)
            assert err.value.wall == want
    assert kinds == {True, False}
    w = WeightVector(StabilitySpace(1, 12), tuple(F(k, 997) for k in range(1, 13)))
    assert classify(w).light_max == (tuple(range(1, 13)),)


def test_last_crossing_after_enumeration_solves_no_lp(monkeypatch):
    """After enumeration every realizable chamber is known, so last_crossing
    solves no LP, asks for no point and returns the first realizable
    candidate in light_max order, as it did before known candidates were
    tried first."""
    for space in (S05, StabilitySpace(1, 4)):
        known = set(enumerate_chambers(space))
        expected = {
            c: next((c.uncross(S), frozenset(S)) for S in c.light_max if _uncrossable(c, S))
            for c in known
            if c.light_max
        }

        def no_lp(*args, **kwargs):
            raise AssertionError("simplex_max called for a known chamber")

        monkeypatch.setattr(chambers, "simplex_max", no_lp)
        for c, want in expected.items():
            above, S = chambers.last_crossing(c, (), _no_point)
            assert (above, S) == want
            assert above in known and above.cross(S) == c
        monkeypatch.undo()


def _late_uncrossings(space):
    """(c, above, S) for the chambers of ``space`` whose last realizable
    uncrossing S is not their first maximal light set; above = c.uncross(S)."""
    for c in enumerate_chambers(space):
        walls = [S for S in c.light_max if _uncrossable(c, S)]
        if len(c.light_max) < 2 or not walls or walls[-1] == c.light_max[0]:
            continue
        yield c, c.uncross(walls[-1]), frozenset(walls[-1])


def _no_lp(*args, **kwargs):
    raise AssertionError("simplex_max called although a known candidate exists")


def _no_point():
    raise AssertionError("a point asked for although a known candidate exists")


def test_last_crossing_tries_known_realizable_first(monkeypatch):
    """With only the last realizable candidate known, last_crossing returns it
    without solving an LP or asking for a point."""
    checked = 0
    for c, above, S in _late_uncrossings(S05):
        monkeypatch.setattr(chambers, "_realize_cache", {above: chambers.realize(above)})
        monkeypatch.setattr(chambers, "_realize_orbits", {})
        monkeypatch.setattr(chambers, "simplex_max", _no_lp)
        assert chambers.last_crossing(c, (), _no_point) == (above, S)
        monkeypatch.undo()
        checked += 1
    assert checked > 100


def test_last_crossing_takes_known_chambers_as_realizable(monkeypatch, empty_memos):
    """A chamber in ``known`` (the volume engine passes its volume memo) is
    taken as realizable and tried first, with no LP and no point."""
    checked = 0
    for c, above, S in _late_uncrossings(S05):
        empty_memos()
        monkeypatch.setattr(chambers, "simplex_max", _no_lp)
        assert chambers.last_crossing(c, {above}, _no_point) == (above, S)
        monkeypatch.undo()
        checked += 1
    assert checked > 100


def _uncrossable(c, S):
    try:
        c.uncross(S)
    except NotRealizableError:
        return False
    return True


def test_theta_values_equal_the_poly_product():
    """The one-term angles equal (2 - 2 a_j) * pi built by Poly arithmetic,
    a weight of 1 giving the zero Poly."""
    ws = seeded_weight_vectors(7, 200)
    ws.append(WeightVector(S05, (F(1), F(1, 2), F(3, 4), F(1), F(1, 7))))
    ones = 0
    for w in ws:
        ring = angle_ring(w.space.n)
        assert w.theta_values(ring) == [(2 - 2 * aj) * ring.pi() for aj in w.a]
        ones += w.a.count(1)
    assert ones >= 2


def _full_scan_orbit(c, fix_last):
    """Reference: the smallest rank tuple of ``c`` over every relabeling (or
    every one fixing the last label), and the first permutation giving it."""
    n = c.space.n
    sym = chambers._relabelings(n)
    masks = [chambers._mask(s) for s in c.light_max]

    def form(k):
        return tuple(sorted(map(sym.tables[k].__getitem__, masks)))

    ks = [k for k, p in enumerate(sym.perms) if not fix_last or p[-1] == n - 1]
    k = min(ks, key=form)
    return form(k), sym.perms[k]


@pytest.mark.parametrize("g,n", [(0, 5), (1, 4), (1, 5)], ids=["D05", "D14", "D15"])
def test_orbit_over_cosets_matches_full_scan(g, n):
    """Over one relabeling per coset of the ties (``_coset_relabelings``), the
    smallest rank tuple, the canonical form of the search, and the first
    permutation reaching it (``_reference_orbit``) are those of the scan
    over all relabelings.  With the merged label last, the sorted key is one
    per orbit of the relabelings that fix the last label, as the scan over
    those finds them, and its permutation fixes that label and reaches it,
    with ``order`` its inverse."""
    keys = {}  # the last-fixed form -> the merged-last sorted keys of its chambers
    for c in enumerate_chambers(StabilitySpace(g, n)):
        masks = [chambers._mask(s) for s in c.light_max]
        assert _reference_orbit(masks, n) == _full_scan_orbit(c, False)
        key, perm, order = chambers._sorted_key(c, merged_last=True)
        assert perm[-1] == n - 1 and key == _image(masks, perm)
        assert [perm[j] for j in order] == list(range(n))
        keys.setdefault(_full_scan_orbit(c, True)[0], set()).add(key)
    assert all(len(k) == 1 for k in keys.values())
    assert len(set().union(*keys.values())) == len(keys)


def test_mask_sets_match_their_definition():
    """The masks containing each label, built by doubling a period, are those
    of the comprehension over every mask, as are the pairs read from them."""
    for n in range(1, 11):
        every, small, has, pairs = chambers._mask_sets(n)
        assert has == tuple(sum(1 << m for m in range(1 << n) if m >> j & 1) for j in range(n))
        assert every == (1 << (1 << n)) - 1 and small == sum(1 << m for m in range(1 << n) if m & (m - 1) == 0)
        assert [p[:2] for p in pairs] == list(itertools.combinations(range(n), 2))


@pytest.mark.parametrize("g,n", [(0, 4), (1, 4), (0, 5)], ids=["D04", "D14", "D05"])
def test_heavy_min_and_solve_rows_follow_subsets_order(monkeypatch, g, n):
    """``heavy_min`` and the heavy rows of ``_solve``, both built from the
    minimal heavy masks, list the minimal heavy sets by definition in
    ``space.subsets()`` order, for every chamber and every candidate below
    one."""
    space = StabilitySpace(g, n)
    chambers_and_candidates = enumerate_chambers(space) + list(_candidates(space))
    seen = []

    def record(c, A, b):
        seen.append((A, b))
        return 0, [0] * len(c)  # s = -3: not realizable

    monkeypatch.setattr(chambers, "simplex_max", record)
    for c in chambers_and_candidates:
        seen.clear()
        chambers._solve(c)
        ((A, b),) = seen
        want = [
            J for J in space.subsets()
            if c.value(J) == 1 and all(c.value(J - {j}) == 0 for j in J)
        ]
        assert c.heavy_min() == want
        heavy = [row[:n] for row, rhs in zip(A, b) if rhs == 2]  # sum_J a >= 1 + s
        assert heavy == [[-1 if j in J else 0 for j in space.labels] for J in want]


# -- fast paths against the code they replaced --------------------------------------


def _former_relabelings(n):
    """Reference: the former ``_relabelings`` tables, (subsets, masks, perms,
    tables), each image mask built bit by bit from the permutation."""
    subsets = sorted(c for r in range(2, n + 1) for c in itertools.combinations(range(1, n + 1), r))
    masks = tuple(sum(1 << (j - 1) for j in J) for J in subsets)
    rank = [0] * (1 << n)
    for r, m in enumerate(masks):
        rank[m] = r
    perms = tuple(itertools.permutations(range(n)))
    tables = tuple(
        tuple(rank[sum(1 << p[j] for j in range(n) if m >> j & 1)] for m in range(1 << n))
        for p in perms
    )
    return tuple(subsets), masks, perms, tables


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_relabel_tables_match_former_formula(n):
    """The rank tables gathered through the mask images equal those of the
    former bit-by-bit formula, entry for entry, as do the ranked subsets,
    their masks and the permutations."""
    sym = chambers._relabelings(n)
    assert (tuple(map(chambers._labels, sym.masks)), sym.masks, sym.perms, sym.tables) == _former_relabelings(n)


def _former_lp(c):
    """Reference: the former ``_solve`` rows, (objective, rows, rhs), built
    entry by entry."""
    n = c.space.n
    g = min(c.space.g, 1)
    rows, rhs = [], []

    def row(avec, sigma, b):
        rows.append(avec + [sigma])
        rhs.append(b)

    for j in range(n):
        e = [0] * n
        e[j] = 1
        row(e, 0, 1)
        e = [0] * n
        e[j] = -1
        row(e, 1, 3)
    for J in c.light_max:
        row([1 if j + 1 in J else 0 for j in range(n)], 1, 4)
    for m in c._heavy_masks():
        row([-(m >> j & 1) for j in range(n)], 1, 2)
    row([-1] * n, 1, 1 + 2 * g)
    return [0] * n + [1], rows, rhs


@pytest.mark.parametrize("g,n", [(0, 5), (1, 5)], ids=["D05", "D15"])
def test_solve_rows_match_former_row_builder(monkeypatch, g, n):
    """On every chamber of the space and every candidate below a
    representative, ``simplex_max`` receives from ``_solve`` the objective,
    rows and right-hand sides of the former row builder, as lists of ints.
    Each row is a fresh list: clearing the received rows leaves the next
    LP unchanged."""
    space = StabilitySpace(g, n)
    every = enumerate_chambers(space) + list(_candidates(space))
    seen = []

    def record(c, A, b):
        seen.append((c, [row[:] for row in A], b))
        for row in A:
            row.clear()  # a row shared with a cache would lose its entries
        return 0, [0] * len(c)  # s = -3: not realizable

    monkeypatch.setattr(chambers, "simplex_max", record)
    for c in every:
        seen.clear()
        chambers._solve(c)
        assert seen == [_former_lp(c)]


def _former_expand(space, reps):
    """Reference: the former ``_expand``: the images through ``relabeled``,
    each witness moved by ``_moved`` and each chamber validated by
    ``Chamber``."""
    sym = chambers._relabelings(space.n)
    witnesses = {}
    for rep in reps:
        ks = chambers._coset_relabelings(space.n, chambers._desirability(rep._closure(), space.n))
        point, slack = realize(rep)
        for k, image in zip(ks, sym.relabeled(rep._masks, ks)):
            witnesses[image] = (_moved(point, sym.perms[k]), slack)
    keys = sorted(witnesses, key=lambda k: (len(k), k))
    every = tuple(_key_chamber(space, map(sym.masks.__getitem__, key)) for key in keys)
    return every, tuple(map(witnesses.__getitem__, keys))


@pytest.mark.parametrize("g,n", [(1, 4), (0, 5), (1, 5)], ids=["D14", "D05", "D15"])
def test_expand_matches_former_expand(g, n):
    """The full list built by gathers equals the former one: the same
    chambers, with the same masks, in the same order, and the same
    witnesses."""
    space = StabilitySpace(g, n)
    reps = enumerate_chambers(space, up_to_symmetry=True)
    got = chambers._expand(space, reps)
    want = _former_expand(space, reps)
    assert got == want
    assert [c._masks for c in got[0]] == [c._masks for c in want[0]]
    assert all(c.space is space for c in got[0])


def test_enumeration_lp_counts(monkeypatch, empty_memos):
    """From empty memos, the searches of D_{1,3}, D_{1,4}, D_{0,5} and D_{1,5}
    solve 4, 16, 41 and 91 LPs, one per realizability orbit key; each full
    list then solves one more, the witness of the main chamber: 156 in all."""
    solved = _counting(monkeypatch, chambers, "simplex_max")
    counts = {}
    for g, n in [(1, 3), (1, 4), (0, 5), (1, 5)]:
        before = len(solved)
        enumerate_chambers(StabilitySpace(g, n), up_to_symmetry=True)
        searched = len(solved) - before
        enumerate_chambers(StabilitySpace(g, n))
        counts[(g, n)] = (searched, len(solved) - before - searched)
    assert counts == {(1, 3): (4, 1), (1, 4): (16, 1), (0, 5): (41, 1), (1, 5): (91, 1)}
    assert len(solved) == 156
