"""Chamber combinatorics, realizability LP, paths and enumeration."""

import itertools
import random
from fractions import Fraction as F

import pytest

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

S04 = StabilitySpace(0, 4)
S05 = StabilitySpace(0, 5)
S12 = StabilitySpace(1, 2)


def chambers_04():
    b0 = main_chamber(S04)
    b1 = b0.cross({3, 4})
    b2 = b1.cross({2, 4})
    return b0, b1, b2, b2.cross({1, 4}), b2.cross({2, 3})


def test_wall_validation():
    from wpvol.chambers import Wall

    w = Wall(S04, {3, 4})
    assert w.J == frozenset({3, 4})
    with pytest.raises(ValueError):
        Wall(S04, {4})
    with pytest.raises(ValueError):
        Wall(S04, {4, 5})


def test_space_validation():
    with pytest.raises(UnstableError):
        StabilitySpace(0, 2)
    with pytest.raises(UnstableError):
        StabilitySpace(-1, 5)
    StabilitySpace(1, 1)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(S04, (F(0), F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        WeightVector(S04, (F(2), F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        WeightVector(S04, (F(1, 2),) * 4)  # total 2, needs > 2 at g=0


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


@pytest.mark.parametrize(
    "g,n",
    [(0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (0, 5), (1, 5)],
    ids=["D04", "D12", "D13", "D14", "D23", "D05", "D15"],
)
def test_orbit_search_matches_full_search(monkeypatch, g, n):
    """The orbit search returns the list the full search finds, each from
    its own empty realizability memo, and the representatives are the first
    chamber of each orbit."""
    space = StabilitySpace(g, n)
    monkeypatch.setattr(chambers, "_realize_cache", {})
    monkeypatch.setattr(chambers, "_realize_orbits", {})
    want = _reference_enumeration(space)
    monkeypatch.setattr(chambers, "_realize_cache", {})
    monkeypatch.setattr(chambers, "_realize_orbits", {})
    monkeypatch.setattr(chambers, "_enum_cache", {})
    assert enumerate_chambers(space) == want
    assert enumerate_chambers(space, up_to_symmetry=True) == _reference_up_to_symmetry(space)


@pytest.mark.parametrize("g,n", [(0, 4), (1, 4), (0, 5)], ids=["D04", "D14", "D05"])
def test_enumeration_witnesses_without_lp(monkeypatch, g, n):
    """After enumeration every chamber's witness is known without an LP; it
    lies in the chamber and has the margin a fresh LP gives."""
    space = StabilitySpace(g, n)
    monkeypatch.setattr(chambers, "_realize_cache", {})
    monkeypatch.setattr(chambers, "_realize_orbits", {})
    monkeypatch.setattr(chambers, "_enum_cache", {})
    found = enumerate_chambers(space)

    def no_lp(*args, **kwargs):
        raise AssertionError("simplex_max called for an enumerated chamber")

    monkeypatch.setattr(chambers, "simplex_max", no_lp)
    known = {c: realize(c) for c in found}
    for c, (point, slack) in known.items():
        assert classify(WeightVector(space, point)) == c
    monkeypatch.undo()
    for c, (point, slack) in known.items():
        assert chambers._solve(c)[1] == slack


def _reference_up_to_symmetry(space):
    """One chamber per S_n orbit, keyed by its smallest relabeled antichain
    over all n! permutations; the first chamber of each orbit, orbits in key
    order."""
    reps = {}
    for c in enumerate_chambers(space):
        key = min(
            tuple(sorted(tuple(sorted(p[j - 1] for j in s)) for s in c.light_max))
            for p in itertools.permutations(space.labels)
        )
        reps.setdefault(key, c)
    return [reps[k] for k in sorted(reps)]


@pytest.mark.parametrize(
    "space,total",
    [(S04, 27), (StabilitySpace(1, 4), 96), (S05, 1087), (StabilitySpace(1, 5), 2690)],
    ids=["D04", "D14", "D05", "D15"],
)
def test_up_to_symmetry_matches_permutation_key(space, total):
    reps = enumerate_chambers(space, up_to_symmetry=True)
    assert reps == _reference_up_to_symmetry(space)
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

    for n in (6, 7):
        with pytest.raises(BoundExceededError):
            enumerate_chambers(StabilitySpace(0, n))


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


def seeded_weight_vectors(seed, count):
    """Weights p/q with mixed denominators; about a third are put on a wall
    by making the weights of a random subset J sum to exactly 1."""
    rng = random.Random(seed)
    spaces = [S04, S05, S12, StabilitySpace(1, 3), StabilitySpace(2, 3), StabilitySpace(1, 5)]
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
    on_wall = 0
    for w in seeded_weight_vectors(20260, 600):
        want = classify_by_fraction_sums(w)
        if isinstance(want, Chamber):
            assert classify(w) == want
        else:
            on_wall += 1
            with pytest.raises(OnWallError) as err:
                classify(w)
            assert err.value.wall == want
    assert on_wall > 50  # the on-wall branch is exercised


def test_last_crossing_after_enumeration_solves_no_lp(monkeypatch):
    """After enumeration every realizable chamber is known, so last_crossing
    solves no LP and returns the first realizable candidate in light_max
    order, as it did before known candidates were tried first."""
    for space in (S05, StabilitySpace(1, 4)):
        known = set(enumerate_chambers(space))
        top = main_chamber(space)
        expected = {
            c: next((c.uncross(S), frozenset(S)) for S in c.light_max if _uncrossable(c, S))
            for c in known
            if c.light_max
        }

        def no_lp(*args, **kwargs):
            raise AssertionError("simplex_max called for a known chamber")

        monkeypatch.setattr(chambers, "simplex_max", no_lp)
        for c, want in expected.items():
            above, S = chambers.last_crossing(top, c)
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


def test_last_crossing_tries_known_realizable_first(monkeypatch):
    """With only the last realizable candidate known, last_crossing returns it
    without solving an LP for the unknown candidates before it."""
    top = main_chamber(S05)
    checked = 0
    for c, above, S in _late_uncrossings(S05):
        monkeypatch.setattr(chambers, "_realize_cache", {above: chambers.realize(above)})
        monkeypatch.setattr(chambers, "_realize_orbits", {})
        monkeypatch.setattr(chambers, "simplex_max", _no_lp)
        assert chambers.last_crossing(top, c) == (above, S)
        monkeypatch.undo()
        checked += 1
    assert checked > 100


def test_last_crossing_takes_known_chambers_as_realizable(monkeypatch):
    """A chamber in ``known`` (the volume engine passes its volume memo) is
    taken as realizable and tried first, with no LP for it or before it."""
    top = main_chamber(S05)
    checked = 0
    for c, above, S in _late_uncrossings(S05):
        monkeypatch.setattr(chambers, "_realize_cache", {})
        monkeypatch.setattr(chambers, "_realize_orbits", {})
        monkeypatch.setattr(chambers, "simplex_max", _no_lp)
        assert chambers.last_crossing(top, c, {above}) == (above, S)
        monkeypatch.undo()
        checked += 1
    assert checked > 100


def _uncrossable(c, S):
    try:
        c.uncross(S)
    except NotRealizableError:
        return False
    return True
