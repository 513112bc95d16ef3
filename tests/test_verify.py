"""The check table of ``wpvol.verify``: pinned IDs and wall iteration."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from wpvol import verify, volumes
from wpvol.chambers import StabilitySpace, enumerate_chambers, main_chamber
from wpvol.errors import RingMismatchError, WpvolError
from wpvol.poly import angle_ring, phi_form
from wpvol.verify import CRITERIA, Reporter, check_05_s3


def test_verify_ids_partition_the_suite():
    """The pinned ID lists of criteria 1-8 are disjoint: 52 paper and 20
    invariants IDs, 72 in all."""
    with open(Path(__file__).parent / "verify_ids.json") as fh:
        pinned = json.load(fh)
    assert list(pinned) == [str(c.number) for c in CRITERIA] == [str(k) for k in range(1, 9)]
    by_suite = {}
    for c in CRITERIA:
        by_suite.setdefault(c.suite, []).extend(pinned[str(c.number)])
    assert {suite: len(ids) for suite, ids in by_suite.items()} == {"paper": 52, "invariants": 20}
    every = [i for ids in pinned.values() for i in ids]
    assert len(set(every)) == len(every) == 72


def _walls_cross_accepts(c):
    """Reference: (S, c.cross(S)) for every subset S that ``c.cross`` accepts."""
    for S in c.space.subsets():
        try:
            below = c.cross(S)
        except WpvolError:
            continue
        yield S, below


@pytest.mark.parametrize("space", [(0, 4), (1, 2), (1, 3), (0, 5)], ids="D{0[0]}{0[1]}".format)
def test_incident_walls_are_the_walls_cross_accepts(space):
    for c in enumerate_chambers(StabilitySpace(*space)):
        assert list(verify._incident_walls(c)) == list(_walls_cross_accepts(c)), c


def _compose_lift(poly, S):
    """Reference: the lift of ``verify._phi_lift`` by ``Poly.compose``, with
    theta_k's image u + 2 pi(|S|-1) - sum_{j in S-k} theta_j, k = min(S), and
    every other variable sent to itself."""
    n = poly.ring.nvars - 1
    ext = angle_ring(n, extra="u")
    k = min(S)
    rel = ext.var(n + 1) + ext.two_pi() - phi_form(ext, S - {k})
    return poly.compose(ext, [ext.pi()] + [rel if j == k else ext.var(j) for j in range(1, n + 1)])


def _per_partial_continuity(wc, S):
    """Reference: the former I01 test of one wall, k = min(S): wc and each
    first partial d wc / d theta_j vanish after theta_k = 2 pi(|S|-1) -
    sum_{j in S-k} theta_j is substituted."""
    ring = wc.ring
    k = min(S)
    rel = ring.two_pi() - phi_form(ring, S - {k})
    partials = [wc.diff(j) for j in range(1, ring.nvars)]
    return all(p.subs(k, rel).is_zero() for p in [wc, *partials])


def _lift_continuity(lifted):
    """I01's verdict on a lifted crossing: no term of u-degree 0 or 1."""
    u = lifted.ring.nvars - 1
    return all(e[u] >= 2 for e in lifted.terms)


@pytest.mark.parametrize(
    "space, walls, distinct", [((0, 5), 3590, 90), ((1, 4), 235, 17)], ids=["D05", "D14"]
)
def test_phi_lift_equals_the_compose_lift(space, walls, distinct):
    """I04's lift (relabel into the ring with u, then one ``subs``) leaves
    no term with a theta_k exponent, k = min(S), so I04 need not test one;
    it equals the ``compose`` lift it replaced, on every wall, and I01's
    verdict on it equals that of the per-partial form it replaced.  Each
    distinct (wc, S) the walls read is checked once."""
    seen = 0
    inputs = set()
    for c in enumerate_chambers(StabilitySpace(*space)):
        for S, _ in verify._incident_walls(c):
            inputs.add((volumes.wall_crossing_poly(c, S).poly, S))
            seen += 1
    assert (seen, len(inputs)) == (walls, distinct)
    for wc, S in inputs:
        lifted = verify._phi_lift(wc, S)
        k = min(S)
        assert not any(e[k] for e in lifted.terms), (wc, S)
        assert lifted == _compose_lift(wc, S), (wc, S)
        assert _lift_continuity(lifted) == _per_partial_continuity(wc, S), (wc, S)


@pytest.mark.parametrize("power, passes", [(1, False), (2, True)], ids=["phi", "phi^2"])
def test_continuity_boundary_at_u_degree_two(monkeypatch, power, passes):
    """One crossing of D_(1,4) plus phi_S^power * theta_j, j not in S: with
    power 1 the lifted term has u-degree 1, and I01 (lift and per-partial
    form) and I04 fail; with power 2 it has u-degree 2, and all pass."""
    space = StabilitySpace(1, 4)
    c = main_chamber(space)
    S = frozenset({3, 4})
    true_wc = verify.wall_crossing_poly
    wc = true_wc(c, S)
    ring = wc.poly.ring
    bumped = replace(wc, poly=wc.poly + phi_form(ring, S) ** power * ring.var(1))

    def patched(chamber, wall):
        return bumped if (chamber, frozenset(wall)) == (c, S) else true_wc(chamber, wall)

    monkeypatch.setattr(verify, "wall_crossing_poly", patched)
    assert _per_partial_continuity(bumped.poly, S) is passes
    assert _lift_continuity(verify._phi_lift(bumped.poly, S)) is passes
    rep = Reporter()
    verify.check_continuity(rep, [space])
    verify.check_evenness(rep, [space])
    assert [(r.id, r.passed) for r in rep.results] == [("I01.1.4", passes), ("I04", passes)]
    if not passes:
        assert rep.results[0].computed == "FAIL 1 walls nonvanishing"


def test_lift_once_per_distinct_crossing(monkeypatch):
    """I01 and I04 on D_(1,4) lift once per distinct (wc, S) they read, 17
    for 235 walls, and report what lifting every wall reports."""
    space = StabilitySpace(1, 4)
    walls = [
        (volumes.wall_crossing_poly(c, S).poly, S)
        for c in enumerate_chambers(space)
        for S, _ in verify._incident_walls(c)
    ]
    assert (len(walls), len(set(walls))) == (235, 17)
    lifted = [verify._phi_lift(wc, S) for wc, S in walls]
    nonvanishing = sum(not _lift_continuity(f) for f in lifted)
    odd = sum(any(e[-1] % 2 or e[-1] < 2 for e in f.terms) for f in lifted)
    assert (nonvanishing, odd) == (0, 0)

    calls = []
    lift = verify._phi_lift
    monkeypatch.setattr(verify, "_phi_lift", lambda wc, S: calls.append((wc, S)) or lift(wc, S))
    rep = Reporter()
    verify.check_continuity(rep, [space])
    assert (len(calls), len(set(calls))) == (17, 17)
    calls.clear()
    verify.check_evenness(rep, [space])
    assert (len(calls), len(set(calls))) == (17, 17)
    assert [(r.id, r.description, r.passed, r.computed) for r in rep.results] == [
        ("I01.1.4", "wc and all partials vanish on their wall (235 walls of D_(1,4))", True, "pass"),
        ("I04", "wall-crossings are even polynomials in phi of degree >= 2 (235 walls)", True, "pass"),
    ]


def test_unexpected_error_in_a_crossing_is_not_skipped(monkeypatch):
    """Only a chamber that is not incident to the wall is skipped; any other
    error propagates and fails the check."""

    def broken(c, S):
        raise RingMismatchError("injected")

    monkeypatch.setattr(verify, "wall_crossing_poly", broken)
    with pytest.raises(RingMismatchError):
        check_05_s3(Reporter())


def test_unexpected_error_in_general_dilaton_is_not_skipped(monkeypatch):
    """P14 skips only a coordinate without a flat hull or with an
    unrealizable one; any other error propagates and fails the check."""
    from wpvol import volumes
    from wpvol.verify import check_general_dilaton

    def broken(c, i):
        raise RingMismatchError("injected")

    monkeypatch.setattr(volumes, "dilaton_rhs", broken)
    with pytest.raises(RingMismatchError):
        check_general_dilaton(Reporter(), StabilitySpace(0, 5))


def test_unexpected_error_in_an_edge_crossing_is_not_skipped(monkeypatch):
    """I02 skips only a wall whose chamber below is not realizable; any other
    error raised while crossing an edge propagates and fails the check."""
    from wpvol.chambers import Chamber
    from wpvol.verify import check_path_independence

    def broken(c, S):
        raise RingMismatchError("injected")

    monkeypatch.setattr(Chamber, "cross", broken)
    with pytest.raises(RingMismatchError):
        check_path_independence(Reporter(), [StabilitySpace(0, 4)])


def _path_independence_04():
    rep = Reporter()
    verify.check_path_independence(rep, [StabilitySpace(0, 4)])
    (result,) = rep.results
    assert result.id == "I02.0.4"
    return result


def test_perturbed_memoized_volume_fails_path_independence(fresh_volume_caches, monkeypatch):
    """One memoized chamber volume off by 1 breaks the edges at that chamber."""
    space = StabilitySpace(0, 4)
    for c in enumerate_chambers(space):
        volumes.chamber_volume(c)
    assert _path_independence_04().passed
    c = main_chamber(space).cross({3, 4})
    vr = volumes._volume_cache[c]
    monkeypatch.setitem(
        volumes._volume_cache, c, replace(vr, poly=vr.poly + vr.poly.ring.one())
    )
    assert not _path_independence_04().passed


def test_perturbed_crossing_orbit_fails_path_independence(fresh_volume_caches, monkeypatch):
    """Volumes built from a wrong key-orbit crossing fail I02, which integrates
    every crossing afresh; read from the memo, the wrong crossing would agree
    with itself on every edge."""
    space = StabilitySpace(0, 4)
    for c in enumerate_chambers(space):
        volumes.chamber_volume(c)
    key = next(k for k in volumes._crossing_orbits if k[:2] == (StabilitySpace(0, 3), 2))
    wc = volumes._crossing_orbits[key]
    monkeypatch.setitem(volumes._crossing_orbits, key, wc + wc.ring.one())
    volumes._volume_cache.clear()
    volumes._crossing_cache.clear()
    assert not _path_independence_04().passed
