"""Intersection-number backend: anchors, equations, cache behavior."""

import itertools
from fractions import Fraction as F
from math import factorial

import pytest

from wpvol.errors import DimensionMismatchError, UnstableError
from wpvol.intersection import (
    IntersectionCache,
    KappaTauIndex,
    TauIndex,
    default_cache,
    kappa_psi_intersection,
    psi_intersection,
)
from wpvol.reference import INTERSECTION_ANCHORS


def test_anchors():
    for g, m, d, want in INTERSECTION_ANCHORS:
        got = psi_intersection(g, d) if m == 0 else kappa_psi_intersection(g, m, d)
        assert got == want, (g, m, d)


def test_normalization():
    assert psi_intersection(0, (0, 0, 0)) == 1
    assert psi_intersection(1, (1,)) == F(1, 24)


def test_genus0_closed_form_derived_example():
    # (5-3)!/(1! 1!) = 2
    assert psi_intersection(0, (0, 0, 1, 1, 0)) == 2


def test_genus1_string_dilaton_chain():
    assert psi_intersection(1, (0, 1, 2)) == F(1, 12)
    assert psi_intersection(1, (0, 0, 2, 2)) == F(1, 6)


def test_genus2_and_3_fixed_values():
    # independently published values for the Witten correlators
    assert psi_intersection(2, (5, 0)) == F(1, 1152)
    assert psi_intersection(2, (4, 1)) == F(1, 384)
    assert psi_intersection(3, (7,)) == F(1, 82944)
    assert psi_intersection(3, (7, 1)) == F(5, 82944)
    assert psi_intersection(3, (6, 2)) == F(77, 414720)
    assert psi_intersection(3, (5, 3)) == F(503, 1451520)
    assert psi_intersection(3, (4, 4)) == F(607, 1451520)


def test_kappa_examples():
    assert kappa_psi_intersection(1, 1, (0,)) == F(1, 24)
    assert kappa_psi_intersection(0, 1, (0, 0, 0, 0)) == 1
    assert kappa_psi_intersection(1, 2, (0, 0)) == F(1, 8)
    # reduction to the genus-0 oracle: <t2 t2 t0^5> - <t3 t0^5> = 6 - 1
    assert kappa_psi_intersection(0, 2, (0, 0, 0, 0, 0)) == 5


def test_kappa_zero_power_delegates_to_psi():
    for g, d in [(0, (1, 0, 0, 0)), (1, (2, 0)), (2, (4,))]:
        assert kappa_psi_intersection(g, 0, d) == psi_intersection(g, d)


def _matched_indices(n, g):
    total = 3 * g - 3 + n
    if total < 0:
        return

    def gen(remaining, slots, minimum):
        if slots == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for first in range(minimum, remaining + 1):
            for rest in gen(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from gen(total, n, 0)


def test_genus0_oracle_all_n_up_to_8():
    for n in range(3, 9):
        for d in _matched_indices(n, 0):
            want = F(factorial(n - 3))
            for x in d:
                want /= factorial(x)
            assert psi_intersection(0, d) == want, d


def test_symmetry_under_reordering():
    value = psi_intersection(1, (0, 1, 2))
    for perm in itertools.permutations((0, 1, 2)):
        assert psi_intersection(1, perm) == value
    assert kappa_psi_intersection(1, 1, (2, 0, 0)) == kappa_psi_intersection(1, 1, (0, 2, 0))


def test_string_dilaton_consistency_on_cache():
    """Every cached pure-psi value with a 0 (resp. 1) slot satisfies the
    string (resp. dilaton) equation exactly."""
    psi_intersection(2, (2, 2, 2))  # populate some entries
    psi_intersection(3, (4, 4))
    cache = default_cache()
    checked = 0
    for (g, m, d), value in list(cache.table.items()):
        if m != 0:
            continue
        n = len(d)
        if 0 in d and n >= 2 and 2 * g - 2 + (n - 1) > 0:
            rest = list(d)
            rest.remove(0)
            total = F(0)
            for j, dj in enumerate(rest):
                if dj >= 1:
                    total += psi_intersection(g, rest[:j] + [dj - 1] + rest[j + 1 :])
            assert total == value, (g, d)
            checked += 1
        if 1 in d and n >= 2 and 2 * g - 2 + (n - 1) > 0:
            rest = list(d)
            rest.remove(1)
            assert (2 * g - 2 + n - 1) * psi_intersection(g, rest) == value, (g, d)
            checked += 1
    assert checked > 20


def test_dimension_mismatch_is_hard_error():
    with pytest.raises(DimensionMismatchError):
        psi_intersection(0, (0, 0, 1))
    with pytest.raises(DimensionMismatchError):
        kappa_psi_intersection(1, 1, (1,))


def test_unstable_inputs_rejected():
    with pytest.raises(UnstableError):
        psi_intersection(0, (0, 0))
    with pytest.raises(UnstableError):
        TauIndex(0, (0, 0))


def test_index_canonicalization():
    assert TauIndex(1, (2, 0, 1)).d == (0, 1, 2)
    assert KappaTauIndex(1, 2, (3, 1)).d == (1, 3)
    assert TauIndex(1, (2, 0, 1)).dimension_matched()


def test_cache_cold_vs_warm_coherence():
    """Each value read from the warm table equals its recomputation from an
    empty table; the warm table is restored afterwards."""
    table = default_cache().table
    values = {}
    for g, d in [(2, (2, 3)), (1, (0, 1, 2)), (0, (1, 1, 0, 0, 0))]:
        values[(g, d)] = psi_intersection(g, d)
    warm = dict(table)
    try:
        for (g, d), v in values.items():
            table.clear()
            assert psi_intersection(g, d) == v
    finally:
        table.clear()
        table.update(warm)


def test_cache_insert_idempotent_and_guarded():
    cache = IntersectionCache()
    cache.put((0, 0, (0, 0, 0)), F(1))
    cache.put((0, 0, (0, 0, 0)), F(1))
    with pytest.raises(ValueError):
        cache.put((0, 0, (0, 0, 0)), F(2))
