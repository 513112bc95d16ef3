"""Intersection-number backend: anchors, equations, cache behavior."""

import hashlib
import itertools
from fractions import Fraction as F
from math import factorial

import pytest

from wpvol import intersection
from wpvol.errors import DimensionMismatchError, UnstableError
from wpvol.intersection import default_cache, kappa_psi_intersection, psi_intersection
from wpvol.reference import INTERSECTION_ANCHORS
from wpvol.volumes import _compositions

# The memo after every <kappa_1^m tau_alpha>_g that mirzakhani_volume(g, n)
# reads for g <= 3 and n <= 6, computed from an empty table: its entry count
# and the SHA-256 of one line "g m d_1 ... d_n p/q" per entry, in key order.
# Recorded with the previous memo implementation.
MEMO_ENTRIES = 3177
MEMO_DIGEST = "c1bedd34cbeecb393d7ad15053147d94ae5246f061798963a0e002affa29cc5d"


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
    for (g, m, d), value in list(cache.items()):
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
        kappa_psi_intersection(0, 1, (0, 0))
    with pytest.raises(UnstableError):
        psi_intersection(2, ())


@pytest.mark.parametrize(
    "call",
    [
        lambda: psi_intersection(0, (0.9, 0, 0)),
        lambda: psi_intersection(1, (1.5,)),
        lambda: psi_intersection(1.0, (1,)),
        lambda: kappa_psi_intersection(1, 1, (0.2,)),
        lambda: psi_intersection(1, (F(1),)),
        lambda: kappa_psi_intersection(1, F(1), (0,)),
        lambda: psi_intersection(0, ("0", 0, 0)),
        lambda: kappa_psi_intersection(0, "1", (0, 0, 0, 0)),
        lambda: psi_intersection(1, (True,)),
        lambda: psi_intersection(True, (1,)),
        lambda: kappa_psi_intersection(True, 0, (1,)),
        lambda: kappa_psi_intersection(1, True, (0,)),
    ],
)
def test_non_integer_indices_rejected(call):
    """A float, Fraction, str or bool index is refused, never truncated by
    int() or read as 0 or 1."""
    with pytest.raises(ValueError):
        call()


def test_cache_cold_vs_warm_coherence():
    """Each value read from the warm table equals its recomputation from an
    empty table; the warm table is restored afterwards."""
    table = default_cache()
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
    key, value = (0, 0, (0, 0, 0)), psi_intersection(0, (0, 0, 0))
    assert intersection._put(key, F(1)) == value
    with pytest.raises(ValueError):
        intersection._put(key, F(2))
    assert default_cache()[key] == value


def test_memo_digest_from_empty_table():
    """The memo behind every main chamber with g <= 3 and n <= 6, rebuilt
    from an empty table, matches the recorded count and digest; the warm
    table is restored afterwards."""
    table = default_cache()
    warm = dict(table)
    try:
        table.clear()
        for g in range(4):
            for n in range(1, 7):
                if 2 * g - 2 + n <= 0:
                    continue
                dim = 3 * g - 3 + n
                for m in range(dim + 1):
                    for alpha in _compositions(dim - m, n):
                        kappa_psi_intersection(g, m, alpha)
        h = hashlib.sha256()
        for (g, m, d), v in sorted(table.items()):
            h.update(f"{g} {m} {' '.join(map(str, d))} {v.numerator}/{v.denominator}\n".encode())
        assert (len(table), h.hexdigest()) == (MEMO_ENTRIES, MEMO_DIGEST)
    finally:
        table.clear()
        table.update(warm)
