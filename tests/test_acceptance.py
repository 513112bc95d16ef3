"""Acceptance criteria, one test per criterion, each with its runtime budget.

Criteria 1-8 are the rows of ``wpvol.verify.CRITERIA``, the table the CLI
``verify`` suites also run; ``tests/verify_ids.json`` pins the check IDs each
of them produces, and ``tests/verify_digests.json`` the SHA-256 of its result
records (``results_digest``), so a change to any description, verdict or
printed polynomial fails here.  Every comparison is an exact polynomial identity (rational
coefficients, pi formal); the only numeric assertions are the positivity spot
checks, which use 50-digit decimal evaluation in the quarantined output layer.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from wpvol.chambers import StabilitySpace, light_chamber, main_chamber
from wpvol.poly import angle_ring
from wpvol.verify import CRITERIA, Reporter
from wpvol.volumes import (
    chamber_volume,
    dilaton_check,
    mirzakhani_volume,
    wall_crossing_poly,
)

VERIFY_IDS = json.loads((Path(__file__).parent / "verify_ids.json").read_text())
VERIFY_DIGESTS = json.loads((Path(__file__).parent / "verify_digests.json").read_text())


def results_digest(results) -> str:
    """The SHA-256 of the JSON list of sorted [id, description, passed,
    expected, computed] records."""
    records = sorted((r.id, r.description, r.passed, r.expected, r.computed) for r in results)
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[criterion {criterion}] FAIL after {time.monotonic() - start:.1f}s")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {criterion}] PASS ({elapsed:.1f}s, budget {seconds:.0f}s)")
    assert elapsed < seconds, f"criterion {criterion} exceeded its runtime budget"


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: str(c.number))
def test_criterion(criterion):
    """Every check of the criterion passes, within its budget, and produces
    exactly the criterion's pinned check IDs and result records."""
    with budget(str(criterion.number), criterion.budget):
        rep = Reporter()
        criterion.run(rep)
        failures = [r for r in rep.results if not r.passed]
        assert not failures, "\n".join(
            f"{r.id}: expected {r.expected}, computed {r.computed}" for r in failures
        )
        assert sorted(r.id for r in rep.results) == VERIFY_IDS[str(criterion.number)]
        assert results_digest(rep.results) == VERIFY_DIGESTS[str(criterion.number)]


def test_criterion_9_d22_stress():
    """One non-main chamber of D_{2,2} computes within 10 min and satisfies
    the continuity and dilaton checks."""
    from wpvol.volumes import clear_volume_cache

    clear_volume_cache()
    with budget("9", 600):
        s22 = StabilitySpace(2, 2)
        cl = light_chamber(s22)
        vr = chamber_volume(cl)
        d = 3 * 2 - 3 + 2
        assert vr.poly.is_homogeneous(2 * d)
        # continuity and differentiability across the single wall
        r2 = angle_ring(2)
        wcp = wall_crossing_poly(main_chamber(s22), {1, 2})
        wallrel = r2.two_pi() - r2.var(1)
        assert wcp.poly.subs(2, wallrel).is_zero()
        assert all(wcp.poly.diff(j).subs(2, wallrel).is_zero() for j in (1, 2))
        # dilaton identity in both chambers
        for c in (cl, main_chamber(s22)):
            lhs, rhs = dilaton_check(c, 2)
            assert lhs == rhs
        # Theorem-1 shape: V_CL - V_M is the integral of t V_{2,1}(it)
        ext = angle_ring(2, extra="t")
        v21 = mirzakhani_volume(2, 1).poly.compose(ext, [ext.pi(), ext.var(3)])
        phi = ext.var(1) + ext.var(2) - ext.two_pi()
        back = [r2.pi(), r2.var(1), r2.var(2), r2.zero()]
        wc_expected = (v21 * ext.var(3)).integrate_upper(3, phi).compose(r2, back)
        assert vr.poly == mirzakhani_volume(2, 2).poly + wc_expected
