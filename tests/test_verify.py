"""The check table of ``wpvol.verify``: pinned IDs and wall iteration."""

import json
from pathlib import Path

import pytest

from wpvol import verify
from wpvol.chambers import StabilitySpace, enumerate_chambers
from wpvol.errors import RingMismatchError, WpvolError
from wpvol.verify import CRITERIA, Reporter, check_05_s3


def test_verify_ids_partition_the_suite():
    """The pinned ID lists of criteria 1-8 are disjoint: 52 paper and 12
    invariants IDs, 64 in all."""
    with open(Path(__file__).parent / "verify_ids.json") as fh:
        pinned = json.load(fh)
    assert list(pinned) == [str(c.number) for c in CRITERIA] == [str(k) for k in range(1, 9)]
    by_suite = {}
    for c in CRITERIA:
        by_suite.setdefault(c.suite, []).extend(pinned[str(c.number)])
    assert {suite: len(ids) for suite, ids in by_suite.items()} == {"paper": 52, "invariants": 12}
    every = [i for ids in pinned.values() for i in ids]
    assert len(set(every)) == len(every) == 64


def _walls_cross_accepts(c):
    """Reference: every subset S for which ``c.cross(S)`` succeeds."""
    for S in c.space.subsets():
        try:
            c.cross(S)
        except WpvolError:
            continue
        yield S


@pytest.mark.parametrize("space", [(0, 4), (1, 2), (1, 3), (0, 5)], ids="D{0[0]}{0[1]}".format)
def test_incident_walls_are_the_walls_cross_accepts(space):
    for c in enumerate_chambers(StabilitySpace(*space)):
        assert list(verify._incident_walls(c)) == list(_walls_cross_accepts(c)), c


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


def test_unexpected_error_in_a_swapped_replay_is_not_skipped(monkeypatch):
    """I02 drops a reordering only when a crossing is not incident or not
    realizable; any other error in the replay propagates and fails the check,
    where it would have left I02 passing on 0 chambers."""
    from wpvol.chambers import Chamber
    from wpvol.verify import check_path_independence

    def broken(c, S):
        raise RingMismatchError("injected")

    monkeypatch.setattr(Chamber, "cross", broken)
    with pytest.raises(RingMismatchError):
        check_path_independence(Reporter(), [StabilitySpace(0, 4)])
