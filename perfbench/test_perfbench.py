"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (first: it puts the checkout's src on sys.path)
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import wpvol  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3].
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 21.0]
    assert tracing.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracing.child_counts(parent) == [2, 1, 0, 0, 0]


def test_self_times_sum_to_root_durations():
    parent = [-1, 0, 1, 2, 1, 0]
    start = [0.0, 0.5, 0.75, 1.0, 2.5, 4.0]
    end = [5.0, 3.0, 2.0, 1.5, 2.75, 4.5]
    assert sum(tracing.self_times(parent, start, end)) == pytest.approx(5.0)


def test_normalize_scales_by_nearby_probes():
    t = [0.0, 1.0, 2.0, 3.0]
    d = [0.001, 0.002, 0.004, 0.002]
    # Probes at 1.0 and 2.0 lie within 0.05 of [1.0, 2.0]: mean(1/d) = 375.
    assert speed.normalize(1.0, 2.0, 0.8, t, d, 0.05) == pytest.approx(0.8 * 0.001 * 375)
    # A span with no probe near it takes the closest one.
    assert speed.normalize(2.9, 2.92, 0.02, t, d, 0.05) == pytest.approx(0.02 * 0.001 / 0.002)
    assert speed.normalize(9.0, 9.5, 0.5, t, d, 0.05) == pytest.approx(0.5 * 0.001 / 0.002)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # unsorted on purpose
    pct, value = run.tail_percentile(samples)
    assert (pct, value) == (90.0, 90)
    assert sum(1 for x in samples if x > value) == 10


def test_tail_percentile_small_and_boundary_counts():
    assert run.tail_percentile(list(range(1, 12))) == (100.0 / 11, 1)
    assert run.tail_percentile(list(range(1, 1184)))[1] == 1173
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(10)))


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345])
def test_point_queries_are_stable_and_off_walls(seed):
    spaces = workloads.PointQueries.SPACES
    queries = workloads.weight_vectors(seed, 200, spaces)
    assert queries == workloads.weight_vectors(seed, 200, spaces)
    for space in spaces:
        assert sum((w.space.g, w.space.n) == space for w in queries) == 200 // len(spaces) * spaces.count(space)
    for w in queries:
        assert sum(w.a) > 2 - 2 * w.space.g
        assert all(x.denominator <= 1000 and 0 < x <= 1 for x in w.a)
        wpvol.classify(w)  # raises OnWallError on a wall


def test_on_wall_detects_exact_sums():
    assert workloads.on_wall((500, 500, 7), 1000)
    assert workloads.on_wall((100, 300, 600), 1000)
    assert not workloads.on_wall((499, 500, 2), 1000)
