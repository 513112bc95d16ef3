"""The benchmark tooling against the package it measures, and the code-line
counter."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wpvol
from wpvol.intersection import psi_intersection
from wpvol.poly import PI_RING, angle_ring

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TOOLS = ROOT / "tools"


def _load(name, folder=PERFBENCH):
    spec = importlib.util.spec_from_file_location(f"{folder.name}_{name}", folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def test_tracing_targets_resolve():
    """Every (owner, attribute) that span tracing wraps exists, so a rename
    of a traced function fails here rather than in a traced benchmark run."""
    tracing = _tracing()
    missing = [
        (name, attr)
        for name, owner, attrs in tracing.TARGETS
        for attr in attrs
        if not callable(getattr(owner, attr, None))
    ]
    assert tracing.TARGETS and not missing


def test_tracing_counts_intersection_entries(monkeypatch):
    """The tracer's one read outside TARGETS, len(wpvol.default_cache()) in
    install() and in metrics(), counts the entries a run adds to the memo.
    With TARGETS emptied, install() wraps nothing."""
    tracing = _tracing()
    monkeypatch.setattr(tracing, "TARGETS", [])
    table = wpvol.default_cache()
    warm = dict(table)
    try:
        table.clear()
        psi_intersection(0, (0, 0, 0))
        tracer = tracing.Tracer()
        tracer.install()
        psi_intersection(1, (1,))
        psi_intersection(0, (0, 0, 0))
        assert tracer.metrics()["intersection.cache.entries_added"] == 1
    finally:
        table.clear()
        table.update(warm)


def test_tracing_poly_hooks_count_terms():
    """The tracer's product and substitution hooks read len(p.terms) of the
    Polys they are handed: term pairs of a product (a scalar factor counts
    one term), and the terms of the poly substituted into."""
    tracer = _tracing().Tracer()
    ring = angle_ring(2)
    a = ring.var(1) + ring.pi() / 3
    b = a * a
    v = wpvol.mirzakhani_volume(1, 2).poly
    assert (len(a.nums), len(b.nums)) == (2, 3) and len(v.nums) > 3
    for args in ((a, b), (a, 5), (v, v)):
        tracer._on_mul(args, args[0] * args[1])
    tracer._on_subs((v, 1, a), v.subs(1, a))
    assert tracer.counts["poly.mul.term_pairs"] == 2 * 3 + 2 + len(v.nums) ** 2
    assert tracer.counts["poly.subs.terms_in"] == len(v.nums)


def test_point_query_checks_read_poly_terms():
    """The point-query checks read a volume's ``terms`` (``values()`` for the
    common denominator, ``items()`` for the integer form): on one query the
    independent exact value equals the volume evaluated by ``Poly`` and the
    checks find no problem."""
    workloads = _load("workloads")
    pq = workloads.PointQueries()
    (w,) = workloads.weight_vectors(11, 1, ((1, 3),))
    out = pq.run(w)
    c, vr, value = out
    assert pq.problems(w, out) == []
    ring = vr.poly.ring
    at_w = vr.poly.evaluate_angles(w.theta_values(ring))
    assert at_w == pq._exact_value(w, vr) * PI_RING.pi() ** workloads.volume_degree(w.space)


COUNTED = textwrap.dedent(
    '''
    """Module docstring,
    over two lines."""

    # a comment line
    import os  # a trailing comment


    class A:
        """Class docstring."""

        x = """a string that is not a docstring,
        over two lines"""

        def f(self, y):
            \'\'\'Function docstring.

            More of it.
            \'\'\'
            "a later string statement"
            return (y +
                    1)
    '''
)


def test_code_lines_skip_comments_blanks_and_docstrings(tmp_path):
    """The counter counts 8 code lines in ``COUNTED``: the import, the class,
    both lines of the assigned string, the def, the later string statement
    and both lines of the return; and prints the count of each file and the
    total, a directory standing for its *.py files in sorted order."""
    code_lines = _load("code_lines", TOOLS)
    assert code_lines.code_lines(COUNTED) == 8
    assert code_lines.code_lines("") == 0
    (tmp_path / "a.py").write_text(COUNTED)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    command = [sys.executable, str(TOOLS / "code_lines.py"), "a.py", "b.py"]
    out = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["8", "a.py", "1", "b.py", "9", "total"]
    # a directory counts every *.py under it, in sorted order
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "sub" / "c.py").write_text(COUNTED)
    (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    command = [sys.executable, str(TOOLS / "code_lines.py"), "pkg", "b.py"]
    out = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1", "pkg/b.py", "8", "pkg/sub/c.py", "1", "b.py", "10", "total"]


def _bench_result(values, failed=0):
    """A result line of ``perfbench/run.py`` with the given metric values."""
    return {
        "correct": not failed,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()},
    }


def test_bench_pairs_statistics_and_summary():
    """``tools/bench_pairs.py`` on synthetic runs, with no process started:
    per side the runs, median, inclusive quartiles and IQR of each metric
    and the summed op counts; per metric the pairs in which the change read
    lower, a tie not counted; and one summary line per metric."""
    bench_pairs = _load("bench_pairs", TOOLS)
    parent = [_bench_result({"op_p50_ms": v, "peak_rss_mb": 20.0}) for v in (0.10, 0.12, 0.11, 0.13, 0.09)]
    change = [
        _bench_result({"op_p50_ms": v, "peak_rss_mb": r}, failed=f)
        for v, r, f in ((0.06, 20.0, 0), (0.13, 21.0, 2), (0.07, 19.0, 0), (0.08, 20.5, 0), (0.05, 20.0, 0))
    ]
    p, c = bench_pairs.side_stats(parent), bench_pairs.side_stats(change)
    assert (p["correct"], p["failed"], p["attempted"]) == (True, 0, 500)
    assert (c["correct"], c["failed"], c["attempted"]) == (False, 2, 500)
    p50 = p["metrics"]["op_p50_ms"]
    assert p50["runs"] == [0.10, 0.12, 0.11, 0.13, 0.09]
    assert (p50["median"], p50["q1"], p50["q3"]) == pytest.approx((0.11, 0.10, 0.12))
    assert p50["iqr"] == pytest.approx(0.02)
    assert c["metrics"]["op_p50_ms"]["median"] == pytest.approx(0.07)
    assert bench_pairs.pairs_lower(p, c) == {"op_p50_ms": 4, "peak_rss_mb": 1}
    lines = bench_pairs.summary_lines(p, c, {"op_p50_ms": 0.25, "peak_rss_mb": 0.1})
    assert set(lines) == {"op_p50_ms", "peak_rss_mb"}
    assert lines["op_p50_ms"] == (
        "0.11 -> 0.07 (-36.4 %), change lower in 4/5 pairs, median gap 0.04 "
        "against a parent IQR of 0.02; bound 0.25"
    )
    assert lines["peak_rss_mb"].startswith("20 -> 20 (+0.0 %), change lower in 1/5 pairs")
