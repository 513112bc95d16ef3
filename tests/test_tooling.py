"""The benchmark tooling against the package it measures."""

import importlib.util
from pathlib import Path

import wpvol
from wpvol.intersection import psi_intersection

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
