"""The benchmark tooling against the package it measures."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    """Every (owner, attribute) that span tracing wraps exists, so a rename
    of a traced function fails here rather than in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (name, attr)
        for name, owner, attrs in tracing.TARGETS
        for attr in attrs
        if not callable(getattr(owner, attr, None))
    ]
    assert tracing.TARGETS and not missing
