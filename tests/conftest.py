"""Fixtures shared by the test modules."""

import pytest

from wpvol.volumes import clear_volume_cache


@pytest.fixture
def fresh_volume_caches():
    """Empty the volume and wall-crossing memos before and after the test, so
    it neither reads values computed earlier nor leaves broken ones behind."""
    clear_volume_cache()
    yield
    clear_volume_cache()
