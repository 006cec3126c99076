import pytest

from miint import raseries


@pytest.fixture(autouse=True)
def _fresh_point_cache():
    # every test computes the series values it reads: a value cached by an
    # earlier test would turn a warm-up call, a call count or a seeded
    # defect into a cache read
    raseries._point_value.cache_clear()
