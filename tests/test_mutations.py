"""Seeded defects, each planted by monkeypatching: a suite must report FAIL
for it, not pass and not raise."""

from miint import checks
from miint import raseries as ra


def _failures(suite: str) -> list[checks.CheckResult]:
    results = checks.run_suite(suite)
    assert not any(" raised " in res.name for res in results)
    return [res for res in results if not res.passed]


def test_swapped_weights_fail_the_equivariance_suite(monkeypatch):
    # E_{r,s} built with the weights of E_{s,r}: the two agree up to
    # conjugation on the imaginary axis, so only a point off it sees them
    weights = ra._rs_weights
    monkeypatch.setattr(ra, "_rs_weights", lambda t, z, w: weights(t, z, w.swapped()))
    assert [res.name for res in _failures("equivariance")] == ["E_{11,9} under S at 0.3+1.2i"]
