"""Seeded defects, each planted by monkeypatching: a suite must report FAIL
for it, not pass and not raise."""

from miint import checks
from miint import periods as per
from miint import raseries as ra
from miint.group import reduced_classes


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


def test_a_class_off_by_1e_8_fails_the_classes_suite(monkeypatch):
    # one reduced class of the period table scaled by 1 + 1e-8: its L-values
    # move by 1e-8 of their size, which no Euclid-chain check sees
    table = per.reduced_periods

    def scaled(f, C):
        periods = table(f, C).periods.copy()
        periods[reduced_classes(C)[2][3, 1]] *= 1 + 1e-8
        return per.ReducedPeriods(C, periods)

    monkeypatch.setattr(per, "reduced_periods", scaled)
    failures = _failures("classes")
    assert len(failures) == 2
    assert all(res.residual >= 10 * res.tolerance for res in failures)
    assert {res.details["worst_class"] for res in failures} == {(3, 1)}
