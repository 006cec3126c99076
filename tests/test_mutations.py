"""Seeded defects, each planted by monkeypatching: a suite must report FAIL
for it, not pass and not raise."""

import numpy as np
import pytest

from miint import checks
from miint import periods as per
from miint import qforms as qf
from miint import raseries as ra
from miint import vvdim
from miint.group import reduced_classes, taylor_shift


@pytest.fixture(autouse=True)
def _fresh_form_tables():
    # the form-keyed caches and the point cache of the series values: a
    # table or value built before the defect was planted would hide it, and
    # one built under it would leak into later tests
    caches = (per.reduced_periods, ra._period_tables, ra._point_value)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


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


def test_a_psi_image_without_its_signs_fails_the_invariance_suite(monkeypatch):
    # psi at x < 0 read as conj psi(-conj z; X), not -conj psi(-conj z; -X):
    # of the suite's points only S(0.5+2i) has x < 0 (S(2i) has x = -0.0)
    image = ra._image
    monkeypatch.setattr(ra, "_image", lambda v: v.conj() if np.ndim(v) else image(v))
    failures = _failures("invariance")
    assert [res.name for res in failures] == [
        f"phi{sign} invariance under S at z = (0.5+2j)" for sign in "+-"
    ]
    assert all(res.residual >= 1e3 * res.tolerance for res in failures)


def test_an_eisenstein_image_without_its_conjugation_fails_the_equivariance_suite(monkeypatch):
    # E_{r,s} at x < 0 read as E(-conj z), not its conjugate: E_{7,7} is real,
    # so only the E_{11,9} line, whose S-image has x < 0, sees it
    image = ra._image
    monkeypatch.setattr(ra, "_image", lambda v: image(v) if np.ndim(v) else v)
    failures = _failures("equivariance")
    assert [res.name for res in failures] == ["E_{11,9} under S at 0.3+1.2i"]
    assert failures[0].residual >= 1e3 * failures[0].tolerance


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


def test_a_wrong_integral_term_of_dim_Mk_rho_fails_the_free_module_line(monkeypatch):
    # (17 + k)/12 (k1 - 1) for (5 + k)/12 (k1 - 1): every value moves by
    # k1 - 1 and stays an integer, so only the second route sees it
    dim = vvdim.dim_Mk_rho
    monkeypatch.setattr(vvdim, "dim_Mk_rho", lambda k, k1: dim(k, k1) + (k1 - 1))
    failures = {res.name: res for res in _failures("vvdim")}
    assert "dim_Mk_rho integral over 4 <= k1 < k <= 40" not in failures
    assert failures["dim_Mk_rho = free-module sum over 4 <= k1 < k <= 40"].residual == 171


def _by_suite(suites) -> dict[str, list[checks.CheckResult]]:
    return {suite: _failures(suite) for suite in suites}


def test_one_flipped_alpha_sign_fails_the_closed_form_line(monkeypatch):
    # one term of the double binomial sum with the wrong sign
    alpha = ra._closed_form_alpha

    def flipped(k):
        out = alpha(k).copy()
        out[3, 2, 5] *= -1
        return out

    monkeypatch.setattr(ra, "_closed_form_alpha", flipped)
    failures = _failures("dualroute")
    assert [res.name for res in failures] == ["phi(j; z) decomposition vs closed form, j = 0..10"]
    assert failures[0].residual >= 1e3 * failures[0].tolerance


def test_a_translation_off_by_one_fails_the_invariance_suite(monkeypatch):
    # every coset's period polynomial translated by n + 1 instead of n
    monkeypatch.setattr(ra, "taylor_shift", lambda P, n: taylor_shift(P, n + 1))
    failures = _by_suite(["invariance", "psibar", "secondorder"])
    assert all(failures.values())
    assert max(res.residual / res.tolerance for res in failures["invariance"]) >= 1e3


def test_a_minus_series_without_its_conjugation_fails_keypr_and_psibar(monkeypatch):
    # the '-' series summed as the '+' one
    monkeypatch.setattr(ra, "_minus", lambda sign: False)
    failures = _by_suite(["keypr", "psibar"])
    assert all(failures.values())
    assert all(res.residual >= 1e3 * res.tolerance for res in failures["keypr"] + failures["psibar"])


def test_an_anchor_coefficient_off_by_1e_8_fails_cocycle_and_classes(monkeypatch):
    # coefficient 3 of r(S), from which every period is slashed, scaled by 1 + 1e-8
    anchor = per._anchor

    def scaled(f):
        r_S = anchor(f).copy()
        r_S[3] *= 1 + 1e-8
        return r_S

    monkeypatch.setattr(per, "_anchor", scaled)
    failures = _by_suite(["cocycle", "classes"])
    assert all(failures.values())
    assert len(failures["classes"]) == 2
    assert all(res.residual >= 10 * res.tolerance for res in failures["classes"])


def test_a_leading_coefficient_off_by_1e_8_fails_both_anchor_lines(monkeypatch):
    # a(1) of Delta scaled by 1 + 1e-8: not a modular form, so r(S) depends
    # on its base point and breaks the relation that (TS)^3 = -I imposes
    delta = qf.delta_q()
    coeffs = list(delta.coeffs)
    coeffs[1] *= 1 + 1e-8
    monkeypatch.setattr(qf, "delta_q", lambda: qf.QExpansion(delta.k, tuple(coeffs)))
    failures = _failures("cocycle")
    assert [res.name for res in failures] == [
        "r(S)|(1 + U + U^2) = 0, U = TS",
        "base-point independence of r(S)",
    ]
    assert all(res.residual >= 1e3 * res.tolerance for res in failures)
