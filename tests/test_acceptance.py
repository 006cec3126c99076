"""Acceptance suite: one test per criterion, printing a pass/fail line with
the measured residual against the pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see all lines; the same
suites are exposed on the command line as `miint check <suite>`.
"""

import time

import pytest

from miint import checks


def _report(criterion: str, results) -> None:
    ok = True
    for res in results:
        print(f"  {res.line()}")
        ok = ok and res.passed
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}")
    assert ok, f"{criterion}: " + "; ".join(r.line() for r in results if not r.passed)
    # a residual of exactly 0 against a nonzero tolerance marks a line that
    # holds by construction: it would read 0 for any input
    exact = [r.name for r in results if r.tolerance and r.residual == 0]
    assert not exact, f"{criterion}: lines that cannot fail: {exact}"


def test_criterion_01_exact_dimension_suite():
    t0 = time.time()
    results = checks.suite_vvdim_dims()
    elapsed = time.time() - t0
    _report("criterion 1: exact dimension suite", results)
    assert elapsed < 1.0


def test_criterion_02_representation_suite():
    t0 = time.time()
    results = checks.suite_vvdim_rep()
    elapsed = time.time() - t0
    _report("criterion 2: representation relations and traces", results)
    assert elapsed < 5.0


def test_criterion_03_recurrence_and_xi():
    t0 = time.time()
    results = checks.suite_vvdim_recurrence()
    elapsed = time.time() - t0
    _report("criterion 3: recurrence three-route and xi identity", results)
    assert elapsed < 1.0


def test_criterion_04_period_cocycle_suite():
    t0 = time.time()
    results = checks.suite_cocycle()
    elapsed = time.time() - t0
    _report("criterion 4: period cocycle suite", results)
    assert elapsed < 30.0


def test_criterion_05_lvalue_dual_route():
    t0 = time.time()
    results = checks.suite_lvalue_dualroute()
    elapsed = time.time() - t0
    _report("criterion 5: L-value dual route", results)
    assert elapsed < 30.0


def test_criterion_06_phi_invariance():
    t0 = time.time()
    results = checks.suite_invariance()
    elapsed = time.time() - t0
    _report("criterion 6: phi invariance and self-convergence", results)
    assert elapsed < 300.0
    # at a near-critical weight off the axis the truncation moves phi: the
    # line reads a nonzero residual, well inside the C=40 value's tail
    conv = results[-1]
    assert conv.name == "phi self-convergence C: 40 -> 80, (8,6) at 0.3+1.2i"
    assert 1e-4 * conv.tolerance < conv.residual < 1e-2 * conv.tolerance


def test_criterion_07_differential_identities():
    t0 = time.time()
    results = (
        checks.suite_phi_identities() + checks.suite_coeffs_identity() + checks.suite_equivariance()
    )
    elapsed = time.time() - t0
    _report("criterion 7: key differential identities", results)
    assert elapsed < 300.0
    # the refinement line is the ratio of the two stencils' residuals, held
    # to 1/2: a second-order stencil at h/2 reads about a quarter
    (ratio,) = [res for res in results if res.name.startswith("identity residual ratio")]
    fine, coarse = ratio.details["fine"], ratio.details["coarse"]
    assert ratio.residual == max(fine.values()) / max(coarse.values())
    assert ratio.tolerance == 0.5 and 0.05 < ratio.residual < 0.5


def test_criterion_08_closed_form_cross_check():
    t0 = time.time()
    results = checks.suite_coeff_closed_form()
    elapsed = time.time() - t0
    _report("criterion 8: coefficient closed-form cross-check", results)
    assert elapsed < 600.0


def test_criterion_09_second_order_laws():
    t0 = time.time()
    results = checks.suite_second_order() + checks.suite_psibar()
    elapsed = time.time() - t0
    _report("criterion 9: second-order laws", results)
    assert elapsed < 300.0


def test_criterion_10_iterated_order_checks():
    t0 = time.time()
    results = checks.suite_order2() + checks.suite_order3()
    elapsed = time.time() - t0
    _report("criterion 10: iterated order checks", results)
    assert elapsed < 300.0


def test_criterion_11_fourier_structure():
    t0 = time.time()
    results = checks.suite_fourier()
    elapsed = time.time() - t0
    _report("criterion 11: Fourier expansion structure", results)
    assert elapsed < 300.0


def test_criterion_12_every_class_against_the_integral():
    # every reduced class with c <= 12 at every s, for Delta and weight 16;
    # a tolerance over a thousand times the residual would hide a defect
    t0 = time.time()
    results = checks.suite_classes()
    elapsed = time.time() - t0
    _report("criterion 12: every class's L-values against the integral", results)
    assert len(results) == 2
    assert all(res.residual >= 1e-3 * res.tolerance for res in results)
    assert elapsed <= 1.0
