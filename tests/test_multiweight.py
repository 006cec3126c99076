"""The full pipeline on forms of weight 16 and 18 with asymmetric bi-weights,
guarding the degree bookkeeping against anything weight-12-specific."""

import numpy as np

from miint import periods as per
from miint import qforms as qf
from miint import raseries as ra
from miint.group import BiWeight, S, act_poly, act_tensor

F16 = qf.cusp_basis(16, 120)[0]
F18 = qf.cusp_basis(18, 120)[0]
T40 = ra.TruncationParams()


def test_weight16_lvalue_dual_route():
    worst = 0.0
    for s in range(1, 16):
        a = per.twisted_L(F16, s, 0, 1)
        b = per._lambdas_by_extraction(F16, 0, 1)[s - 1]
        worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-7


def test_weight16_period_relations():
    rS = per.period_poly(F16, S)
    assert np.abs(act_poly(rS, S, 16) + rS).max() / np.abs(rS).max() <= 1e-9


def test_weight16_phi_invariance_asymmetric_weights():
    w = BiWeight(12, 8)
    z = 2j
    sv = ra.phi(F16, w, "+", z, T40)
    fn = lambda u: ra.phi(F16, w, "+", u, T40).value
    res = np.abs(act_tensor(fn, S, w, 16)(z) - sv.value).max()
    assert res <= max(4 * sv.tail_estimate, 1e-5)


def test_weight16_closed_form_both_signs():
    w = BiWeight(12, 8)
    z = 2j
    for sign in "+-":
        sv = ra.phi(F16, w, sign, z, T40)
        vec = ra.coeff_decompose(sv.value, z, 16)
        tol = max(sv.tail_estimate, 1e-5)
        for j in (0, 7, 14):
            cf = ra.closed_form_phi_j(F16, w, sign, j, z, T40)
            assert abs(vec[j] - cf) / max(1.0, abs(cf)) <= tol


def test_weight16_psi_law():
    w = BiWeight(12, 8)
    z = 2j
    sv = ra.psi_series(F16, w, "+", z, T40)
    fn = lambda u: ra.psi_series(F16, w, "+", u, T40).value
    image = act_tensor(fn, S, w, 16)(z) - sv.value
    ev = ra.eisenstein_rs(w, z, T40)
    predicted = per.period_poly(F16, S) * (-ev.value)
    assert np.abs(image - predicted).max() <= max(2 * sv.tail_estimate, 1e-6)


def test_weight18_closed_form_spot():
    w = BiWeight(10, 10)
    for z in (2j, 0.5 + 2j):
        sv = ra.phi(F18, w, "+", z, T40)
        vec = ra.coeff_decompose(sv.value, z, 18)
        tol = max(sv.tail_estimate, 1e-5)
        for j in (0, 8, 16):
            cf = ra.closed_form_phi_j(F18, w, "+", j, z, T40)
            assert abs(vec[j] - cf) / max(1.0, abs(cf)) <= tol


def test_weight18_conjugation_swap():
    w = BiWeight(12, 8)
    a = ra.phi(F18, w, "+", 2j, T40)
    b = ra.phi(F18, w.swapped(), "-", 2j, T40)
    assert float(np.max(np.abs(np.conj(a.value) - b.value))) <= 1e-13
