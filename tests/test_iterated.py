import math

import numpy as np
import pytest

from miint.errors import ConvergenceError, PrecisionError
from miint import iterated as it
from miint import maass as ma
from miint import periods as per
from miint import qforms as qf
from miint import raseries as ra
from miint.group import (
    BiWeight,
    IDENTITY,
    S,
    T,
    T_pow,
    act_poly_matrix,
    act_tensor,
    automorphy,
    mobius,
)
from test_raseries import _basis_product

DELTA = qf.delta_q(120)
DATA2 = it.IteratedIntegrand((DELTA,))
DATA3 = it.IteratedIntegrand((DELTA, DELTA))
T40 = ra.TruncationParams()
W = BiWeight(10, 10)


def map_to_MI(hform, w, sign, z):
    """The map to M_I: the invariant coefficient vector
    (phi(0; z), ..., phi(k-2; z)) of the second-order series of hform."""
    return ra.coeff_decompose(ra.phi(hform, w, sign, z, T40).value, z, hform.k)


def test_depth_one_is_constant_one():
    assert it.iterated_F(it.IteratedIntegrand(()), 2j) == 1.0 + 0j


def test_values_are_coefficient_arrays_with_one_axis_per_form():
    s16 = qf.cusp_basis(16)[0]
    for forms, shape in [((), ()), ((DELTA,), (11,)), ((DELTA, s16), (11, 15))]:
        v = it.iterated_F(it.IteratedIntegrand(forms), 0.3 + 1.1j)
        assert type(v) is np.ndarray and v.dtype == np.complex128 and v.shape == shape


def test_forms_given_as_a_list_read_the_same_kernel():
    s16 = qf.cusp_basis(16)[0]
    for forms in ([DELTA], [DELTA, s16]):
        data = it.IteratedIntegrand(forms)
        assert data.forms == tuple(forms)
        got = it.iterated_F(data, 0.3 + 1.1j)
        assert np.array_equal(got, it.iterated_F(it.IteratedIntegrand(tuple(forms)), 0.3 + 1.1j))


def test_depth_two_matches_eichler():
    for z in (1.3j, 1.7 + 0.8j):
        v = it.iterated_F(DATA2, z)
        w = per.eichler_F(DELTA, z)
        assert np.array_equal(v, w)


def test_depth_cap_and_cusp_requirement():
    with pytest.raises(ValueError):
        it.IteratedIntegrand((DELTA, DELTA, DELTA))
    with pytest.raises(ValueError):
        it.IteratedIntegrand((qf.eisenstein_q(4, 40),))


def test_depth3_fd_derivative():
    z, h = 1j, 1e-4
    dF = (it.iterated_F(DATA3, z + h) - it.iterated_F(DATA3, z - h)) * (1 / (2 * h))
    fz = qf.eval_form(DELTA, z)
    xz = np.array([math.comb(10, v) * (-1) ** v * z ** (10 - v) for v in range(11)])
    target = np.outer(xz * fz, per.eichler_F(DELTA, z))
    assert float(np.max(np.abs(dF - target))) <= 1e-5


@pytest.mark.parametrize("pair", ["delta,delta", "delta,s16", "s16,delta"])
def test_depth3_matches_a_quadrature_along_the_vertical_ray(pair):
    # -i int_0^inf f1(z+it) (z+it-X1)^m1 F_2(z+it; X2) dt by 30-node
    # Gauss-Legendre panels of width 0.25 up to t = 7, where the integrand has
    # decayed below roundoff; the points out to |Re z| = 31.6 pin the series
    # route away from the imaginary axis
    f1, f2 = (DELTA if name == "delta" else qf.cusp_basis(16)[0] for name in pair.split(","))
    m1 = f1.k - 2
    nodes, weights = np.polynomial.legendre.leggauss(30)
    ts = (np.arange(28)[:, None] + (nodes[None, :] + 1) / 2) * 0.25
    wts = np.tile(weights, 28) * 0.125
    signed_binom = np.array([math.comb(m1, v) * (-1) ** v for v in range(m1 + 1)])
    for z in (1j, 0.3 + 1.1j, 1.7 + 0.8j, 2.6 + 0.9j, 5.4 + 1.0j, -31.6 + 1.1j):
        # every node at once: the weighted f1 (w - X1)^m1 rows against F_2's
        ws = z + 1j * ts.ravel()
        x1 = signed_binom * ws[:, None] ** np.arange(m1, -1, -1)
        F2 = np.array([per.eichler_F(f2, w) for w in ws])
        ref = -1j * (((wts * qf.eval_form(f1, ws))[:, None] * x1).T @ F2)
        got = it.iterated_F(it.IteratedIntegrand((f1, f2)), z)
        assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


def _depth3_reference(f1, f2, z):
    """The depth-3 value by its defining sums at z, with no cached kernel:
    J[n-1, tau] = sum_m a1(m) e((m+n) z) P(m+n, tau) over windows of the
    frequencies 2..N1+N2, then the inner primitives pi[n-1, j, t] and one
    contraction over (n, t), shifted from (Y1, Y2) to (X1, X2)."""
    from numpy.lib.stride_tricks import sliding_window_view

    from miint.group import binomials, shift_matrix

    m1, m2 = f1.k - 2, f2.k - 2
    N1, N2 = f1.N, f2.N
    a1, a2 = qf.coeff_array(f1)[1:], qf.coeff_array(f2)[1:]
    P = per._ray_primitives(N1 + N2, m1 + m2)
    w1, w2 = (binomials(m)[m] * (-1.0) ** (m - np.arange(m + 1)) for m in (m1, m2))
    I = per._exps(np.arange(2, N1 + N2 + 1), z)[:, None] * P[1:]
    J = sliding_window_view(I, N1, axis=0) @ a1
    pi = binomials(m2) * P[:N2, abs(np.subtract.outer(np.arange(m2 + 1), np.arange(m2 + 1)))]
    R = a2[:, None, None] * w2[:, None] * pi
    H = np.tensordot(sliding_window_view(J, m2 + 1, axis=1), R, axes=([0, 2], [0, 2]))
    B1, B2 = (shift_matrix(z, m) for m in (m1, m2))
    return B1 @ (w1[:, None] * H)[::-1, ::-1] @ B2.T


@pytest.mark.parametrize("pair", ["delta,delta", "delta,s16", "s16,delta"])
def test_the_depth3_kernel_equals_the_defining_sums(pair):
    f1, f2 = (DELTA if name == "delta" else qf.cusp_basis(16)[0] for name in pair.split(","))
    K = per._iterated_kernel((f1, f2))
    assert K is per._iterated_kernel((f1, f2)) and not K.flags.writeable
    for z in (1j, 0.3 + 1.1j, -0.45 + 0.8j, -31.6 + 1.1j):
        ref = _depth3_reference(f1, f2, z)
        got = it.iterated_F(it.IteratedIntegrand((f1, f2)), z)
        assert float(np.max(np.abs(got - ref))) <= 1e-14 * float(np.max(np.abs(ref)))


def test_act_tensor_of_iterated_values_identity_and_composition():
    # the outer weight 2 slashes by BiWeight(0, 0), whose factor is 1
    w0 = BiWeight(0, 0)
    for data in (it.IteratedIntegrand(()), DATA2, DATA3):
        F = lambda z: it.iterated_F(data, z)
        assert np.array_equal(act_tensor(F, IDENTITY, w0, *data.weights[1:])(2j), F(2j))
    F = lambda z: it.iterated_F(DATA3, z)
    ks = DATA3.weights[1:]
    # fixed small-entry pairs keep every evaluation above the q-series floor;
    # residual is relative to the acted operand, whose size sets the float
    # conditioning of the re-expansion
    for g, d in [(S, T), (T * S, S), (S * T, T.inv()), (T.inv() * S, T * S)]:
        lhs = act_tensor(act_tensor(F, g, w0, *ks), d, w0, *ks)(2j)
        rhs = act_tensor(F, g * d, w0, *ks)(2j)
        operand = F(mobius(g * d, 2j))
        scale = max(1.0, np.abs(rhs).max(), np.abs(operand).max())
        assert np.abs(lhs - rhs).max() / scale <= 1e-9


def test_act_tensor_on_two_variables_is_the_two_sided_matrix_product():
    # mixed weights (12, 16), so that a transposed axis cannot pass
    s16 = qf.cusp_basis(16)[0]
    F = lambda z: it.iterated_F(it.IteratedIntegrand((DELTA, s16)), z)
    for g, z in [(S, 2j), (T * S, 0.3 + 1.1j), (S * T, 1.7 + 0.8j)]:
        inline = act_poly_matrix(g, 12) @ F(mobius(g, z)) @ act_poly_matrix(g, 16).T
        got = act_tensor(F, g, W, 12, 16)(z)
        assert got.tobytes() == (inline * automorphy(g, z, W)).tobytes()


def test_a_value_or_image_past_float64_is_a_precision_failure(monkeypatch):
    # each shift fits float64 at x = 1e17, but the depth-3 value multiplies
    # two; then a finite value whose T-image overflows; neither warns
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError):
            it.iterated_F(DATA3, 1e17 + 1j)
        huge = np.full((11, 11), 1e308 + 0j)
        monkeypatch.setattr(it, "iterated_F", lambda data, z: huge)
        with pytest.raises(PrecisionError):
            it.parabolic_residual(DATA3, 1.5j)


def test_parabolic_invariance():
    assert it.parabolic_residual(DATA2, 1.5j) <= 1e-9
    assert it.parabolic_residual(DATA3, 1.5j) <= 1e-9


def test_order2_membership():
    residuals = it.order_check(DATA2, [(S,), (S * T,)])
    assert list(residuals) == [(S.entries,), ((S * T).entries,)]
    assert max(residuals.values()) <= 1e-8


def test_order3_membership():
    assert max(it.order_check(DATA3, [(S, S * T), (S, T_pow(1) * S)]).values()) <= 1e-6


def test_order3_checks_every_slot_in_one_pass(monkeypatch):
    calls = []
    iterated_F = it.iterated_F

    def counted(data, z):
        calls.append(z)
        return iterated_F(data, z)

    monkeypatch.setattr(it, "iterated_F", counted)
    assert max(it.order_check(DATA3, [(S, S * T)]).values()) <= 1e-6
    assert len(calls) <= 10


def test_order3_evaluates_each_distinct_point_once(monkeypatch):
    # the suite's witnesses share z1, z2 and their S-images, and S i = i and
    # S (ST i) = TS i = 1 + i bit for bit: 9 distinct points of the 16
    # visits; a depth-3 value is one product e(Nz) @ K, and no cache holds it
    import struct

    calls = []
    iterated_F = it.iterated_F

    def counted(data, z):
        calls.append(struct.pack("<2d", z.real, z.imag))
        return iterated_F(data, z)

    monkeypatch.setattr(it, "iterated_F", counted)
    assert max(it.order_check(DATA3, [(S, S * T), (S, T_pow(1) * S)]).values()) <= 1e-6
    assert len(set(calls)) == 9 and len(calls) <= 16


def test_order_filtration_depth2_inside_depth3():
    # a depth-2 object seen through the depth-3 recursion: the image
    # F2.(g-1) = r(g; X1) already has z-independent slot coefficients
    F = lambda z: it.iterated_F(DATA2, z)
    img = it._image(F, (S,), DATA2.weights)
    assert np.abs(img(1j) - img(1 + 2j)).max() <= 1e-8


def test_depth3_image_structure():
    # F3.(g-1) - (z-independent part) = outer(F2(z; X1), r2(g; X2))
    g = S
    F = lambda z: it.iterated_F(DATA3, z)
    img = it._image(F, (g,), DATA3.weights)
    z1, z2 = 1.5j, 2.5j
    lhs = img(z1) - img(z2)
    r2 = per.period_poly(DELTA, g)
    rhs = np.outer(per.eichler_F(DELTA, z1) - per.eichler_F(DELTA, z2), r2)
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


def test_order_check_validates_n():
    # a depth-n witness is n - 1 group elements, one per level, and the
    # constant depth-1 value has no order check
    DATA1 = it.IteratedIntegrand(())
    cases = [(DATA1, ()), (DATA2, (S, T)), (DATA2, ()), (DATA3, (S,)), (DATA3, (S, T, S))]
    for data, witness in cases:
        with pytest.raises(ValueError):
            it.order_check(data, [witness])


def real_F2(u):
    """The real-analytic iterated integral E_{r,s} F2: its (g-1)-image is
    E_{r,s} r(g)."""
    return ra.eisenstein_rs(W, u, T40).value * per.eichler_F(DELTA, u)


def test_real_iterated_F2_cocycle():
    z = 2j
    ev = ra.eisenstein_rs(W, z, T40)
    image = act_tensor(real_F2, S, W, 12)(z) - real_F2(z)
    predicted = per.period_poly(DELTA, S) * ev.value
    assert np.abs(image - predicted).max() <= max(4 * ev.tail_estimate, 1e-5)


def test_real_iterated_F2_translation_invariance():
    image = act_tensor(real_F2, T, W, 12)(2j)
    assert np.abs(image - real_F2(2j)).max() <= 1e-9


def test_real_iterated_F2_cocycle_base_point_independence():
    ev1 = ra.eisenstein_rs(W, 2j, T40)
    im1 = act_tensor(real_F2, S, W, 12)(2j) - real_F2(2j)
    im2 = act_tensor(real_F2, S, W, 12)(0.5 + 2j) - real_F2(0.5 + 2j)
    r1 = im1 * (1.0 / ev1.value)
    ev2 = ra.eisenstein_rs(W, 0.5 + 2j, T40)
    r2 = im2 * (1.0 / ev2.value)
    assert np.abs(r1 - r2).max() <= 1e-5


@pytest.mark.parametrize(
    "call, w",
    [
        (lambda w: map_to_MI(DELTA, w, "+", 2j), BiWeight(6, 6)),
        (lambda w: map_to_MI(DELTA, w, "-", 2j), BiWeight(5, 3)),
        (lambda w: ma.check_phi_identities(DELTA, w, "+", 2j, T40), BiWeight(6, 6)),
        (lambda w: ma.check_phi_identities(DELTA, w, "-", 2j, T40), BiWeight(5, 3)),
    ],
    ids=[
        f"{name}-{case}"
        for name, cases in [
            ("map_to_MI", ("r+s=k", "r+s<k")),
            ("check_phi_identities", ("r+s=k", "r+s<k")),
        ]
        for case in cases
    ],
)
def test_entry_points_raise_below_convergence(call, w):
    # each raises through the series it calls: r + s <= k
    with pytest.raises(ConvergenceError):
        call(w)


def psi_bar(u):
    """psi-bar = psi^+_f + psi^-_f of Delta."""
    return ra.psi_series(DELTA, W, "+", u, T40).value + ra.psi_series(DELTA, W, "-", u, T40).value


def test_psi_bar_image_two_routes():
    # the series image against the closed form -(r^+(S) + r^-(S)) E_{r,s}
    image = act_tensor(psi_bar, S, W, 12)(2j) - psi_bar(2j)
    ev = ra.eisenstein_rs(W, 2j, T40).value
    closed = (per.period_poly(DELTA, S, "+") + per.period_poly(DELTA, S, "-")) * (-ev)
    tol = max(4 * ra.psi_series(DELTA, W, "+", 2j, T40).tail_estimate, 1e-5)
    assert np.abs(image - closed).max() <= tol


def test_psi_bar_image_parabolic():
    assert np.abs(act_tensor(psi_bar, T, W, 12)(2j) - psi_bar(2j)).max() <= 1e-12
    assert np.abs(per.period_poly(DELTA, T, "+") + per.period_poly(DELTA, T, "-")).max() == 0.0


def test_map_to_MI_linearity():
    vec = map_to_MI(DELTA, W, "+", 2j)
    vec3 = map_to_MI(3 * DELTA, W, "+", 2j)
    assert float(np.max(np.abs(vec3 - 3 * vec))) <= 1e-10


def test_map_to_MI_roundtrip():
    z = 2j
    vec = map_to_MI(DELTA, W, "+", z)
    phiv = ra.phi(DELTA, W, "+", z, T40).value
    recon = sum(vec[i] * _basis_product(z, i, 10) for i in range(11))
    assert np.abs(recon - phiv).max() <= 1e-10


def test_map_to_MI_component_invariance():
    from miint.group import automorphy, mobius

    z = 2j
    vec = map_to_MI(DELTA, W, "+", z)
    zs = mobius(S, z)
    vec_s = map_to_MI(DELTA, W, "+", zs)
    for i in range(11):
        pred = automorphy(S, z, BiWeight(W.r + i, W.s + 10 - i)) * vec_s[i]
        assert abs(pred - vec[i]) <= 1e-8


def test_the_shuffle_line_holds_within_a_quarter_of_its_budget():
    # I_{f,g} + I_{g,f}^T = F_f (x) F_g for (Delta, weight 16), on the axis
    # and off it, each coefficient against 8 eps of the sum of its terms'
    # sizes at that coefficient (0.17 of it at worst, at i)
    from miint import checks

    line = checks.suite_order3()[-1]
    assert line.name == "shuffle I_{f,g} + I_{g,f} = F_f F_g"
    assert line.residual <= 0.25 * line.tolerance
