import cmath
import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from miint.errors import ConvergenceError, PrecisionError
from miint import periods as per
from miint import qforms as qf
from miint import raseries as ra
from miint.group import BiWeight, S, T, act_tensor, reduced_classes
from miint import group
from miint.iterated import IteratedIntegrand, iterated_F
from test_periods import _primitive_row

DELTA = qf.delta_q(120)
T40 = ra.TruncationParams()
W = BiWeight(10, 10)


def test_truncation_rectangle_invariant():
    with pytest.raises(ValueError):
        ra.eisenstein_rs(W, 3.0 + 2j, ra.TruncationParams(C=40, D=100))
    with pytest.raises(ValueError):
        ra.TruncationParams(C=0, D=10)


@pytest.mark.parametrize(
    "C, D", [(40.5, 400), (40.0, 400.0), (40, 400.7), (math.nan, 400)], ids=str
)
def test_truncation_rejects_a_cutoff_that_is_not_an_integer(C, D):
    # at construction, not at the first coset sum inside numpy
    with pytest.raises(ValueError, match="integers"):
        ra.TruncationParams(C, D)


def test_truncation_accepts_numpy_integers():
    t = ra.TruncationParams(np.int64(40), np.int32(400))
    assert ra.eisenstein_rs(W, 2j, t).value == ra.eisenstein_rs(W, 2j, T40).value


_FORM_AT = lambda z: qf.eval_form(DELTA, z)


@pytest.mark.parametrize(
    "call",
    [
        lambda: BiWeight(10.5, 9.5),
        lambda: ra.poincare(1.5, 12, 2j),
        lambda: ra.poincare(1, 12.0, 2j),
        lambda: ra.second_order_G(0.5, DELTA, 16, 2j),
        lambda: ra.second_order_G(1, DELTA, 16.0, 2j),
        lambda: ra.fourier_coefficient(_FORM_AT, 1.5, 1.0),
        lambda: ra.fourier_coefficient(_FORM_AT, 1, 1.0, 64.5),
        lambda: ra.closed_form_phi_j(DELTA, W, "+", 1.0, 2j),
    ],
    ids=["BiWeight", "poincare-n", "poincare-k", "G-n", "G-k", "fourier-l", "fourier-M", "phi_j-j"],
)
def test_an_integer_argument_that_is_not_an_integer_is_rejected(call):
    # at the call, with the rule of TruncationParams, not deep inside numpy
    with pytest.raises(ValueError, match="integers"):
        call()


def test_integer_arguments_accept_numpy_integers():
    n, k = np.int64(1), np.int32(12)
    assert BiWeight(np.int64(10), np.int32(10)) == W
    assert ra.poincare(n, k, 2j).value == ra.poincare(1, 12, 2j).value
    assert ra.closed_form_phi_j(DELTA, W, "+", np.int64(3), 2j) == ra.closed_form_phi_j(DELTA, W, "+", 3, 2j)


def test_eisenstein_divergent_weights_rejected():
    with pytest.raises(ConvergenceError):
        ra.eisenstein_rs(BiWeight(1, 1), 2j, T40)


def test_eisenstein_swap_is_conjugate_exact():
    a = ra.eisenstein_rs(BiWeight(8, 6), 1j, T40)
    b = ra.eisenstein_rs(BiWeight(6, 8), 1j, T40)
    assert a.value.conjugate() == b.value


def test_eisenstein_fixed_point_vanishing():
    # Si = i forces i^(r-s)-symmetry; r-s = 2 makes the value vanish
    sv = ra.eisenstein_rs(BiWeight(8, 6), 1j, T40)
    assert abs(sv.value) <= sv.tail_estimate


def test_eisenstein_translation_invariance():
    a = ra.eisenstein_rs(W, 2j, T40)
    b = ra.eisenstein_rs(W, 1 + 2j, T40)
    assert abs(a.value - b.value) <= 2 * a.tail_estimate


def test_eisenstein_self_convergence():
    a = ra.eisenstein_rs(W, 2j, T40)
    b = ra.eisenstein_rs(W, 2j, T40.scaled(2))
    assert abs(a.value - b.value) <= a.tail_estimate


def test_eisenstein_invariance_through_act_rs():
    from miint.group import automorphy, mobius

    w = BiWeight(8, 8)
    sv = ra.eisenstein_rs(w, 2j, T40)
    acted = automorphy(S, 2j, w) * ra.eisenstein_rs(w, mobius(S, 2j), T40).value
    assert abs(acted - sv.value) <= max(4 * sv.tail_estimate, 1e-8)


def test_eisenstein_holomorphic_weight_matches_q_expansion():
    # (r, s) = (4, 0) reduces to the classical weight-4 Eisenstein series
    sv = ra.eisenstein_rs(BiWeight(4, 0), 2j, T40)
    direct = qf.eval_form(qf.eisenstein_q(4, 120), 2j)
    assert abs(sv.value - direct) <= sv.tail_estimate


def test_psi_convergence_precondition():
    with pytest.raises(ConvergenceError):
        ra.psi_series(DELTA, BiWeight(6, 6), "+", 2j, T40)
    with pytest.raises(ValueError):
        ra.psi_series(qf.eisenstein_q(4, 40), BiWeight(10, 10), "+", 2j, T40)


def test_psi_second_order_law():
    witnesses = (S, T * S, S * T.inv() * S)
    for g in witnesses:
        sv = ra.psi_series(DELTA, W, "+", 2j, T40)
        fn = lambda u: ra.psi_series(DELTA, W, "+", u, T40).value
        image = act_tensor(fn, g, W, 12)(2j) - sv.value
        ev = ra.eisenstein_rs(W, 2j, T40)
        predicted = per.period_poly(DELTA, g) * (-ev.value)
        assert np.abs(image - predicted).max() <= max(2 * sv.tail_estimate, 1e-6)


def test_psi_translation_invariance():
    sv = ra.psi_series(DELTA, W, "+", 2j, T40)
    fn = lambda u: ra.psi_series(DELTA, W, "+", u, T40).value
    image = act_tensor(fn, T, W, 12)(2j)
    assert np.abs(image - sv.value).max() <= max(2 * sv.tail_estimate, 1e-12)


def test_psi_self_convergence():
    a = ra.psi_series(DELTA, W, "+", 2j, T40)
    b = ra.psi_series(DELTA, W, "+", 2j, T40.scaled(2))
    assert np.abs(a.value - b.value).max() <= a.tail_estimate


def test_phi_invariance_under_S():
    for sign in "+-":
        sv = ra.phi(DELTA, W, sign, 2j, T40)
        fn = lambda u, sg=sign: ra.phi(DELTA, W, sg, u, T40).value
        res = np.abs(act_tensor(fn, S, W, 12)(2j) - sv.value).max()
        assert res <= max(4 * sv.tail_estimate, 1e-5)


def test_phi_invariance_generators_sample_points():
    fn = lambda u: ra.phi(DELTA, W, "+", u, T40).value
    for z in (2j, 0.5 + 2j, 3j):
        sv = ra.phi(DELTA, W, "+", z, T40)
        tol = max(4 * sv.tail_estimate, 1e-5)
        for g in (S, T):
            res = np.abs(act_tensor(fn, g, W, 12)(z) - sv.value).max()
            assert res <= tol


def _phi_direct(hform, w, sign, z, t):
    """Reference route for `phi`: the Eichler integral slashed across the
    coset representatives.  Small rectangles only: `eichler_F` raises
    PrecisionError at an image point below the evaluation floor.

    It shares only the tail formula with the series it checks (`_mask_tail`
    over its terms): the weights come from per-coset automorphy factors, and
    the identity coset is reduced together with the others.
    """
    k = hform.k
    if w.r + w.s <= k:
        raise ConvergenceError(f"phi needs r + s > k = {k}")
    t.validate_at(z)
    z = complex(z)
    rows, polys, wts = [per.eichler_F(hform, z, sign)], [], []
    for g in group.enumerate_cosets(t.C, t.D)[1:]:
        wts.append((g.c * z + g.d) ** (-w.r) * (g.c * z.conjugate() + g.d) ** (-w.s))
        image = per.eichler_F(hform, group.mobius(g, z), sign)
        polys.append(group.act_poly(image, g, k))
        rows.append(polys[-1] * wts[-1])
    tail = _mask_tail(t, z, np.array(polys).T * np.array(wts), w.r + w.s - k + 2)
    terms = np.ascontiguousarray(np.array(rows).T)  # identity coset first
    return ra.SeriesValue(terms.sum(axis=-1), tail)


def test_phi_routes_agree_on_shared_rectangle():
    t_small = ra.TruncationParams(C=1, D=4)
    a = _phi_direct(DELTA, W, "+", 4j, t_small)
    b = ra.phi(DELTA, W, "+", 4j, t_small)
    assert np.abs(a.value - b.value).max() <= a.tail_estimate + b.tail_estimate + 1e-15


def test_phi_direct_route_floor_guard():
    with pytest.raises(PrecisionError):
        _phi_direct(DELTA, W, "+", 2j, ra.TruncationParams(C=2, D=8))


def test_phi_conjugate_swap_symmetry():
    a = ra.phi(DELTA, W, "+", 2j, T40)
    b = ra.phi(DELTA, W.swapped(), "-", 2j, T40)
    assert float(np.max(np.abs(np.conj(a.value) - b.value))) <= 1e-14


def test_coeff_decompose_degenerate_and_unit():
    out = ra.coeff_decompose(np.array([3 + 4j]), 2j, 2)
    assert out.shape == (1,) and abs(out[0] - (3 + 4j)) < 1e-15
    z = 2j
    P = np.array([math.comb(10, t) * (-z) ** (10 - t) for t in range(11)])
    vec = ra.coeff_decompose(P, z, 12)
    target = np.zeros(11)
    target[10] = 1.0
    assert float(np.max(np.abs(vec - target))) <= 1e-11


@pytest.mark.parametrize("k", [16.0, np.float64(16), 1, 0, True], ids=repr)
def test_coeff_decompose_takes_an_integer_weight_of_at_least_2(k):
    # a float equal to an integer would otherwise read the integer's
    # cached slash matrix
    ra.coeff_decompose(np.ones(15), 0.3 + 1.2j, 16)
    with pytest.raises(ValueError, match="integers|>= 2"):
        ra.coeff_decompose(np.ones(15), 0.3 + 1.2j, k)


@pytest.mark.parametrize("m", [10.0, -1, -3], ids=repr)
def test_coeff_basis_takes_a_degree_of_at_least_0(m):
    with pytest.raises(ValueError, match="integers|>= 0"):
        ra.coeff_basis(0.3 + 1.2j, m)


def test_coeff_decompose_roundtrip():
    rng = np.random.default_rng(3)
    z = 2j
    P = rng.normal(size=11) + 1j * rng.normal(size=11)
    vec = ra.coeff_decompose(P, z, 12)
    recon = sum(vec[i] * _basis_product(z, i, 10) for i in range(11))
    assert np.abs(recon - P).max() / np.abs(P).max() <= 1e-11


def _basis_product(z, i, m):
    """Ascending coefficients of (X - z)^i (X - conj z)^(m-i), by convolution."""
    factors = [[-z, 1.0]] * i + [[-np.conj(z), 1.0]] * (m - i)
    return functools.reduce(np.convolve, factors, np.ones(1, dtype=complex))


def _coeff_decompose_mp(P, z, dps=50):
    """The coefficients of P in the basis (X - z)^i (X - conj z)^(m-i) by a
    `dps`-digit solve of the monomial system, P's floats taken as exact."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        m, zz = P.size - 1, mp.mpc(z.real, z.imag)
        A = mp.matrix(m + 1, m + 1)
        for i in range(m + 1):
            col = [mp.mpc(1)]
            for root in [zz] * i + [mp.conj(zz)] * (m - i):
                col = [a - root * b for a, b in zip([mp.mpc(0)] + col, col + [mp.mpc(0)])]
            for r in range(m + 1):
                A[r, i] = col[r]
        sol = mp.lu_solve(A, mp.matrix([mp.mpc(c.real, c.imag) for c in P]))
        return np.array([complex(sol[i]) for i in range(m + 1)])


def test_coeff_decompose_of_an_eichler_integral_matches_a_50_digit_solve():
    # the inverse slash keeps the weight-16 coefficients within 1e-14 of the
    # largest, where a float64 solve of the monomial system lost up to 2.7e-11
    f = qf.cusp_basis(16)[0]
    for z in (2j, 0.5 + 1j, 0.1 + 0.12j):
        P = per.eichler_F(f, z)
        ref = _coeff_decompose_mp(P, z)
        got = ra.coeff_decompose(P, z, f.k)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_phi_coefficient_vs_closed_form():
    z = 2j
    phiv = ra.phi(DELTA, W, "+", z, T40)
    tol = max(phiv.tail_estimate, 1e-5)
    vec = ra.coeff_decompose(phiv.value, z, 12)
    for j in (0, 5, 10):
        a = complex(vec[j])
        b = ra.closed_form_phi_j(DELTA, W, "+", j, z, T40)
        assert abs(a - b) / max(1.0, abs(b)) <= tol


def test_closed_form_minus_case_conjugate_structure():
    z = 2j
    phm = ra.phi(DELTA, W, "-", z, T40)
    vec = ra.coeff_decompose(phm.value, z, 12)
    for j in (0, 4, 10):
        b = ra.closed_form_phi_j(DELTA, W, "-", j, z, T40)
        assert abs(vec[j] - b) / max(1.0, abs(b)) <= max(phm.tail_estimate, 1e-5)
        # conjugation symmetry against the plus case of swapped weights
        c = np.conj(ra.closed_form_phi_j(DELTA, W.swapped(), "+", 10 - j, z, T40))
        assert abs(b - c) == 0.0


def _closed_form_per_term(f, w, sign, z, t):
    """The closed formula for every phi(j), summed term by term over (m, n).
    The boundary term reads the moments of the Eichler integral, summed over
    the scalar recurrence's rows, against the basis polynomials of phi(j).
    The term (m, n) of phi(j) reads Lambda and c at the power e = m + n, j at
    j + n and jbar at m - j: c^-p is built by repeated multiplication, the
    powers of j and jbar once each by numpy's elementwise `**`."""
    k = f.k
    if sign == "-":
        return np.conj(_closed_form_per_term(f, w.swapped(), "+", z, t)[::-1])
    ev = ra.eisenstein_rs(w, z, t).value
    # every coset, the mirrors (c, -d) included, each with its own class
    data = group.cosets(t.C, t.D)
    cs, ds = _full_rows(data)
    jarr = cs * z + ds
    jbarr = jarr.conj()
    pref = (z - z.conjugate()) ** (2 - k)
    rows = [_primitive_row(n, k - 2, z) * complex(f.coeffs[n]) for n in range(1, f.N + 1)]
    moments, basis = np.sum(rows, axis=0), ra.coeff_basis(z, k - 2)
    lam = per.reduced_periods(f, t.C).values[:, reduced_classes(t.C)[2][cs, ds % cs]]
    cfl = cs.astype(np.float64)
    cpow = [np.ones_like(cfl)]
    for _ in range(k - 2):
        cpow.append(cpow[-1] * cfl)
    lamc = [lam[e] / cpow[k - 2 - e] for e in range(k - 1)]
    jpow = [jarr ** (-(w.r + e + 2 - k)) for e in range(k - 1)]
    jbpow = {e: jbarr ** (-(w.s + e)) for e in range(2 - k, 1)}
    out = []
    for j in range(k - 1):
        bnd = moments @ basis[:, k - 2 - j]
        total = (-1) ** j * math.comb(k - 2, j) * pref * bnd * ev
        terms = np.zeros(cfl.size, dtype=np.complex128)
        for m in range(j + 1):
            for n in range(k - 1 - j):
                alpha = (
                    per.i_power(1 - 2 * j - m - n)
                    * math.comb(k - 2, j)
                    * math.comb(j, m)
                    * math.comb(k - 2 - j, n)
                )
                terms += alpha * (lamc[m + n] * jpow[j + n] * jbpow[m - j])
        out.append(complex(total + pref * terms.sum()))
    return np.array(out)


@pytest.mark.parametrize("C", [10, 40])
@pytest.mark.parametrize("form", ["delta", "s16"])
def test_closed_form_phi_matches_the_per_term_double_sum(C, form):
    f, w = (DELTA, BiWeight(11, 9)) if form == "delta" else (qf.cusp_basis(16)[0], BiWeight(10, 12))
    t = ra.TruncationParams(C, 10 * C)
    for sign in "+-":
        for z in (2j, 0.5 + 2j, 0.3 + 1.2j):
            got = ra.closed_form_phi(f, w, sign, z, t)
            ref = _closed_form_per_term(f, w, sign, z, t)
            for j in range(f.k - 1):
                assert abs(got[j] - ref[j]) <= 1e-14 * max(1.0, abs(ref[j]))


def test_lambda_c_factors_are_the_same_bits_in_any_batch_of_classes():
    # c^(e-k+2) by repeated multiplication: every class's factors are the
    # same bits whether taken over all 7,806 classes at C = 160 or in blocks
    # of 4096 classes, as the closed form's coset pass gathers them
    f = qf.cusp_basis(16)[0]
    lam = per.reduced_periods(f, 160).values
    c = reduced_classes(160)[0].astype(np.float64)
    whole = ra._lambda_c(lam, c, f.k)
    blocks = [slice(lo, lo + 4096) for lo in range(0, c.size, 4096)]
    parts = [ra._lambda_c(lam[:, blk], c[blk], f.k) for blk in blocks]
    assert whole.tobytes() == np.concatenate(parts, axis=1).tobytes()


def test_closed_form_phi_j_is_an_entry_of_the_array():
    for sign in "+-":
        vec = ra.closed_form_phi(DELTA, BiWeight(11, 9), sign, 0.5 + 2j, T40)
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 0.0
        for j in range(DELTA.k - 1):
            assert ra.closed_form_phi_j(DELTA, BiWeight(11, 9), sign, j, 0.5 + 2j, T40) == vec[j]


def test_closed_form_one_coset_pass_per_point(monkeypatch):
    calls = []
    sums = ra._closed_form_sums

    def counted(hform, w, t, z):
        calls.append(z)
        return sums(hform, w, t, z)

    monkeypatch.setattr(ra, "_closed_form_sums", counted)
    z = 0.17 + 1.9j  # the point cache is cleared before each test
    ra.closed_form_phi_j(DELTA, W, "-", 0, z, T40)
    assert calls
    calls.clear()
    for j in range(1, DELTA.k - 1):
        ra.closed_form_phi_j(DELTA, W, "-", j, z, T40)
    assert calls == []


def test_closed_form_validates_before_the_cache():
    ra.closed_form_phi(DELTA, W, "+", 2j, T40)
    with pytest.raises(ValueError):
        ra.closed_form_phi(DELTA, W, "x", 2j, T40)
    with pytest.raises(ValueError):
        ra.closed_form_phi_j(DELTA, W, "+", 11, 2j, T40)
    with pytest.raises(ConvergenceError):
        ra.closed_form_phi(DELTA, BiWeight(6, 6), "+", 2j, T40)
    with pytest.raises(ValueError):
        ra.closed_form_phi(DELTA, W, "+", 3.0 + 2j, ra.TruncationParams(40, 100))


@pytest.mark.parametrize(
    "form, w", [(qf.eisenstein_q(12), W), (DELTA, BiWeight(6, 6))], ids=["non-cusp", "r+s=k"]
)
def test_closed_form_rejects_what_phi_rejects(form, w):
    # both validate the form and the weights through one check
    with pytest.raises(Exception) as phi_error:
        ra.phi(form, w, "+", 2j, T40)
    for sign in "+-":
        with pytest.raises(Exception) as closed_error:
            ra.closed_form_phi(form, w, sign, 2j, T40)
        assert type(closed_error.value) is type(phi_error.value)
        assert str(closed_error.value) == str(phi_error.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [0.04j, 1e-30j])
def test_closed_form_below_the_q_series_floor_is_a_precision_failure(z):
    # the closed form reads the Eichler moments, so it checks the q-series
    # floor as phi does, before any coset sum or moment: no value, no warning
    with pytest.raises(PrecisionError):
        ra.phi(DELTA, W, "+", z, T40)
    for sign in "+-":
        with pytest.raises(PrecisionError):
            ra.closed_form_phi(DELTA, W, sign, z, T40)
        with pytest.raises(PrecisionError):
            ra.closed_form_phi_j(DELTA, W, sign, 0, z, T40)


def test_phi_builds_the_coset_weights_once(monkeypatch):
    calls = []
    rs_weights = ra._rs_weights

    def counted(t, z, w):
        calls.append((t, z, w))
        return rs_weights(t, z, w)

    monkeypatch.setattr(ra, "_rs_weights", counted)
    ra.phi(DELTA, W, "+", 0.5 + 2j, T40)
    assert len(calls) == 1


def test_phi_basis_coefficient_invariance():
    # phi(i; z) is |_{r+i, s+k-2-i}-invariant
    from miint.group import automorphy, mobius

    z = 2j
    vec = ra.coeff_decompose(ra.phi(DELTA, W, "+", z, T40).value, z, 12)
    zs = mobius(S, z)
    vec_s = ra.coeff_decompose(ra.phi(DELTA, W, "+", zs, T40).value, zs, 12)
    for i in (0, 5, 10):
        pred = automorphy(S, z, BiWeight(10 + i, 10 + 10 - i)) * vec_s[i]
        assert abs(pred - vec[i]) <= 1e-10


def test_closed_form_alpha_constant():
    # every entry is bitwise the exact scalar formula, and +0 outside
    # q <= j <= p
    for k in (12, 16, 28):
        alpha = ra._closed_form_alpha(k)
        assert alpha.shape == (k - 1,) * 3 and not alpha.flags.writeable
        for j, q, p in np.ndindex(alpha.shape):
            m, n = j - q, p - j
            ref = 0j
            if q <= j <= p:
                ref = (
                    per.i_power(1 - 2 * j - m - n)
                    * math.comb(k - 2, j)
                    * math.comb(j, m)
                    * math.comb(k - 2 - j, n)
                )
            assert alpha[j, q, p].tobytes() == np.complex128(ref).tobytes()


def test_fourier_delta_modes():
    fn = lambda z: qf.eval_form(DELTA, z)
    c1 = ra.fourier_coefficient(fn, 1, 1.0, 128)
    assert abs(c1 - math.exp(-2 * math.pi)) <= 1e-10
    assert abs(ra.fourier_coefficient(fn, -1, 1.0, 128)) <= 1e-12


def test_fourier_rejects_nonperiodic():
    calls = []

    def drifting(z):
        calls.append(z)
        return z

    with pytest.raises(ValueError):
        ra.fourier_coefficient(drifting, 1, 1.0, 64)
    assert len(calls) <= 2
    with pytest.raises(ValueError):
        ra.fourier_coefficient(lambda z: 1.0, 1, 1.0, 32)


def test_fourier_evaluates_each_node_once():
    calls = []

    def fn(z):
        calls.append(z)
        return qf.eval_form(DELTA, z)

    ra.fourier_coefficient(fn, 1, 1.0, 64)
    assert len(calls) == 64 + 1  # the x = -1/2 probe is the first node


def _psi_coefficient(z):
    return complex(ra.coeff_decompose(ra.psi_series(DELTA, W, "+", z, T40).value, z, DELTA.k)[0])


@pytest.mark.parametrize("fn", [_FORM_AT, _psi_coefficient], ids=["delta", "psi"])
def test_fourier_modes_match_the_direct_trapezoid_sums(fn):
    M = 128
    xs = (2.0 * np.arange(M) - M) / (2 * M)
    vals = np.array([fn(complex(x, 1.0)) for x in xs])
    modes = ra.fourier_modes(fn, 1.0, M)
    tol = 4 * np.finfo(float).eps * np.abs(vals).sum() / M
    for l in range(-2, 4):
        assert abs(modes[l % M] - (vals * np.exp(-2j * np.pi * l * xs)).sum() / M) <= tol


def test_fourier_coefficient_reads_one_entry_of_the_modes():
    M = 128
    modes = ra.fourier_modes(_FORM_AT, 1.0, M)
    for l in (-1, 0, 1, M + 1):
        got = ra.fourier_coefficient(_FORM_AT, l, 1.0, M)
        assert np.complex128(got).tobytes() == modes[l % M].tobytes()


def _lambda(table, s, c, d):
    """Lambda_f(s, -d/c) from a reduced-class table: the class of (c, d mod c)."""
    return complex(table.values[s - 1, reduced_classes(table.C)[2][c, d % c]])


def test_kloosterman_conjugation_realness():
    # the twisted sum over d mod c of Lambda(m, -d/c) e(ld/c): conjugation
    # is reindexing (l, d) -> (-l, -d), so the sum is real
    table = per.reduced_periods(DELTA, 5)

    def twisted(c, l, m, sign):
        return sum(
            _lambda(table, m, c, sign * d) * cmath.exp(sign * 2j * math.pi * l * d / c)
            for d in range(c)
            if math.gcd(d, c) == 1
        )

    for c, l, m in [(5, 2, 6), (4, 3, 9), (3, 1, 6)]:
        K = twisted(c, l, m, 1)
        assert abs(K.imag) <= 1e-9
        assert abs(K.conjugate() - twisted(c, l, m, -1)) <= 1e-9


def test_poincare_zeroth_is_eisenstein():
    sv = ra.poincare(0, 4, 2j, T40)
    direct = qf.eval_form(qf.eisenstein_q(4, 120), 2j)
    assert abs(sv.value - direct) <= max(sv.tail_estimate, 1e-6)


def test_poincare_invariance_and_modularity():
    a = ra.poincare(1, 12, 2j, T40)
    b = ra.poincare(1, 12, 1 + 2j, T40)
    assert abs(a.value - b.value) <= 2 * a.tail_estimate
    from miint.group import automorphy, mobius

    sz = mobius(S, 2j)
    c = ra.poincare(1, 12, sz, T40)
    assert abs(c.value - automorphy(S, 2j, BiWeight(-12, 0)) * a.value) / abs(c.value) <= 1e-10


def test_poincare_rejects_low_weight():
    with pytest.raises(ConvergenceError):
        ra.poincare(0, 2, 2j, T40)


def test_second_order_G_law():
    z = 2j
    sv = ra.second_order_G(1, DELTA, 16, z, T40, "+")
    fn = lambda u: ra.second_order_G(1, DELTA, 16, u, T40, "+").value
    image = act_tensor(fn, S, BiWeight(16, 0), 12)(z) - sv.value
    pn = ra.poincare(1, 16, z, T40)
    predicted = per.period_poly(DELTA, S) * (-pn.value)
    assert np.abs(image - predicted).max() <= max(
        4 * sv.tail_estimate + pn.tail_estimate, 1e-5
    )


def test_second_order_G_translation_invariance():
    sv = ra.second_order_G(1, DELTA, 16, 2j, T40, "+")
    fn = lambda u: ra.second_order_G(1, DELTA, 16, u, T40, "+").value
    image = act_tensor(fn, T, BiWeight(16, 0), 12)(2j)
    assert np.abs(image - sv.value).max() <= max(2 * sv.tail_estimate, 1e-12)


def test_second_order_G_weight_precondition():
    with pytest.raises(ConvergenceError):
        ra.second_order_G(1, DELTA, 12, 2j, T40)


def test_poincare_zeroth_is_holomorphic_eisenstein_bitwise():
    # the two weight builders of the coset-sum kernel agree exactly at n = 0
    for k in (4, 12):
        for z in (2j, 0.3 + 1.2j):
            p = ra.poincare(0, k, z, T40)
            e = ra.eisenstein_rs(BiWeight(k, 0), z, T40)
            assert p.value == e.value
            assert p.tail_estimate == e.tail_estimate


def test_second_order_G_reduces_to_psi():
    g0 = ra.second_order_G(0, DELTA, 16, 2j, T40, "+")
    ps = ra.psi_series(DELTA, BiWeight(16, 0), "+", 2j, T40)
    assert np.array_equal(g0.value, ps.value)


def test_poincare_and_G_self_convergence():
    a = ra.poincare(1, 12, 2j, T40)
    b = ra.poincare(1, 12, 2j, T40.scaled(2))
    assert abs(a.value - b.value) <= a.tail_estimate
    a4 = ra.poincare(0, 4, 2j, T40)
    b4 = ra.poincare(0, 4, 2j, T40.scaled(2))
    assert abs(a4.value - b4.value) <= a4.tail_estimate
    ga = ra.second_order_G(1, DELTA, 16, 2j, T40, "+")
    gb = ra.second_order_G(1, DELTA, 16, 2j, T40.scaled(2), "+")
    assert np.abs(ga.value - gb.value).max() <= ga.tail_estimate


def test_series_determinism():
    a = ra.psi_series(DELTA, W, "+", 2j, T40)
    ra._point_value.cache_clear()  # b is summed again
    b = ra.psi_series(DELTA, W, "+", 2j, T40)
    assert np.array_equal(a.value, b.value)


_ENTRY_POINTS = {
    "eisenstein_rs": lambda z: ra.eisenstein_rs(W, z, T40),
    "psi_series": lambda z: ra.psi_series(DELTA, W, "+", z, T40),
    "phi": lambda z: ra.phi(DELTA, W, "+", z, T40),
    "closed_form_phi": lambda z: ra.closed_form_phi(DELTA, W, "+", z, T40),
    "closed_form_phi_j": lambda z: ra.closed_form_phi_j(DELTA, W, "-", 3, z, T40),
    "poincare": lambda z: ra.poincare(1, 12, z, T40),
    "second_order_G": lambda z: ra.second_order_G(1, DELTA, 16, z, T40),
    "coeff_decompose": lambda z: ra.coeff_decompose(np.eye(11)[0], z, 12),
    "coeff_basis": lambda z: ra.coeff_basis(z, 10),
    "eval_form": lambda z: qf.eval_form(DELTA, z),
    "eval_form_anywhere": lambda z: qf.eval_form_anywhere(DELTA, z),
    "eichler_F": lambda z: per.eichler_F(DELTA, z),
    "iterated_F": lambda z: iterated_F(IteratedIntegrand((DELTA,)), z),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "z",
    [-1j, 0.5 + 0j, complex(math.nan, 2.0), complex(0.0, math.inf)],
    ids=["lower", "real", "nan", "inf"],
)
def test_series_reject_z_outside_upper_half_plane(name, z):
    with pytest.raises(ValueError, match="upper half-plane|finite"):
        _ENTRY_POINTS[name](z)


def test_period_and_lambda_tables_share_one_cocycle_pass():
    # a truncation length no other test uses, so neither table is cached yet
    f = qf.delta_q(37)
    misses = per.reduced_periods.cache_info().misses
    ra._period_tables(f, 10, 100)
    per.reduced_periods(f, 10).values[:, group.cosets(10, 100).cls]
    assert per.reduced_periods.cache_info().misses == misses + 1


def test_coset_tables_match_per_coset_lookups():
    C, D = 5, 25
    data = group.cosets(C, D)
    R = ra._period_tables(DELTA, C, D)[0]
    table = per.reduced_periods(DELTA, C)
    lam = table.values[:, data.cls]
    for i, (c, d) in enumerate(zip(data.cs.tolist(), data.ds.tolist())):
        direct = per.period_poly(DELTA, per.complete_row(c, d))
        assert np.max(np.abs(R[:, i] - direct)) <= 1e-10 * max(1.0, np.abs(direct).max())
        assert lam[:, i].tolist() == [_lambda(table, s, c, d) for s in range(1, DELTA.k)]


def _scaled_ints(xs):
    """The floats xs as exact integers x 2^s, with 2^s their common
    denominator, and 2^s: int / 2^s is then the correctly rounded quotient,
    as float(Fraction) is."""
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios], scale


def _exact_column(table, c, d):
    """The period polynomial of the coset (c, d) in exact arithmetic
    (integers over a common power of two), for the real and the imaginary
    parts: the translation r(gamma T^n; X) = r(gamma; X + n), n = d // c, of
    its class row, or for d < 0 that of its mirror (c, -d), reflected by
    r(eps g eps; X) = -conj r(g; -X).  Each coefficient comes with the sum
    of the magnitudes of its exact terms, the shift's condition number."""
    m = abs(d)
    row = table.periods[reduced_classes(table.C)[2][c, m % c]]
    K = row.size
    sign = (-1.0) ** (np.arange(K) + 1) if d < 0 else np.ones(K)
    out = {}
    for part, sgn in (("real", sign), ("imag", -sign if d < 0 else sign)):
        p, scale = _scaled_ints(getattr(row, part).tolist())
        terms = [[math.comb(e, t) * (m // c) ** (e - t) * p[e] for e in range(t, K)] for t in range(K)]
        exact = np.array([sum(x) / scale for x in terms])
        out[part] = sgn * exact, np.array([sum(abs(y) for y in x) / scale for x in terms])
    return out


def test_period_table_is_the_exact_translation_of_its_class_rows():
    # each column of the full table, rebuilt from the stored half by the
    # reflection, is its coset's class row translated, reflected for a
    # mirror (`_exact_column`), on the outer |d| band and every 97th coset.
    # Each coefficient lies within 4 K eps of the sum of the magnitudes of
    # its exact terms, the shift's condition number: the stored shifts are
    # n >= 0, and a short shift towards the cusp 0, such as (65, -2) from
    # the class (65, 63), which cancels about 2^(k-2) in that sum, is not
    # taken
    C, D = 80, 800
    data = group.cosets(C, D)
    R = _full_table(ra._period_tables(DELTA, C, D)[0], data)
    cs, ds = _full_rows(data)
    table = per.reduced_periods(DELTA, C)
    K, eps = DELTA.k - 1, np.finfo(float).eps
    sample = (np.abs(ds) > D - 5) | (np.arange(cs.size) % 97 == 0)
    for i in np.flatnonzero(sample).tolist():
        for part, (exact, size) in _exact_column(table, int(cs[i]), int(ds[i])).items():
            err = np.abs(getattr(R[:, i], part) - exact)
            assert (err <= 4 * K * eps * size).all()


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_a_coset_near_the_cusp_zero_is_its_mirror_reflected(form):
    # a coset (c, -d), 0 < d < c, such as (65, -2), is read as the mirror of
    # the stored (c, d), a class row with no shift, not as the class
    # (c, c - d) shifted by -1, which cancels about 2^(k-2): every such
    # column of the full table lies within 4 K eps of its largest
    # coefficient of the reflection of the exact translation of its
    # mirror's class row, by n = 0, so the class row itself
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    C, D = 80, 800
    data = group.cosets(C, D)
    R = _full_table(ra._period_tables(f, C, D)[0], data)
    cs, ds = _full_rows(data)
    K, eps = f.k - 1, np.finfo(float).eps
    near = np.flatnonzero((ds < 0) & (-ds < cs))
    assert (65, -2) in set(zip(cs[near].tolist(), ds[near].tolist()))
    assert near.size == sum(1 for c in range(2, C + 1) for d in range(1, c) if math.gcd(c, d) == 1)
    rows = per.reduced_periods(f, C).periods[reduced_classes(C)[2][cs[near], -ds[near]]].T
    ref = ((-1.0) ** (np.arange(K) + 1))[:, None] * rows.conj()  # -conj r(g; -X)
    assert (np.abs(R[:, near] - ref).max(axis=0) <= 4 * K * eps * np.abs(ref).max(axis=0)).all()


@pytest.mark.parametrize("form", ["delta", "s16", "s24.1", "s24.2"])
@pytest.mark.parametrize("C, D, every", [(5, 50, 1), (80, 800, 257)])
def test_the_mirrored_columns_are_the_euclid_chains_of_the_mirrors(form, C, D, every):
    # the reflection r(eps g eps; X) = -conj r(g; -X), eps = diag(-1, 1),
    # pinned against a route that shares no code with the table: each
    # mirrored column of the full table against `period_poly` of the
    # completed row (c, -d), peeled down its own Euclid chain; every coset
    # at C = 5, every 257th at C = 80, on eigenforms and non-eigenforms
    s24 = qf.cusp_basis(24)
    f = {"delta": DELTA, "s16": qf.cusp_basis(16)[0], "s24.1": s24[0], "s24.2": s24[1]}[form]
    data = group.cosets(C, D)
    R = _full_table(ra._period_tables(f, C, D)[0], data)
    cs, ds = _full_rows(data)
    mirrors = np.flatnonzero(ds < 0)
    assert mirrors.size == data.cs.size - 1
    for i in mirrors[::every].tolist():
        direct = per.period_poly(f, per.complete_row(int(cs[i]), int(ds[i])))
        assert np.max(np.abs(R[:, i] - direct)) <= 1e-10 * max(1.0, np.abs(direct).max())


@pytest.mark.parametrize("C", [40, 80])
def test_period_table_holds_the_half_of_the_cosets(C):
    # (k - 1) x n_H columns, n_H = (n_cosets + 1) / 2: the cosets with
    # d >= 0; a mirror (c, -d) is read by the reflection
    c, d = np.ogrid[1 : C + 1, -10 * C : 10 * C + 1]
    n_cosets = int((np.gcd(c, d) == 1).sum())
    for f in (DELTA, qf.cusp_basis(16)[0]):
        R, Rmag = ra._period_tables(f, C, 10 * C)
        assert R.shape == Rmag.shape == (f.k - 1, (n_cosets + 1) // 2)
        assert n_cosets % 2 == 1


def test_coeff_basis_columns_are_basis_products():
    m = 10
    for z in (2j, 0.5 + 2j, -0.3 + 1.2j):
        A = ra.coeff_basis(z, m)
        for i in range(m + 1):
            assert np.allclose(A[:, i], _basis_product(z, i, m), rtol=1e-14, atol=1e-14)


def test_lambda_table_is_the_period_table():
    table = per.reduced_periods(DELTA, 7)
    assert table.periods is per.reduced_periods(DELTA, 7).periods
    assert not table.values.flags.writeable
    with pytest.raises(ValueError):
        table.values[0, 0] = 0.0


def _fresh_class_tops(monkeypatch):
    """A fresh cache of the class top rows, shared by the period table and
    the coset table: its misses count the builds."""
    fresh = functools.lru_cache(group.class_tops.__wrapped__)
    for module in (group, per):
        monkeypatch.setattr(module, "class_tops", fresh)
    return fresh


def test_phi_builds_no_top_rows(monkeypatch):
    # a rectangle no other test uses, so its coset data is built here; phi
    # may read the class top rows (the Euclid parents of the period table)
    # but builds no coset top rows
    C, D = 6, 61
    tops = _fresh_class_tops(monkeypatch)
    ra.phi(DELTA, W, "+", 2j, ra.TruncationParams(C, D))
    assert "tops" not in vars(group.cosets(C, D))
    ra.poincare(1, 12, 2j, ra.TruncationParams(C, D))
    assert "tops" in vars(group.cosets(C, D))
    # the class top rows are built once for C, over both calls
    assert tops.cache_info().misses == 1


@pytest.mark.parametrize("C, D, classes", [(40, 400, 490), (80, 800, 1966)])
def test_top_rows_are_the_completed_rows(monkeypatch, C, D, classes):
    data = group.cosets(C, D)
    a, b = data.tops
    rows = [group.complete_row(c, d) for c, d in zip(data.cs.tolist(), data.ds.tolist())]
    assert a.tolist() == [g.a for g in rows]
    assert b.tolist() == [g.b for g in rows]
    tops = _fresh_class_tops(monkeypatch)
    fresh = group.cosets.__wrapped__(C, D).tops  # a fresh table, so its top rows are built here
    assert all(np.array_equal(x, y) for x, y in zip(fresh, (a, b)))
    # one build of the top rows of every class
    assert tops.cache_info().misses == 1 and tops(C)[0].size == classes


def test_coset_sum_reduction_within_floor():
    # every coefficient of psi and G, of either sign, lies within the tail's
    # 16-eps floor of the exactly rounded sum of the same terms, over the
    # full table rebuilt from the stored half by the reflection
    for C in (1, 3, 7, 8, 40):
        t, z = ra.TruncationParams(C, 10 * C), complex(0.3, 1.3)
        data = group.cosets(t.C, t.D)
        R = _full_table(ra._period_tables(DELTA, t.C, t.D)[0], data)
        # the weights are workspace views, which every series call
        # overwrites: the full-order gathers are copies
        weights = {w: _full_weights(ra._rs_weights(t, z, w)[0], data) for w in (BiWeight(7, 7), BiWeight(10, 8))}
        holo = _full_weights(ra._holo_weights(t, z, 1, 16)[0], data)
        for sign, table in (("+", R), ("-", R.conj())):
            got = {w: ra.psi_series(DELTA, w, sign, z, t).value for w in weights}
            got["G"] = ra.second_order_G(1, DELTA, 16, z, t, sign).value
            for key, wts in (*weights.items(), ("G", holo)):
                terms = table * wts
                bound = 16 * np.finfo(float).eps * (np.abs(table) * np.abs(wts)).sum(axis=-1)
                for row, value, floor in zip(terms, got[key], bound):
                    exact = complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist()))
                    assert abs(value - exact) <= floor


def _at_offset(a, k):
    """A copy of `a` whose data starts k * 8 bytes past a 64-byte boundary."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    lo = (-buf.ctypes.data) % 64 + 8 * k
    out = buf[lo : lo + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


@pytest.mark.parametrize("w", [BiWeight(10, 10), BiWeight(11, 9)], ids=["r=s", "r!=s"])
def test_coset_sum_bits_do_not_depend_on_buffer_offsets(w):
    # BLAS may pick its kernel by alignment: a psi value and its tail keep
    # their bits with the weights and the tables at any 8-byte offset
    t, z = T40, complex(0.3, 1.4)
    R, Rmag = ra._period_tables(DELTA, t.C, t.D)
    rs, mag = (a.copy() for a in ra._rs_weights(t, z, w))
    w0 = w.r + w.s - DELTA.k + 2
    for sign in "+-":
        sv = ra.psi_series(DELTA, w, sign, z, t)
        for k in range(1, 8):
            # fresh copies: the kernel conjugates one row of the weights
            args = (_at_offset(a, k) for a in (rs, mag))
            tables = (_at_offset(R, k), _at_offset(Rmag, k))
            value, tail = ra._coset_sum(t, z, *args, w0, *tables, minus=sign == "-")
            assert value.tobytes() == sv.value.tobytes()
            assert tail == sv.tail_estimate


def test_swapped_weights_are_exact_conjugates():
    for r, s in [(10, 10), (11, 9), (8, 6)]:
        for z in (1j, 2j, 0.5 + 2j, 0.3 + 1.2j):
            a = ra.eisenstein_rs(BiWeight(r, s), z, T40)
            b = ra.eisenstein_rs(BiWeight(s, r), z, T40)
            assert b.value == a.value.conjugate()
            assert b.tail_estimate == a.tail_estimate
            p = ra.psi_series(DELTA, BiWeight(r, s), "+", z, T40)
            m = ra.psi_series(DELTA, BiWeight(s, r), "-", z, T40)
            assert np.array_equal(m.value, np.conj(p.value))
            assert m.tail_estimate == p.tail_estimate
    assert ra.eisenstein_rs(BiWeight(7, 7), 0.3 + 1.2j, T40).value.imag == 0


def _full_order(data):
    """Every coset as a slot of the stored half: each row of the coset table
    followed by its mirror (c, -d), (1, 0) alone, the order of
    `enumerate_cosets`; the positions in the half and whether the slot is
    the mirror's."""
    n = data.cs.size
    pos, mirror = np.repeat(np.arange(n), 2), np.tile([False, True], n)
    keep = ~(mirror & (data.ds[pos] == 0))
    return pos[keep], mirror[keep]


def _full_rows(data):
    """The bottom rows (c, d) of every coset, in `_full_order`."""
    pos, mirror = _full_order(data)
    return data.cs[pos], np.where(mirror, -data.ds[pos], data.ds[pos])


def _full_table(R, data):
    """The period table of every coset, in `_full_order`, rebuilt from the
    stored half by the reflection r(eps g eps; X) = -conj r(g; -X): a
    mirror's coefficient i is its row's, conjugated and signed (-1)^(i+1)."""
    pos, mirror = _full_order(data)
    sign = ((-1.0) ** (np.arange(R.shape[0]) + 1))[:, None]
    return np.where(mirror, sign * R[:, pos].conj(), R[:, pos])


def _full_weights(w, data):
    """The two rows of weights (cosets, mirrors) as one array in
    `_full_order`, a copy."""
    pos, mirror = _full_order(data)
    return w[mirror.astype(int), pos]


def _fold(full, data):
    """A full-order array back in the two rows (..., 2, n_H) of the kernel,
    the mirror slot of (1, 0) zero."""
    pos, mirror = _full_order(data)
    out = np.zeros(full.shape[:-1] + (2, data.cs.size), dtype=full.dtype)
    out[..., mirror.astype(int), pos] = full
    return out


def _mask_tail(t, z, terms, w0, identity=None):
    """Reference copy of the kernel's tail as a formula over the full term
    array, in `_full_order`: magnitudes of every term, a coset's and its
    mirror's added, shells selected by masks."""
    data = group.cosets(t.C, t.D)
    C, D, x = t.C, t.D, complex(z).real
    pair = np.abs(_fold(terms, data))
    mags = pair[..., 0, :] + pair[..., 1, :]
    band_c = max(1, min(8, C))
    shell_avg = mags[..., data.cs > C - band_c].sum(axis=-1) / band_c
    ctail = 2.0 * shell_avg * C / (w0 - 2.0)
    bw = min(max(2 * C, 8), D)
    band_sum = mags[..., np.abs(data.ds) > D - bw].sum(axis=-1)
    dtail = 2.0 * band_sum * max(D - C * abs(x), 1.0) / (bw * (w0 - 1.0))
    extra = 1.0 if identity is not None else 0.0
    floor = 16.0 * np.finfo(float).eps * (float(np.max(mags.sum(axis=-1))) + extra)
    return float(np.max(ctail + dtail)) + floor


def _table_sum(table, w, data):
    """The full table times the full weights as two BLAS products, over the
    stored cosets and over their mirrors, each at its row's slot."""
    pair, wts = _fold(table, data), _fold(w, data)
    return sum(np.ascontiguousarray(pair[:, i]) @ wts[i] for i in (0, 1))


def _assert_table_tail(got, ref):
    # |R| |w| against |R w|: a few ulps per term
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("x", [0.0, -0.5])
@pytest.mark.parametrize("C", [1, 3, 7, 8, 40])
def test_coset_sum_matches_the_full_term_array(C, x):
    # the kernel gives the values of the full table, rebuilt from the stored
    # half by the reflection, times the full weights, as one BLAS product
    # over the stored cosets and one over their mirrors, bitwise ('-': the
    # table conj R), and the tail of the mask formula over the full product
    # array; the public psi, G, E and P_n are those sums at x >= 0, and at
    # x < 0 the images of their values at -conj z, bitwise
    t, z, w = ra.TruncationParams(C, 10 * C), complex(x, 1.3), BiWeight(10, 8)
    data = group.cosets(C, 10 * C)
    R = _full_table(ra._period_tables(DELTA, C, 10 * C)[0], data)
    # the weights are workspace views, which every series call overwrites:
    # the full-order gathers are copies
    rs = _full_weights(ra._rs_weights(t, z, w)[0], data)
    holo = _full_weights(ra._holo_weights(t, z, 1, 16)[0], data)
    w0 = w.r + w.s - DELTA.k + 2
    mirror = complex(-x, 1.3) if x < 0 else None
    signs = (-1.0) ** np.arange(1, DELTA.k)  # psi(-conj z; X) = -conj psi(z; -X)
    for sign, table in (("+", R), ("-", R.conj())):
        value, tail = ra._psi_sum(t, z, DELTA, w, sign == "-")
        assert np.array_equal(value, _table_sum(table, rs, data))
        _assert_table_tail(tail, _mask_tail(t, z, table * rs, w0))
        sv = ra.psi_series(DELTA, w, sign, z, t)
        if mirror is not None:
            at = ra.psi_series(DELTA, w, sign, mirror, t)
            value, tail = signs * at.value.conj(), at.tail_estimate
        assert _u64(sv.value) == _u64(value)
        assert _u64(sv.tail_estimate) == _u64(tail)
        value, tail = ra._second_order_sum(t, z, 1, DELTA, 16, sign == "-")
        assert np.array_equal(value, _table_sum(table, holo, data))
        _assert_table_tail(tail, _mask_tail(t, z, table * holo, 16 - DELTA.k + 2))
        g = ra.second_order_G(1, DELTA, 16, z, t, sign)
        if mirror is not None:
            at = ra.second_order_G(1, DELTA, 16, mirror, t, sign)
            value, tail = signs * at.value.conj(), at.tail_estimate
        assert _u64(g.value) == _u64(value)
        assert _u64(g.tail_estimate) == _u64(tail)
    value, tail = ra._eisenstein_sum(t, z, w)
    assert value == 1.0 + _fold(rs, data).sum()
    assert tail == _mask_tail(t, z, rs, w.r + w.s, identity=1.0)
    ev = ra.eisenstein_rs(w, z, t)
    if mirror is not None:  # E(-conj z) = conj E(z)
        at = ra.eisenstein_rs(w, mirror, t)
        value, tail = np.conj(at.value), at.tail_estimate
    assert _u64(ev.value) == _u64(value)
    assert _u64(ev.tail_estimate) == _u64(tail)
    holo = _full_weights(ra._holo_weights(t, z, 1, 12)[0], data)
    value, tail = ra._poincare_sum(t, z, 1, 12)
    identity = cmath.exp(2j * math.pi * z)
    assert value == identity + _fold(holo, data).sum()
    assert tail == _mask_tail(t, z, holo, 12, identity=identity)
    pn = ra.poincare(1, 12, z, t)
    if mirror is not None:  # P_n(-conj z) = conj P_n(z)
        at = ra.poincare(1, 12, mirror, t)
        value, tail = np.conj(at.value), at.tail_estimate
    assert _u64(pn.value) == _u64(value)
    assert _u64(pn.tail_estimate) == _u64(tail)


def _u64(x):
    """The float64 bit patterns of a float, a complex or an array of them."""
    return np.array(x).reshape(-1).view(np.uint64).tolist()


@functools.lru_cache(maxsize=2)
def _sweep_table(form):
    """A form and its full period table at the sweep's rectangle, C=40, D=400."""
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    return f, _full_table(ra._period_tables(f, 40, 400)[0], group.cosets(40, 400))


@pytest.mark.parametrize("dr, ds", [(3, 5), (5, 3), (4, 4), (2, 6)])
@pytest.mark.parametrize("form", ["delta", "s16"])
def test_the_point_path_bit_for_bit_at_the_sweep_rectangle(form, dr, ds):
    # as uint64 bit patterns, so that the signs of zeros count, at weights
    # (k/2 + dr, k/2 + ds), both signs, on the axis (exact zeros) and off it:
    # E and psi against the full term array ('-': the conjugate of the sum
    # over the conjugate weights, whose exact zeros read -0.0), phi against
    # psi + F E assembled as polynomials (from zero, so +0.0) and its tail
    # against its parts
    (f, R), t = _sweep_table(form), T40
    data, w = group.cosets(t.C, t.D), BiWeight(f.k // 2 + dr, f.k // 2 + ds)
    w0 = w.r + w.s - f.k + 2
    for z in (1.37j, complex(0.3, 1.37)):
        rs = _full_weights(ra._rs_weights(t, z, w)[0], data)
        ev = ra.eisenstein_rs(w, z, t)
        assert _u64(ev.value) == _u64(1.0 + _fold(rs, data).sum())
        assert _u64(ev.tail_estimate) == _u64(_mask_tail(t, z, rs, w.r + w.s, identity=1.0))
        ftail = qf.eval_tail_bound(f, z.imag) / (2 * math.pi)
        for sign, table in (("+", R), ("-", R.conj())):
            psi = ra.psi_series(f, w, sign, z, t)
            ref = _table_sum(R, rs, data) if sign == "+" else _table_sum(R, rs.conj(), data).conj()
            assert _u64(psi.value) == _u64(ref)
            _assert_table_tail(psi.tail_estimate, _mask_tail(t, z, table * rs, w0))
            F, got = per.eichler_F(f, z, sign), ra.phi(f, w, sign, z, t)
            assert _u64(got.value) == _u64(np.zeros_like(F) + psi.value + F * ev.value)
            tail = psi.tail_estimate + np.abs(F).max() * ev.tail_estimate + abs(ev.value) * ftail
            assert _u64(got.tail_estimate) == _u64(tail)


@pytest.mark.parametrize("C, D", [(3, 5), (8, 16)])
def test_coset_sum_when_the_d_band_covers_every_d(C, D):
    # D <= 2C lies outside what `validate_at` admits, so the kernel is called
    # directly, with weights built without validation
    t, z = ra.TruncationParams(C, D), complex(-0.5, 1.3)
    data = group.cosets(C, D)
    cuts = data.cuts
    assert list(range(cuts[0], cuts[2])) == np.flatnonzero(data.ds != 0).tolist()
    cs, ds = _full_rows(data)
    j = cs * z + ds
    wts = j**-7 * np.conj(j) ** -5
    pair = _fold(wts, data)
    mags = np.abs(pair)
    mag = mags[0] + mags[1]
    R, Rmag = ra._period_tables(DELTA, C, D)
    full = _full_table(R, data)
    # a copy of the weights: the table sum conjugates one row in place
    value, tail = ra._coset_sum(t, z, pair.copy(), mag, 4, R, Rmag)
    assert np.array_equal(value, _table_sum(full, wts, data))
    _assert_table_tail(tail, _mask_tail(t, z, full * wts, 4))
    value, tail = ra._coset_sum(t, z, pair, mag, 12, identity=1.0)
    assert value == 1.0 + pair.sum()
    assert tail == _mask_tail(t, z, wts, 12, identity=1.0)


def test_period_mags_build_allocates_no_second_table():
    # with the class rows and the coset table warm, building the period table
    # and its magnitudes allocates the two tables plus at most two n-sized
    # buffers (and a few headers)
    f, C, D = qf.cusp_basis(16)[0], 80, 800
    per.reduced_periods(f, C), group.cosets(C, D)
    tracemalloc.start()
    try:
        R, mags = ra._period_tables.__wrapped__(f, C, D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= R.nbytes + mags.nbytes + 2 * mags[0].nbytes + 4096
    assert np.array_equal(mags, np.abs(R))


@pytest.mark.parametrize("C", [3, 40])
def test_weights_are_the_automorphy_factors_of_both_rows(C):
    # off the imaginary axis, where (r, s) and (s, r) differ: the weights of
    # the cosets (c, d) and of their mirrors (c, -d) against numpy's powers
    # of cz +- d, the holomorphic ones with the mirrors' completed top rows;
    # the mirror of (1, 0) weighs zero, and the magnitudes are |w+| + |w-|
    t, z = ra.TruncationParams(C, 10 * C), complex(0.3, 1.2)
    data = group.cosets(t.C, t.D)
    j = np.stack([data.cs * z + data.ds, data.cs * z - data.ds])
    mirrors = [group.complete_row(c, -d) for c, d in zip(data.cs.tolist(), data.ds.tolist())]
    a, b = data.tops
    gz = np.stack([(a * z + b) / j[0], np.array([g.a * z + g.b for g in mirrors]) / j[1]])

    def check(weights, ref):
        w, mag = weights
        ref[1, data.ds == 0] = 0.0
        assert np.all(np.abs(w - ref) <= 1e-13 * np.abs(ref))
        assert np.array_equal(mag, np.abs(w[0]) + np.abs(w[1]))

    for r, s in ((11, 9), (9, 11), (10, 10), (4, 0)):
        check(ra._rs_weights(t, z, BiWeight(r, s)), j**-r * np.conj(j) ** -s)
    check(ra._holo_weights(t, z, 2, 12), np.exp(4j * np.pi * gz) * j**-12)


def test_ipow_is_conjugate_exact_and_accurate():
    t = ra.TruncationParams(40, 400)
    for z in (2j, 0.3 + 1.5j, -0.45 + 1.1j):
        j = ra._jarray(t, z).copy()
        for e in range(1, 25):
            p = ra._ipow(j, e, np.empty_like(j), np.empty_like(j)).copy()
            conj = j.conj()
            assert np.array_equal(ra._ipow(conj, e, np.empty_like(j), np.empty_like(j)), p.conj())
            # the power buffer may be the base itself, as the weights use it
            assert np.array_equal(ra._ipow(conj, e, conj, np.empty_like(j)), p.conj())
            ref = j**e
            assert np.all(np.abs(p - ref) <= 4 * e * np.finfo(float).eps * np.abs(ref))


@pytest.mark.parametrize("C", [1, 7, 40])
def test_jbar_is_the_conjugate_of_j(C):
    # cs conj(z) + ds has the real part of cs z + ds and its imaginary part
    # negated exactly, so the closed form builds j-bar by conjugation, and
    # the r > s weights take it as the j array at conj z; and the closed form
    # forms j = cs z + ds per block from the workspace's float coset rows,
    # bitwise the array of `_jarray`
    t, data = ra.TruncationParams(C, 10 * C), group.cosets(C, 10 * C)
    for z in (2j, 0.3 + 1.5j, -0.45 + 1.1j):
        jbar = ra._jarray(t, z.conjugate()).copy()
        j = ra._jarray(t, z)
        assert jbar.view(np.uint64).tolist() == j.conj().view(np.uint64).tolist()
        ws = ra._workspace(t.C, t.D)
        # row 0 the cosets (c, d), row 1 their mirrors (c, -d)
        for row, sgn in ((j[0], 1.0), (j[1], -1.0)):
            assert np.array_equal(row, data.cs * z + sgn * data.ds)
            assert np.array_equal(row, ws.cs * z + sgn * ws.ds)
            assert np.array_equal(row.conj(), data.cs * z.conjugate() + sgn * data.ds)


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_warm_series_allocate_under_half_the_period_table(form):
    # the kernel reads the cached table and its magnitudes in BLAS products:
    # a warm call allocates n-sized buffers, not a (k-1) x n term array
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    t, w = ra.TruncationParams(80, 800), BiWeight(f.k // 2 + 4, f.k // 2 + 4)
    table_bytes = ra._period_tables(f, t.C, t.D)[0].nbytes
    for series in (ra.psi_series, ra.phi):
        series(f, w, "+", 2j, t)
        tracemalloc.start()
        try:
            series(f, w, "+", 0.3 + 1.5j, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 2


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_warm_series_allocate_under_one_coset_array(form):
    # the weights, their magnitudes and the powering's square live in the
    # rectangle's workspace: a warm call allocates less than one n-sized
    # complex array
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    t = ra.TruncationParams(80, 800)
    n = group.cosets(t.C, t.D).cs.size
    for w in (BiWeight(f.k // 2 + 4, f.k // 2 + 4), BiWeight(f.k // 2 + 5, f.k // 2 + 3)):
        for series in (ra.psi_series, ra.phi):
            for sign in "+-":
                series(f, w, sign, 2j, t)
                tracemalloc.start()
                try:
                    series(f, w, sign, 0.3 + 1.5j, t)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 16 * n


def test_closed_form_pass_allocates_at_most_4_mib():
    # with the tables built, one coset pass of the closed form allocates its
    # (k-1) x block buffers once, not fresh term arrays per block
    f, t, z = qf.cusp_basis(16)[0], ra.TruncationParams(80, 800), 0.3 + 1.2j
    w = BiWeight(12, 12)
    ra.phi(f, w, "+", z, t)  # the coset table, the workspace and the period tables
    per.reduced_periods(f, t.C).values
    tracemalloc.start()
    try:
        ra._closed_form_sums(f, w, t, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("w", [BiWeight(10, 10), BiWeight(11, 9), BiWeight(8, 12)], ids=str)
def test_phi_is_psi_plus_F_times_E_bitwise(w):
    # phi shares its coset weights between psi and E: the '-' sign's
    # conjugation of them must not reach E
    for sign in "+-":
        for z in (2j, 0.3 + 1.4j):
            got = ra.phi(DELTA, w, sign, z, T40)
            psi, ev = ra.psi_series(DELTA, w, sign, z, T40), ra.eisenstein_rs(w, z, T40)
            F = per.eichler_F(DELTA, z, sign)
            assert np.array_equal(got.value, psi.value + F * ev.value)
            ftail = qf.eval_tail_bound(DELTA, z.imag) / (2 * math.pi)
            tail = psi.tail_estimate + np.abs(F).max() * ev.tail_estimate + abs(ev.value) * ftail
            assert got.tail_estimate == tail


def _bits(series, w, sign, z, t):
    """The bits of a value and tail summed afresh, not read from the point
    cache: what the workspace and the calls before it leave must not show."""
    ra._point_value.cache_clear()
    sv = series(DELTA, w, sign, z, t)
    return sv.value.tobytes(), sv.tail_estimate


def _in_a_new_thread(fn):
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


@pytest.mark.parametrize("w", [BiWeight(10, 10), BiWeight(11, 9)], ids=["r=s", "r!=s"])
@pytest.mark.parametrize("series", [ra.psi_series, ra.phi], ids=["psi", "phi"])
def test_a_value_does_not_depend_on_the_calls_before_it(series, w):
    # a point computed first (in a new thread, so with no workspace yet) has
    # the value and tail it has after another z, after the other sign, after
    # a call at C=80 and after the holomorphic weights
    z, other = 0.3 + 1.4j, -0.2 + 1.1j
    for sign in "+-":
        first = _in_a_new_thread(lambda: _bits(series, w, sign, z, T40))
        before = (
            lambda: series(DELTA, w, sign, other, T40),
            lambda: series(DELTA, w, "-" if sign == "+" else "+", z, T40),
            lambda: series(DELTA, w, sign, z, ra.TruncationParams(80, 800)),
            lambda: ra.poincare(1, 12, other, T40),
        )
        for call in before:
            call()
            assert _bits(series, w, sign, z, T40) == first


def test_threads_keep_their_own_workspace():
    # two threads evaluating interleaved grids at one rectangle, switched
    # often, get the values of a single thread bitwise
    w = BiWeight(11, 9)
    grids = [[complex(x / 6, 1.2) for x in range(6)], [complex(x / 6 - 0.4, 1.7) for x in range(6)]]
    alone = [[_bits(s, w, "-", z, T40) for z in zs for s in (ra.phi, ra.psi_series)] for zs in grids]
    barrier, got = threading.Barrier(2, timeout=60), [[], []]

    def run(i):
        for z in grids[i]:
            for series in (ra.phi, ra.psi_series):
                barrier.wait()
                got[i].append(_bits(series, w, "-", z, T40))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == alone
