import cmath
import struct

import numpy as np
import pytest

from miint.errors import ConvergenceError
from miint import maass as ma
from miint import periods as per
from miint import qforms as qf
from miint import raseries as ra
from miint.group import BiWeight, S, T

DELTA = qf.delta_q(120)
T40 = ra.TruncationParams()
W = BiWeight(10, 10)
Z = 2j


def _derivative(f, z):
    """d/dz of the q-series of f at z, term by term: 2 pi i sum n a(n) q^n."""
    df = qf.QExpansion(f.k + 2, tuple(n * c for n, c in enumerate(f.coeffs)))
    return 2j * cmath.pi * qf.eval_form(df, z)


def test_raising_on_power_of_y():
    fn = lambda u: complex(u).imag ** 3
    assert abs(ma.maass_d(fn, 5, Z) - 8 * Z.imag**3) <= 1e-7
    assert abs(ma.maass_dbar(fn, 4, Z) - 7 * Z.imag**3) <= 1e-7


def test_raising_on_holomorphic_form():
    fn = lambda u: qf.eval_form(DELTA, u)
    target = 2j * Z.imag * _derivative(DELTA, Z) + 7 * fn(Z)
    assert abs(ma.maass_d(fn, 7, Z) - target) <= 1e-7


def test_constant_gives_subscript():
    assert abs(ma.maass_d(lambda u: 1.0 + 0j, 9, Z) - 9) == 0.0


def test_lowering_kills_holomorphic():
    fn = lambda u: qf.eval_form(DELTA, u)
    assert abs(ma.maass_dbar(fn, 7, Z) - 7 * fn(Z)) <= 1e-7


def test_lowering_on_conjugate_form():
    fn = lambda u: qf.eval_form(DELTA, u).conjugate()
    target = -2j * Z.imag * _derivative(DELTA, Z).conjugate() + 6 * fn(Z)
    assert abs(ma.maass_dbar(fn, 6, Z) - target) <= 1e-7


def test_lowering_on_holo_times_y_power():
    # dbar_s(y^p f) = (s + p) y^p f for holomorphic f: symbolic oracle
    p, s = 3, 5
    fn = lambda u: complex(u).imag ** p * qf.eval_form(DELTA, u)
    target = (s + p) * fn(Z)
    assert abs(ma.maass_dbar(fn, s, Z) - target) <= 1e-7


def test_stencil_domain_guard():
    with pytest.raises(ValueError):
        ma.maass_d(lambda u: 1.0, 2, 0.001j, h=1e-3)


def test_equivariance_T_exact():
    ers = lambda u: ra.eisenstein_rs(BiWeight(7, 7), u, T40).value
    assert ma.check_equivariance(ers, T, BiWeight(7, 7), Z) <= 1e-6


def test_equivariance_S_eisenstein():
    ers = lambda u: ra.eisenstein_rs(BiWeight(7, 7), u, T40).value
    sv = ra.eisenstein_rs(BiWeight(7, 7), Z, T40)
    assert ma.check_equivariance(ers, S, BiWeight(7, 7), Z) <= max(1e-5, 4 * sv.tail_estimate)


def test_y_power_commutation_on_delta():
    fn = lambda u: qf.eval_form(DELTA, u)
    assert ma.check_weight_shift(fn, 12, Z) <= 1e-7


def test_phi_identities_all_cases():
    for sign in "+-":
        res = ma.check_phi_identities(DELTA, W, sign, Z, T40)
        assert res["raising"] <= 1e-4
        assert res["lowering"] <= 1e-4


def test_phi_identities_residual_decreases_with_refinement():
    coarse = ma.check_phi_identities(DELTA, W, "+", Z, T40)
    fine = ma.check_phi_identities(DELTA, W, "+", Z, ra.TruncationParams(C=80, D=800), h=5e-4)
    assert max(fine.values()) < max(coarse.values())


def test_phi_identities_convergence_precondition():
    with pytest.raises(ConvergenceError):
        ma.check_phi_identities(DELTA, BiWeight(6, 6), "+", Z, T40)


def test_coeffs_identity_degenerate():
    res = ma.check_coeffs_identity([lambda u: complex(u).imag ** 2], 3, Z)
    assert res <= 1e-7


def test_coeffs_identity_monomial_data():
    fjs = [
        (lambda a, b: (lambda u: complex(u).imag ** a * cmath.exp(2j * cmath.pi * b * complex(u))))(a, b)
        for (a, b) in [(1, 1), (0, 2), (2, 1), (1, 0), (0, 1)]
    ]
    res = ma.check_coeffs_identity(fjs, 4, 0.3 + 1.5j)
    assert res <= 1e-6


def test_coeffs_identity_composite_with_phi_coefficients():
    # per basis slot: d_{r+j} phi(j) - (j+1) phi(j+1)
    #   = r phi'(j) + 2i y f E [j = k-2], combining the two identities;
    # one stencil pass over the whole coefficient vector
    k = 12
    coeffs = lambda u: ra.coeff_decompose(ra.phi(DELTA, W, "+", u, T40).value, u, k)
    ev = ra.eisenstein_rs(W, Z, T40).value
    fz = qf.eval_form(DELTA, Z)
    vec_up = ra.coeff_decompose(ra.phi(DELTA, W.raised(), "+", Z, T40).value, Z, k)
    vec = coeffs(Z)
    lhs = ma.maass_d(coeffs, W.r + np.arange(k - 1), Z)
    lhs = lhs - np.arange(1, k) * np.append(vec[1:], 0.0)
    rhs = W.r * vec_up
    rhs[k - 2] += 2j * Z.imag * fz * ev
    worst = float(np.max(np.abs(lhs - rhs)))
    assert worst <= 1e-3


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of `raseries.<name>` from here on:
    a private sum counts the kernel sums, as a fresh wrapper keys entries of
    its own in the point cache."""
    calls = []
    fn = getattr(ra, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(ra, name, counted)
    return calls


def test_phi_identities_share_one_stencil_pass(monkeypatch):
    # raising and lowering read one stencil of phi_{r,s} through the point
    # cache: z = 2i lies on the axis, so the nodes at x = -h, -2h read the
    # sums at their mirrors, and phi is summed at 7 points, plus once at the
    # raised and the lowered weights at z; the residuals are bitwise those
    # of one sum per visit (21 of them)
    calls = _count_calls(monkeypatch, "_phi_sum")
    for sign in "+-":
        calls.clear()
        cached = ma.check_phi_identities(DELTA, W, sign, Z, T40)
        at_w = {args[1] for args in calls if args[3] == W}
        assert len(calls) == 9 and len(at_w) == 7
        assert all(z.real >= 0 for z in at_w)
        assert sorted((a[3].r, a[3].s) for a in calls if a[3] != W) == [(9, 11), (11, 9)]
        with monkeypatch.context() as m:
            m.setattr(ra, "_point_value", ra._point_value.__wrapped__)  # each visit sums
            calls.clear()
            assert ma.check_phi_identities(DELTA, W, sign, Z, T40) == cached
            assert len(calls) == 21


def test_coeffs_suite_shares_one_stencil_pass(monkeypatch):
    # phi is summed at the 7 of its 9 stencil nodes with x >= 0, z among
    # them (the nodes at x = -h, -2h read their mirrors), and once at the
    # raised weight: 8 sums for the 11 visits of its phi(j)
    from miint import checks

    sums = _count_calls(monkeypatch, "_phi_sum")
    visits = _count_calls(monkeypatch, "phi_coefficients")
    results = checks.suite_coeffs_identity()
    assert all(r.passed for r in results)
    assert len(sums) == 8 and len(visits) == 11


def _counted_ers(calls):
    def ers(u):
        calls.append(struct.pack("<2d", u.real, u.imag))
        return ra.eisenstein_rs(BiWeight(7, 7), u, T40).value

    return ers


@pytest.mark.parametrize("g", [T, S], ids=["T", "S"])
def test_equivariance_evaluates_each_node_once(monkeypatch, g):
    # each side reads its 9 nodes: under T those about Tz are the T-images
    # of those about z, 9 distinct nodes, all at x >= 0; under S, S z and the
    # centre of the stencil about Sz coincide, 17 distinct nodes, and the 4
    # at x < 0 read their mirrors, so E_{7,7} is summed 9 and 13 times; the
    # residual is bitwise that of one sum per visit
    sums = _count_calls(monkeypatch, "_eisenstein_sum")
    visits = []
    ers = _counted_ers(visits)
    cached = ma.check_equivariance(ers, g, BiWeight(7, 7), Z)
    assert len(sums) == {T: 9, S: 13}[g]
    assert len(visits) == 18 and len(set(visits)) == {T: 9, S: 17}[g]
    monkeypatch.setattr(ra, "_point_value", ra._point_value.__wrapped__)  # each visit sums
    sums.clear()
    assert ma.check_equivariance(ers, g, BiWeight(7, 7), Z) == cached
    assert len(sums) == 18


def test_weight_shift_evaluates_each_node_once(monkeypatch):
    # the y^2 identity's two sides read the same 9 nodes, the 2 at x < 0
    # from their mirrors: E_{7,7} is summed 7 times for its 18 visits
    sums = _count_calls(monkeypatch, "_eisenstein_sum")
    visits = []
    ers = _counted_ers(visits)
    cached = ma.check_weight_shift(ers, 7, Z)
    assert cached <= 1e-7
    assert len(sums) == 7
    assert len(visits) == 18 and len(set(visits)) == 9
    monkeypatch.setattr(ra, "_point_value", ra._point_value.__wrapped__)  # each visit sums
    sums.clear()
    assert ma.check_weight_shift(ers, 7, Z) == cached
    assert len(sums) == 18


def test_equivariance_suite_sums_eisenstein_16_times(monkeypatch):
    # E_{7,7} at z for the S line's tail and at the 13 nodes with x >= 0 of
    # the 17 under S, E_{11,9} at z and Sz, and none for the y^k line, which
    # reads Delta alone
    from miint import checks

    sums = _count_calls(monkeypatch, "_eisenstein_sum")
    results = checks.suite_equivariance()
    assert all(r.passed for r in results)
    assert len(sums) == 16
    assert sum(w == BiWeight(7, 7) for _, _, w in sums) == 14


def test_coeffs_identity_evaluates_each_node_once():
    # the synthetic f_j are not coset series: each of the 19 visits
    # evaluates them, at the 9 distinct stencil nodes, z among them
    calls = []

    def f0(u):
        calls.append(u)
        return complex(u).imag * cmath.exp(2j * cmath.pi * u)

    res = ma.check_coeffs_identity([f0, lambda u: 1.0, lambda u: complex(u).imag], 2, 0.3 + 1.5j)
    assert res <= 1e-6
    assert len(set(calls)) == 9 and len(calls) <= 19
