"""Named verification suites over the library's identities.

Each suite returns a list of CheckResult with the measured residual and the
tolerance it was held to.  Tolerances are pinned here, once, and shared by
the CLI `check` subcommand and the acceptance test module.
"""

from __future__ import annotations

import cmath
import math
import random
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import iterated as it
from . import maass, periods, qforms, raseries, vvdim
from .group import (
    BiWeight,
    GroupElement,
    IDENTITY,
    S,
    T,
    T_pow,
    act_poly,
    act_poly_matrix,
    act_tensor,
    mobius,
    reduced_classes,
)
from .raseries import TruncationParams

SEED = 20260810
#: the one setting of the suites: bi-weight, point and truncation (`T40.scaled(2)` at C = 80)
W = BiWeight(10, 10)
Z = 2j
T40 = TruncationParams()


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.3e})"


def _result(name: str, residual: float, tol: float, **details) -> CheckResult:
    residual, tol = float(residual), float(tol)
    return CheckResult(name, bool(residual <= tol), residual, tol, dict(details))


def _random_word(rng: random.Random, max_len: int) -> GroupElement:
    """Random word over the generator letters S, T, T^-1."""
    g = IDENTITY
    for _ in range(rng.randint(1, max_len)):
        g = g * rng.choice((S, T, T.inv()))
    return g


# ---------------------------------------------------------------------- vvdim


def suite_vvdim_dims() -> list[CheckResult]:
    out = []
    out.append(_result("dim_Mk_rho(16,12) == 19", abs(vvdim.dim_Mk_rho(16, 12) - 19), 0))
    out.append(_result("dim_M2c(16,12) == 23", abs(vvdim.dim_M2c(16, 12) - 23), 0))
    out.append(_result("dim_Mk_rho(14,12) == 18", abs(vvdim.dim_Mk_rho(14, 12) - 18), 0))
    # the closed formula against the free module over M_* of Sym^n, n = k1 - 2,
    # generated in weights -n, -n+2, ..., n (Marks & Mason 2010): the sum of
    # dim M_w over w = k-n, k-n+2, ..., k+n
    bad = apart = 0
    for k in range(6, 41, 2):
        for k1 in range(4, k, 2):
            try:
                dim = vvdim.dim_Mk_rho(k, k1)
            except ArithmeticError:  # no value, so no agreement either
                dim, bad = None, bad + 1
            apart += dim != sum(map(vvdim.dim_modular, range(k - k1 + 2, k + k1 - 1, 2)))
    out.append(_result("dim_Mk_rho integral over 4 <= k1 < k <= 40", bad, 0))
    out.append(_result("dim_Mk_rho = free-module sum over 4 <= k1 < k <= 40", apart, 0))
    return out


def suite_vvdim_rep() -> list[CheckResult]:
    out = []
    worst_rel = 0
    worst_tr = 0
    signs = vvdim.legendre_seq(38)  # sum_i (-1)^i binom(i, k1-2-i) at [k1 - 2]
    for k1 in range(4, 41, 2):
        rep = vvdim.rho_matrices(k1)
        if not vvdim.check_relations(rep):
            worst_rel += 1
        tr = vvdim.trace_ST(k1)
        if tr != vvdim.legendre3(k1 - 1) or tr != vvdim.trace_ST_squared(k1):
            worst_tr += 1
        if tr != signs[k1 - 2]:
            worst_tr += 1
    out.append(_result("rho(S)^2 = (rho(S)rho(T))^3 = I for k1 = 4..40", worst_rel, 0))
    out.append(_result("Tr rho(ST) = Tr rho(ST)^2 = (k1-1|3) for k1 = 4..40", worst_tr, 0))
    return out


def suite_vvdim_recurrence() -> list[CheckResult]:
    out = []
    direct = vvdim.legendre_seq(100)
    rec = vvdim.legendre_seq_recurrence(100)
    closed = vvdim.legendre_seq_closed(100)
    mism = sum(1 for a, b, c in zip(direct, rec, closed) if not (a == b == c))
    out.append(_result("a_n three-route agreement, n <= 100", mism, 0))
    worst = 0.0
    for k, (lhs, rhs) in vvdim.xi_identity_residuals(40).items():
        worst = max(worst, abs(lhs - rhs), abs(lhs.imag))
    out.append(_result("xi identity, even k <= 40", worst, 1e-12))
    return out


# ------------------------------------------------------------------- cocycle


def suite_cocycle() -> list[CheckResult]:
    """The cocycle relation over random word pairs, and the two lines on the
    anchor r(S), from which every period is slashed: the relation
    r(S)|(1 + U + U^2) = 0, U = TS, that (TS)^3 = -I imposes on it, and its
    base-point independence.  Each anchor line is held to 8 eps times the
    sum of the magnitudes that its difference cancels, over its scale."""
    f = qforms.delta_q()
    k = f.k
    rng = random.Random(SEED)
    pairs = [(_random_word(rng, 8), _random_word(rng, 8)) for _ in range(50)]
    # every period polynomial of the suite from one batch: (gd, g, d) per pair
    *polys, r = periods.period_polys(f, [h for g, d in pairs for h in (g * d, g, d)] + [S])
    worst = 0.0
    for (_, d), lhs, r_g, r_d in zip(pairs, polys[::3], polys[1::3], polys[2::3]):
        part = act_poly(r_g, d, k)
        rhs = part + r_d
        scale = max(1.0, np.abs(lhs).max(), np.abs(part).max())
        worst = max(worst, np.abs(lhs - rhs).max() / scale)
    out = [_result("r(gd) = r(g)|d + r(d), 50 random word pairs", worst, 1e-8)]

    U = act_poly_matrix(T * S, k)
    U2 = U @ U
    scale = np.abs(r).max()
    res = np.abs(r + U @ r + U2 @ r).max() / scale
    cancelled = np.abs(r) + np.abs(U) @ np.abs(r) + np.abs(U2) @ np.abs(r)
    tol = 8 * periods._EPS * cancelled.max() / scale
    out.append(_result("r(S)|(1 + U + U^2) = 0, U = TS", res, tol))

    abs_MS = np.abs(act_poly_matrix(S, k))  # |M_S|, M_S the slash matrix of S
    base, cancelled = [], 0.0
    for z0 in (1j, 0.5 + 2j):
        base.append(periods.period_poly_base(f, S, z0))
        F_gz0, F_z0 = (periods.eichler_F(f, u) for u in (mobius(S, z0), z0))
        cancelled += (abs_MS @ np.abs(F_gz0) + np.abs(F_z0)).max()
    scale = max(1.0, np.abs(base[0]).max())
    res = np.abs(base[0] - base[1]).max() / scale
    out.append(_result("base-point independence of r(S)", res, 8 * periods._EPS * cancelled / scale))
    return out


# ----------------------------------------------------------------- dualroute


def suite_lvalue_dualroute() -> list[CheckResult]:
    f = qforms.delta_q()
    series, extract = periods._lambdas_by_integral(f, 0, 1, f.k - 1), periods._lambdas_by_extraction(f, 0, 1)
    worst = np.max(np.abs(series - extract) / np.abs(extract))
    out = [_result("Lambda(s, 0) series vs extraction, s = 1..11", worst, 1e-7)]

    table = periods.reduced_periods(f, 2)
    worst = 0.0
    gammas = [periods.complete_row(c, d) for c, d in
              [(1, 0), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)]]
    for g, direct in zip(gammas, periods.period_polys(f, gammas)):
        rebuilt = periods.period_from_Lvalues(f, g, table)
        scale = max(1.0, np.abs(direct).max())
        worst = max(worst, np.abs(direct - rebuilt).max() / scale)
    out.append(_result("period_from_Lvalues vs period_poly, c <= 2", worst, 1e-6))
    return out


def suite_classes() -> list[CheckResult]:
    """The period table's L-values of every reduced class with c <= 12, at
    every s = 1..k-1, against the vertical-line integral, which shares with
    the table's Euclid-chain walk only the form's coefficients.  A class's
    residual is its largest difference over s relative to its largest value
    (|Lambda| falls across s, so a ratio per value would follow the smallest
    one); a line reports the worst class.  Its tolerance is the extraction's
    roundoff budget: 32 eps times the worst shift condition, the Taylor
    shift of |row| to the cusp |-d0/c| over the class's largest value."""
    c, d0, _ = reduced_classes(12)
    out = []
    for label, f in (("Delta", qforms.delta_q()), ("weight 16", qforms.cusp_basis(16)[0])):
        table = periods.reduced_periods(f, 12)
        rows = zip(c.tolist(), d0.tolist())
        direct = np.column_stack([periods._lambdas_by_integral(f, -d, q, f.k - 1) for q, d in rows])
        scale = np.abs(table.values).max(axis=0)
        res = np.abs(table.values - direct).max(axis=0) / scale
        shifted = periods._lambdas_from_period(np.abs(table.periods.T), d0 / c, f.k)
        tol = 32 * periods._EPS * (np.abs(shifted).max(axis=0) / scale).max()
        i = int(res.argmax())
        name = f"Lambda table vs integral, every class c <= 12, s = 1..{f.k - 1}, {label}"
        out.append(_result(name, res[i], tol, worst_class=(int(c[i]), int(d0[i]))))
    return out


def suite_coeff_closed_form() -> list[CheckResult]:
    """Coefficient functions by decomposition vs the closed two-term formula,
    each difference over the largest coefficient of either route, held to 8
    times phi's tail over it.  At W and Z every |phi(j)| lies below 1e-6,
    so a difference over max(1, |closed|) would pass any closed form; over
    this scale a closed form of zeros reads 1."""
    f = qforms.delta_q()
    phiv = raseries.phi(f, W, "+", Z, T40)
    vec = raseries.coeff_decompose(phiv.value, Z, f.k)
    closed = raseries.closed_form_phi(f, W, "+", Z, T40)
    scale = max(np.abs(vec).max(), np.abs(closed).max())
    per_j = np.abs(vec - closed) / scale
    name = "phi(j; z) decomposition vs closed form, j = 0..10"
    tol = 8 * phiv.tail_estimate / scale
    return [_result(name, per_j.max(), tol, per_j=dict(enumerate(per_j.tolist())))]


# ---------------------------------------------------------------- invariance


def suite_invariance() -> list[CheckResult]:
    f = qforms.delta_q()
    out = []
    for z in (Z, 0.5 + Z):
        for sign in "+-":
            sv = raseries.phi(f, W, sign, z, T40)
            fn = lambda u, sg=sign: raseries.phi(f, W, sg, u, T40).value
            acted = act_tensor(fn, S, W, f.k)(z)
            res = np.abs(acted - sv.value).max()
            tol = max(4 * sv.tail_estimate, 1e-5)
            out.append(
                _result(f"phi{sign} invariance under S at z = {z}", res, tol)
            )
    # near the critical weight r + s = k + 2 and off the axis, where the
    # cosets past C = 40 still move phi (at W and Z they lie below eps)
    w, z = BiWeight(8, 6), complex(0.3, 1.2)
    base = raseries.phi(f, w, "+", z, T40)
    res = np.abs(base.value - raseries.phi(f, w, "+", z, T40.scaled(2)).value).max()
    out.append(
        _result("phi self-convergence C: 40 -> 80, (8,6) at 0.3+1.2i", res, base.tail_estimate)
    )
    return out


# ------------------------------------------------- differential identities


def suite_phi_identities() -> list[CheckResult]:
    f = qforms.delta_q()
    out = []
    coarse = {}
    for sign in "+-":
        res = maass.check_phi_identities(f, W, sign, Z, T40)
        coarse[sign] = res
        out.append(_result(f"raising identity, {sign} case", res["raising"], 1e-4))
        out.append(_result(f"lowering identity, {sign} case", res["lowering"], 1e-4))
    # a second-order stencil at h/2 cuts its model error to about a quarter
    fine = maass.check_phi_identities(f, W, "+", Z, T40.scaled(2), h=5e-4)
    ratio = max(fine.values()) / max(coarse["+"].values())
    out.append(
        _result(
            "identity residual ratio (2C, h/2) / (C, h)", ratio, 0.5, coarse=coarse["+"], fine=fine
        )
    )
    return out


def suite_coeffs_identity() -> list[CheckResult]:
    """Basis recombination identity, on synthetic data and composed with the
    differential identities on the actual coefficient functions."""
    f = qforms.delta_q()
    fjs = [
        (lambda a, b: (lambda u: complex(u).imag ** a * cmath.exp(2j * cmath.pi * b * complex(u))))(a, b)
        for (a, b) in [(1, 1), (0, 2), (2, 1), (1, 0), (0, 1)]
    ]
    res = maass.check_coeffs_identity(fjs, 4, 0.3 + 1.5j)
    out = [_result("recombination identity on monomial data, k = 6", res, 1e-6)]

    k = f.k
    ev = raseries.eisenstein_rs(W, Z, T40).value
    fz = qforms.eval_form(f, Z)
    vec_up = raseries.coeff_decompose(raseries.phi(f, W.raised(), "+", Z, T40).value, Z, k)

    def coeffs(u: complex):
        return raseries.coeff_decompose(raseries.phi(f, W, "+", u, T40).value, u, k)

    # d_{r+j} phi(j) - (j+1) phi(j+1) for every j from one stencil pass
    vec = coeffs(Z)
    lhs = maass.maass_d(coeffs, W.r + np.arange(k - 1), Z)
    lhs -= np.arange(1, k) * np.append(vec[1:], 0.0)
    rhs = W.r * vec_up
    rhs[k - 2] += 2j * Z.imag * fz * ev
    worst = float(np.max(np.abs(lhs - rhs)))
    out.append(
        _result(
            "derivative of each coefficient recombines as predicted", worst, 1e-3
        )
    )
    return out


def suite_equivariance() -> list[CheckResult]:
    f = qforms.delta_q()
    ers = lambda z: raseries.eisenstein_rs(BiWeight(7, 7), z, T40).value
    # under T the stencil nodes about Tz are the T-images of those about z,
    # so both sides would read the same values: only S can fail
    sv = raseries.eisenstein_rs(BiWeight(7, 7), Z, T40)
    res_s = maass.check_equivariance(ers, S, BiWeight(7, 7), Z)
    out = [_result("raising/slash equivariance under S", res_s, max(1e-5, 4 * sv.tail_estimate))]
    # off the imaginary axis, where E_{r,s} and E_{s,r} differ: E(Sz) = z^r zbar^s E(z)
    z, w = complex(0.3, 1.2), BiWeight(11, 9)
    ez, esz = (raseries.eisenstein_rs(w, u, T40) for u in (z, -1 / z))
    res = abs(esz.value - z**w.r * z.conjugate() ** w.s * ez.value)
    tol = 8 * (esz.tail_estimate + abs(z) ** (w.r + w.s) * ez.tail_estimate)
    out.append(_result("E_{11,9} under S at 0.3+1.2i", res, tol))
    fd = lambda z: qforms.eval_form(f, z)
    res_comm = maass.check_weight_shift(fd, 12, Z)
    out.append(_result("y^k commutation on Delta, k = 2", res_comm, 1e-7))
    return out


# ------------------------------------------------------------------- order n


def suite_order2() -> list[CheckResult]:
    f = qforms.delta_q()
    data = it.IteratedIntegrand((f,))
    worst = max(it.order_check(data, [(S,), (S * T,)]).values())
    out = [_result("F2.(g-1) z-independence", worst, 1e-6)]
    out.append(
        _result("F2.(T-1) = 0", it.parabolic_residual(data, 1.5j), 1e-9)
    )
    return out


def suite_order3() -> list[CheckResult]:
    f = qforms.delta_q()
    data = it.IteratedIntegrand((f, f))
    worst = max(it.order_check(data, [(S, S * T), (S, T_pow(1) * S)]).values())
    out = [_result("F3.(g-1).(d-1) z-independence", worst, 1e-5)]
    out.append(
        _result("F3.(T-1) = 0", it.parabolic_residual(data, 1.5j), 1e-9)
    )
    return out


# ---------------------------------------------------------------- 2nd order


def suite_second_order() -> list[CheckResult]:
    f = qforms.delta_q()
    out = []
    sv = raseries.psi_series(f, W, "+", Z, T40)
    fn = lambda u: raseries.psi_series(f, W, "+", u, T40).value
    ev = raseries.eisenstein_rs(W, Z, T40)
    r_S, r_TS = periods.period_polys(f, [S, T * S])
    for g, label, r_g in ((S, "S", r_S), (T * S, "TS", r_TS)):
        image = act_tensor(fn, g, W, f.k)(Z) - sv.value
        predicted = r_g * (-ev.value)
        res = np.abs(image - predicted).max()
        tol = max(2 * sv.tail_estimate + abs(ev.tail_estimate), 1e-5)
        out.append(_result(f"psi.(g-1) + r(g) E = 0, g = {label}", res, tol))

    # second-order Poincare-type law at (n, k, k1) = (1, 16, 12)
    n, k = 1, 16
    G = raseries.second_order_G(n, f, k, Z, T40, "+")
    fn = lambda u: raseries.second_order_G(n, f, k, u, T40, "+").value
    image = act_tensor(fn, S, BiWeight(k, 0), f.k)(Z) - G.value
    pn = raseries.poincare(n, k, Z, T40)
    predicted = r_S * (-pn.value)
    res = np.abs(image - predicted).max()
    tol = max(4 * G.tail_estimate + abs(pn.tail_estimate), 1e-5)
    out.append(_result("G.(S-1) + r(S) P_n = 0 at (1,16,12)", res, tol))

    # the real-analytic iterated integral E_{r,s} F2: its image is E r(S)
    fn2 = lambda u: periods.eichler_F(f, u) * raseries.eisenstein_rs(W, u, T40).value
    image = act_tensor(fn2, S, W, f.k)(Z) - fn2(Z)
    predicted = r_S * ev.value
    res = np.abs(image - predicted).max()
    tol = max(4 * ev.tail_estimate * np.abs(r_S).max(), 1e-5)
    out.append(_result("real F2.(S-1) = E r(S)", res, tol))
    return out


def suite_psibar() -> list[CheckResult]:
    """psi-bar = psi^+_f + psi^-_f: its (S - 1)-image by the series against
    the closed form -(r^+(S) + r^-(S)) E_{r,s}."""
    f = qforms.delta_q()
    psi = lambda u, sign: raseries.psi_series(f, W, sign, u, T40)
    psi_bar = lambda u: psi(u, "+").value + psi(u, "-").value
    image = act_tensor(psi_bar, S, W, f.k)(Z) - psi_bar(Z)
    ev = raseries.eisenstein_rs(W, Z, T40).value
    closed = (periods.period_poly(f, S, "+") + periods.period_poly(f, S, "-")) * (-ev)
    tol = max(1e-5, 4 * psi(Z, "+").tail_estimate)
    return [_result("psi-bar image: series vs closed form, g = S", np.abs(image - closed).max(), tol)]


# ------------------------------------------------------------------- fourier


def suite_fourier() -> list[CheckResult]:
    """Fourier-expansion shape of the second-order coefficient functions.

    The invariant phi-coefficients carry modes P_l(y) e^(-2 pi l y), checked
    two-sided against the allowed polynomial window; the psi-coefficient
    modes decay at least that fast (their leading mode content vanishes at
    these weights, so only the one-sided bound is meaningful).
    """
    f = qforms.delta_q()
    out = []
    B = 12.0
    M = 96

    # the l = 1 and l = 2 modes share their coset sums, through the point cache
    def phi_fn(z: complex) -> complex:
        val = raseries.phi(f, W, "+", z, T40).value
        return complex(raseries.coeff_decompose(val, z, f.k)[f.k - 2])

    def psi_fn(z: complex) -> complex:
        val = raseries.psi_series(f, W, "+", z, T40).value
        return complex(raseries.coeff_decompose(val, z, f.k)[0])

    def drop(fn, l: int) -> float:  # a mode's magnitude at y = 1.5 over that at y = 1
        mode = lambda y: abs(raseries.fourier_coefficient(fn, l, y, M))
        return mode(1.5) / mode(1.0)

    for l in (1, 2):
        decay = math.exp(-2 * math.pi * l * 0.5)
        ratio, window = drop(phi_fn, l), (decay * 1.5**-B, decay * 1.5**B)
        inside = window[0] <= ratio <= window[1]
        name = f"phi-coefficient mode l = {l} in decay window"
        out.append(_result(name, 0.0 if inside else 1.0, 0.0, ratio=ratio, window=window))
        ratio = drop(psi_fn, l)
        name = f"psi-coefficient mode l = {l} decays at least as e^(-2 pi l dy)"
        out.append(_result(name, ratio, window[1], ratio=ratio))
    neg = raseries.fourier_coefficient(lambda z: qforms.eval_form(f, z), -1, 1.0, 128)
    out.append(_result("Delta negative Fourier mode vanishes", abs(neg), 1e-12))
    return out


SUITES = {
    "vvdim": lambda: suite_vvdim_dims() + suite_vvdim_rep() + suite_vvdim_recurrence(),
    "cocycle": suite_cocycle,
    "dualroute": lambda: suite_lvalue_dualroute() + suite_coeff_closed_form(),
    "classes": suite_classes,
    "invariance": suite_invariance,
    "keypr": suite_phi_identities,
    "coeffs": suite_coeffs_identity,
    "equivariance": suite_equivariance,
    "order2": suite_order2,
    "order3": suite_order3,
    "psibar": suite_psibar,
    "secondorder": suite_second_order,
    "fourier": suite_fourier,
}


def _run(name: str) -> list[CheckResult]:
    """One suite's results; a suite that raises has failed, and reports one
    FAIL that carries the exception's type and message, and its traceback."""
    try:
        return SUITES[name]()
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return [_result(f"{name} raised {error}", math.inf, 0.0, traceback=traceback.format_exc())]


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [res for each in SUITES for res in _run(each)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return _run(name)
