"""Truncated coset sums over B\\Gamma: real-analytic Eisenstein series, the
second-order series psi/phi attached to a cusp form, their coefficient
decompositions and closed-form cross-checks, Fourier extraction, twisted
Kloosterman-type sums, Poincare series and the second-order G series.

Each truncated coset series (E_{r,s}, psi, the Poincare series and G) is
one call of the kernel `_coset_sum`: a weight per non-trivial coset (times
that coset's row of the period table, for the second-order series), summed
in the fixed order (ascending c, ascending |d|, positive d first) with each
column reduced exactly rounded, plus the identity-coset term; phi combines
psi and E_{r,s}.  Identical inputs therefore give bitwise-identical results.

Every series value carries a tail estimate: an integral-comparison bound on
the truncated part, with its constant read off the outermost computed shells
(averaged over the last few values of c to smooth totient fluctuations),
plus a floating-point noise floor.  It is an estimate, not a proof-grade
bound, but it is sized so that doubling the rectangle moves the value by
less than it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, PrecisionError
from .group import (
    BiWeight,
    PolyC,
    act_poly,
    complete_row,
    enumerate_coset_rows,
    enumerate_cosets,
    jfactor,
    mobius,
)
from .periods import (
    ReducedPeriods,
    eichler_F,
    eichler_moments,
    i_power,
    reduced_periods,
)
from .qforms import QExpansion, Y_MIN, eval_tail_bound

_EPS = float(np.finfo(np.float64).eps)

#: default number of trapezoidal nodes in `fourier_coefficient`
DEFAULT_M = 128
#: relative mismatch between fn(iy) and fn(1 + iy) that rejects an integrand
_PERIODICITY_RTOL = 1e-6


@dataclass(frozen=True)
class TruncationParams:
    """Deterministic truncation of coset sums: 0 < c <= C, |d| <= D."""

    C: int = 40
    D: int = 400

    def __post_init__(self):
        if self.C < 1 or self.D < 1:
            raise ValueError("C and D must be >= 1")

    def validate_at(self, z: complex) -> None:
        """Every coset series is evaluated at a finite z in the upper
        half-plane, inside a rectangle wide enough for its real part."""
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"z must be finite, got {z}")
        if z.imag <= 0:
            raise ValueError("z must lie in the upper half-plane")
        need = 4 * self.C * (abs(z.real) + 1.0)
        if self.D < need:
            raise ValueError(
                f"d-cutoff too small at x = {z.real}: need D >= {need}, got {self.D}"
            )

    def scaled(self, factor: int) -> "TruncationParams":
        return TruncationParams(self.C * factor, self.D * factor)


@dataclass
class SeriesValue:
    """Evaluated series (polynomial or scalar) plus truncation metadata."""

    value: object  # PolyC or complex
    weights: BiWeight
    sign: str
    trunc: TruncationParams
    tail_estimate: float


@dataclass(frozen=True)
class _CosetData:
    """Bottom rows (c, d) of the non-trivial cosets, in the fixed order."""

    cs: np.ndarray
    ds: np.ndarray

    @cached_property
    def tops(self) -> tuple[np.ndarray, np.ndarray]:
        """Top rows (a, b) completing each bottom row to a matrix in SL2(Z);
        only the holomorphic weights e(n gz) read them, so they are built on
        first use."""
        as_ = np.empty(self.cs.size, dtype=np.int64)
        bs = np.empty(self.cs.size, dtype=np.int64)
        for i, (c, d) in enumerate(zip(self.cs, self.ds)):
            g = complete_row(int(c), int(d))
            as_[i], bs[i] = g.a, g.b
        return as_, bs


@lru_cache(maxsize=8)
def _coset_data(C: int, D: int) -> _CosetData:
    return _CosetData(*enumerate_coset_rows(C, D))


@lru_cache(maxsize=6)
def _period_table(f: QExpansion, C: int, D: int) -> np.ndarray:
    """Plus-sign period polynomials r(gamma; X) for every coset in the fixed
    order, shape (n_cosets, k-1).

    Reduced representatives (c, d0 mod c) come from the shared cocycle table
    `reduced_periods`; the rest of each congruence class is filled by the
    exact translation action r(gamma T^n) = r(gamma)|T^n, vectorised as a
    Vandermonde product.
    """
    data = _coset_data(C, D)
    classes = reduced_periods(f, C)
    K = f.k - 1
    cls = classes.index(data.cs, data.ds)
    # cosets grouped by class, each class in ascending d, i.e. ascending n
    order = np.lexsort((data.ds, cls))
    starts = np.searchsorted(cls[order], np.arange(len(classes.rows)))
    R = np.empty((data.cs.size, K), dtype=np.complex128)
    comb = np.zeros((K, K))
    for t in range(K):
        for u in range(t, K):
            comb[u - t, t] = math.comb(u, t)
    for (c, d0), base, start in zip(classes.rows, classes.periods, starts):
        B = np.zeros((K, K), dtype=np.complex128)
        for e in range(K):
            B[e, : K - e] = comb[e, : K - e] * base[e:]
        n_lo = math.ceil((-D - d0) / c)
        n_hi = (D - d0) // c
        ns = np.arange(n_lo, n_hi + 1, dtype=np.float64)
        npows = np.vander(ns, K, increasing=True)
        R[order[start : start + ns.size]] = npows.astype(np.complex128) @ B
    return R


def _signed_periods(hform: QExpansion, sign: str, t: TruncationParams) -> np.ndarray:
    """The period table for sign '+', its complex conjugate for '-'."""
    R = _period_table(hform, t.C, t.D)
    if sign == "-":
        return np.conj(R)
    if sign != "+":
        raise ValueError("sign must be '+' or '-'")
    return R


def _jarrays(t: TruncationParams, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """j(gamma, z) and j(gamma, conj z) over the cosets, after validating z."""
    t.validate_at(z)
    z = complex(z)
    data = _coset_data(t.C, t.D)
    return data.cs * z + data.ds, data.cs * z.conjugate() + data.ds


def _rs_weights(t: TruncationParams, z: complex, w: BiWeight) -> np.ndarray:
    j, jb = _jarrays(t, z)
    return j ** (-w.r) * jb ** (-w.s)


def _holo_weights(t: TruncationParams, z: complex, n: int, k: int) -> np.ndarray:
    j, _ = _jarrays(t, z)
    a, b = _coset_data(t.C, t.D).tops
    return np.exp(2j * np.pi * n * ((a * complex(z) + b) / j)) * j ** (-k)


def _exact_sum(terms: np.ndarray) -> complex | np.ndarray:
    """Exactly-rounded sum over axis 0 (`math.fsum` of the real and the
    imaginary parts): a complex for a 1-D array, an array with one complex
    per column for a 2-D one.  Columns are reduced one at a time, so only
    one column is ever held as Python floats."""
    if terms.ndim == 2:
        return np.array([_exact_sum(col) for col in terms.T])
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _coset_sum(
    t: TruncationParams, z: complex, terms: np.ndarray, w0: float, identity=None
) -> tuple[object, float]:
    """The one truncated coset series: `terms` (one row per non-trivial
    coset, one column per coefficient when 2-D) summed in coset order with
    each column reduced exactly rounded, plus the identity-coset term.

    Returns (value, tail).  The tail extrapolates the outermost computed
    shells: the c-tail scales the average of the last few c-shells by the
    integral comparison sum_{c > C} (c/C)^(1-w0) ~ C/(w0-2); the d-tail
    scales the outer |d| band with decay exponent w0.  A factor 2 pads shell
    roughness; a floor of 16 eps times the absolute sum (plus 1 for an
    identity term) covers roundoff in the terms.
    """
    value = _exact_sum(terms)
    if identity is not None:
        value = identity + value
    if w0 <= 2:
        return value, math.inf
    data = _coset_data(t.C, t.D)
    C, D, x = t.C, t.D, complex(z).real
    col = np.abs(terms) if terms.ndim == 2 else np.abs(terms)[:, None]
    band_c = max(1, min(8, C))
    shell_avg = col[data.cs > C - band_c].sum(axis=0) / band_c
    ctail = 2.0 * shell_avg * C / (w0 - 2.0)
    bw = min(max(2 * C, 8), D)
    band_sum = col[np.abs(data.ds) > D - bw].sum(axis=0)
    dtail = 2.0 * band_sum * max(D - C * abs(x), 1.0) / (bw * (w0 - 1.0))
    extra = 1.0 if identity is not None else 0.0
    floor = 16.0 * _EPS * (float(col.sum(axis=0).max()) + extra)
    return value, float((ctail + dtail).max()) + floor


def eisenstein_rs(
    w: BiWeight, z: complex, t: TruncationParams = TruncationParams()
) -> SeriesValue:
    """Real-analytic Eisenstein series sum over B\\Gamma of
    j(g,z)^(-r) j(g, conj z)^(-s), identity coset contributing 1."""
    if w.r + w.s <= 2:
        raise ConvergenceError(f"weights ({w.r},{w.s}) diverge: r + s must exceed 2")
    value, tail = _coset_sum(t, z, _rs_weights(t, z, w), w.r + w.s, identity=1.0)
    return SeriesValue(value, w, "", t, tail)


def psi_series(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> SeriesValue:
    """Second-order series sum over B\\Gamma of r(gamma; X) j^(-r) jbar^(-s);
    the identity coset contributes nothing."""
    if not hform.is_cusp:
        raise ValueError("psi requires a cusp form")
    if w.r + w.s <= hform.k:
        raise ConvergenceError(
            f"psi needs r + s > k = {hform.k}, got r + s = {w.r + w.s}"
        )
    terms = _signed_periods(hform, sign, t) * _rs_weights(t, z, w)[:, None]
    value, tail = _coset_sum(t, z, terms, w.r + w.s - hform.k + 2)
    return SeriesValue(PolyC(value, hform.k - 2), w, sign, t, tail)


def phi(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> SeriesValue:
    """Invariant series sum over B\\Gamma of the slashed Eichler integral,
    assembled as psi + F * E (`_phi_direct` is the reference route)."""
    z = complex(z)
    psiv = psi_series(hform, w, sign, z, t)
    ev = eisenstein_rs(w, z, t)
    F = eichler_F(hform, z, sign)
    value = psiv.value + F * ev.value
    ftail = eval_tail_bound(hform, z.imag) / (2 * math.pi)
    tail = psiv.tail_estimate + F.norm_inf() * ev.tail_estimate
    tail += abs(ev.value) * ftail
    return SeriesValue(value, w, sign, t, tail)


def _phi_direct(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> SeriesValue:
    """Reference route for `phi`: the Eichler integral slashed across the
    coset representatives.  Small rectangles only: every image point must
    stay above the evaluation floor.

    It shares only the tail estimate with the series it checks: the weights
    come from per-coset automorphy factors, and the identity coset is
    reduced together with the others.
    """
    k = hform.k
    if w.r + w.s <= k:
        raise ConvergenceError(f"phi needs r + s > k = {k}")
    j, _ = _jarrays(t, z)
    z = complex(z)
    if z.imag / float(np.max(np.abs(j))) ** 2 < Y_MIN:
        raise PrecisionError(
            "direct route would evaluate below the floor; shrink the rectangle"
        )
    cosets = enumerate_cosets(t.C, t.D)[1:]
    rows = np.array([act_poly(eichler_F(hform, mobius(g, z), sign), g, k).coeffs for g in cosets])
    wts = np.array([jfactor(g, z) ** (-w.r) * jfactor(g, z.conjugate()) ** (-w.s) for g in cosets])
    terms = rows * wts[:, None]
    _, tail = _coset_sum(t, z, terms, w.r + w.s - k + 2)
    value = _exact_sum(np.vstack([eichler_F(hform, z, sign).coeffs, terms]))
    return SeriesValue(PolyC(value, k - 2), w, sign, t, tail)


def coeff_basis(z: complex, m: int) -> np.ndarray:
    """The basis of the coefficients phi(i): column i holds the ascending
    monomial coefficients of (X-z)^i (X-conj z)^(m-i)."""
    z = complex(z)
    lo = np.array([-z, 1.0], dtype=np.complex128)
    hi = np.array([-z.conjugate(), 1.0], dtype=np.complex128)
    lo_pows = [np.array([1.0 + 0j])]
    hi_pows = [np.array([1.0 + 0j])]
    for _ in range(m):
        lo_pows.append(np.convolve(lo_pows[-1], lo))
        hi_pows.append(np.convolve(hi_pows[-1], hi))
    return np.column_stack([np.convolve(lo_pows[i], hi_pows[m - i]) for i in range(m + 1)])


def coeff_decompose(P: PolyC, z: complex, k: int) -> np.ndarray:
    """Coefficients phi(i) with P(X) = sum_i phi(i) (X-z)^i (X-conj z)^(k-2-i),
    by solving the monomial-basis linear system."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")
    m = k - 2
    if P.bound > m:
        raise ValueError("polynomial degree exceeds k - 2")
    try:
        sol = np.linalg.solve(coeff_basis(z, m), PolyC(P.coeffs, m).coeffs)
    except np.linalg.LinAlgError as exc:  # unreachable for z in H
        raise ArithmeticError("singular decomposition system") from exc
    return sol


def phi_coefficient(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    j: int,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> complex:
    """Coefficient of (X-z)^j (X-conj z)^(k-2-j) in phi."""
    if not 0 <= j <= hform.k - 2:
        raise ValueError(f"j must lie in 0..{hform.k - 2}")
    phiv = phi(hform, w, sign, z, t)
    return complex(coeff_decompose(phiv.value, z, hform.k)[j])


@lru_cache(maxsize=4)
def _lambda_rows(f: QExpansion, C: int, D: int) -> np.ndarray:
    """Lambda_f(s, -d/c) aligned with the coset order, shape (k-1, n_cosets);
    row index is s - 1."""
    data = _coset_data(C, D)
    table = reduced_periods(f, C)
    return np.take(table.values, table.index(data.cs, data.ds), axis=1)


def closed_form_phi_j(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    j: int,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> complex:
    """Two-term closed formula for the basis coefficient phi(j; z).

    Plus case: boundary Eichler-type integral times the Eisenstein series,
    plus the double binomial sum over twisted L-values against automorphy
    factors.  The minus case is evaluated through the exact conjugation
    symmetry phi^-_{r,s}(j) = conj(phi^+_{s,r}(k-2-j)).
    """
    k = hform.k
    if not 0 <= j <= k - 2:
        raise ValueError(f"j must lie in 0..{k - 2}")
    if sign == "-":
        return complex(
            np.conj(closed_form_phi_j(hform, w.swapped(), "+", k - 2 - j, z, t))
        )
    if sign != "+":
        raise ValueError("sign must be '+' or '-'")
    if w.r + w.s <= k:
        raise ConvergenceError(f"needs r + s > k = {k}")
    jarr, jbarr = _jarrays(t, z)  # validates z before any arithmetic on it
    z = complex(z)
    r, s = w.r, w.s
    # prefactor from w - X = ((w-z)(X-cz) + (cz-w)(X-z)) / (z - cz)
    pref = (z - z.conjugate()) ** (2 - k)
    # boundary term: the Eichler moments against the basis polynomial of phi(j)
    bnd_int = eichler_moments(hform, z, k - 2) @ coeff_basis(z, k - 2)[:, k - 2 - j]
    ev = eisenstein_rs(w, z, t)
    total = (-1) ** j * math.comb(k - 2, j) * pref * bnd_int * ev.value
    # twisted double sum over the non-trivial cosets, reduced once
    lam = _lambda_rows(hform, t.C, t.D)
    cfl = _coset_data(t.C, t.D).cs.astype(np.float64)
    jpow = [jarr ** (-(r + j + n + 2 - k)) for n in range(k - 1 - j)]
    jbpow = [jbarr ** (-(s + m - j)) for m in range(j + 1)]
    terms = np.zeros(cfl.size, dtype=np.complex128)
    for m in range(j + 1):
        for n in range(k - 1 - j):
            alpha = (
                i_power(1 - 2 * j - m - n)
                * math.comb(k - 2, j)
                * math.comb(j, m)
                * math.comb(k - 2 - j, n)
            )
            terms += alpha * (lam[m + n] * cfl ** (m + n - k + 2) * jpow[n] * jbpow[m])
    total += pref * _exact_sum(terms)
    return complex(total)


def fourier_coefficient(fn, l: int, y: float, M: int = DEFAULT_M) -> complex:
    """Trapezoidal Fourier mode int_0^1 fn(x + iy) e^(-2 pi i l x) dx.

    Spectrally accurate for smooth 1-periodic integrands; raises if the
    integrand visibly fails periodicity across one period.  Makes M + 1
    evaluations: the probe at x = 0 is also the first node.
    """
    if M < 64:
        raise ValueError("M must be >= 64")
    left = fn(complex(0.0, y))
    right = fn(complex(1.0, y))
    scale = max(1.0, abs(left))
    if abs(left - right) > _PERIODICITY_RTOL * scale:
        raise ValueError("integrand is not 1-periodic in x")
    xs = np.arange(M) / M
    vals = np.array([left] + [fn(complex(x, y)) for x in xs[1:]], dtype=np.complex128)
    phase = np.exp(-2j * np.pi * l * xs)
    return _exact_sum(vals * phase) / M


def kloosterman_twisted(
    f: QExpansion, c: int, l: int, m: int, table: ReducedPeriods | None = None
) -> complex:
    """Finite twisted sum over d mod c, gcd(d, c) = 1, of
    Lambda_f(m, -d/c) e^(2 pi i l d / c)."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if table is None:
        table = reduced_periods(f, c)
    if table.C < c:
        raise KeyError(f"Lambda table covers c <= {table.C} < {c}")
    terms = [
        table.value(m, c, d) * cmath.exp(2j * math.pi * l * d / c)
        for d in range(c)
        if math.gcd(d, c) == 1
    ]
    return _exact_sum(np.array(terms, dtype=np.complex128))


def poincare(
    n: int, k: int, z: complex, t: TruncationParams = TruncationParams()
) -> SeriesValue:
    """Holomorphic Poincare series sum over B\\Gamma of e^(2 pi i n gz) j^(-k);
    n = 0 is the weight-k Eisenstein series."""
    if k < 4 or k % 2 != 0:
        raise ConvergenceError("Poincare series needs even k >= 4")
    if n < 0:
        raise ValueError("n must be >= 0")
    value, tail = _coset_sum(
        t, z, _holo_weights(t, z, n, k), k, identity=cmath.exp(2j * math.pi * n * complex(z))
    )
    return SeriesValue(value, BiWeight(k, 0), "", t, tail)


def second_order_G(
    n: int,
    hform: QExpansion,
    k: int,
    z: complex,
    t: TruncationParams = TruncationParams(),
    sign: str = "+",
) -> SeriesValue:
    """Second-order Poincare-type series sum over B\\Gamma of
    r(gamma; X) e^(2 pi i n gz) j^(-k); requires k > weight of the form."""
    k1 = hform.k
    if not (k % 2 == 0 and k > k1 > 2):
        raise ConvergenceError(f"need even k > k1 = {k1} > 2, got k = {k}")
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = _signed_periods(hform, sign, t) * _holo_weights(t, z, n, k)[:, None]
    value, tail = _coset_sum(t, z, terms, k - k1 + 2)
    return SeriesValue(PolyC(value, k1 - 2), BiWeight(k, 0), sign, t, tail)
