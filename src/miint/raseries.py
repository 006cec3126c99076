"""Truncated coset sums over B\\Gamma: real-analytic Eisenstein series, the
second-order series psi/phi attached to a cusp form, their coefficient
decompositions and closed-form cross-checks, Fourier extraction, Poincare
series and the second-order G series.

Each truncated coset series (E_{r,s}, psi, the Poincare series and G) is
one call of the kernel `_coset_sum`: a weight per non-trivial coset, summed
pairwise in the order of the coset table `group.cosets`, or for the
second-order series the coefficient-major period table times the weights in
one BLAS product, plus the identity-coset term; phi combines psi and
E_{r,s}.  A table sum's order is BLAS's: the same inputs on the same
Python, numpy, BLAS and CPU give bitwise-identical results for any BLAS
thread count and buffer offset.  Either reduction errs within the tail's
16-eps floor of the exactly rounded sum; a coset sum or tail that is not
finite raises PrecisionError.  The weights divide by an integer power of
the j array, raised by binary powering over the whole array (`_ipow`); the
weights of (s, r) are the exact conjugates of those of (r, s), so
E_{s,r} = conj E_{r,s} exactly.

Every coset (c, d0 + nc) is its reduced class (c, d0) times T^n, as the
coset table records.  The period table translates its class's period
polynomial, and the holomorphic weights e(n gz) of the Poincare series and G
read the table's top rows.

Every series value carries a tail estimate: an integral-comparison bound on
the truncated part, with its constant read off the outermost computed shells
(averaged over the last few values of c to smooth totient fluctuations),
plus a floating-point noise floor.  It is an estimate, not a proof-grade
bound, but it is sized so that doubling the rectangle moves the value by
less than it.  It reads the term magnitudes as |R| |w|: |w| per call, and
|R| from `_period_tables`, cached with R under one key (about 9 MiB for
weight 16 at C=80).  There is one coset order: the table lists the cosets
in the tail's blocks, so the total, the outer |d| band and the outer
c-shells are three contiguous slices, and R, |R|, the weights and the
workspace all share it.  A table's tail is one pass over |R|, a
matrix-vector product per block, split at `cuts`: the same bits on every
run, within 1e-12 of pairwise sums over masks.

A warm E_{r,s}, psi or phi allocates no n-sized array: the weight builders
return the pair (w, |w|) as views of one workspace (`_workspace`), which also
holds the powering's square; the holomorphic weights allocate theirs, as it
holds e(n gz).  It is thread-local and holds the last rectangle (C, D) only:
two complex and three float arrays, 56 bytes per coset.  A helper that
returns a workspace view says so; such a view is valid until the next coset
sum, and nothing holds one across it.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, PrecisionError
from .group import (
    BiWeight,
    PolyC,
    binomial_matrix,
    binomials,
    cosets,
    reduced_classes,
    taylor_shift,
)
from .periods import (
    _minus,
    eichler_F,
    eichler_moments,
    i_power,
    reduced_periods,
)
from .qforms import QExpansion, admissible_z, eval_tail_bound

_EPS = float(np.finfo(np.float64).eps)

#: default number of trapezoidal nodes in `fourier_coefficient`
DEFAULT_M = 128
#: relative mismatch between fn(iy) and fn(1 + iy) that rejects an integrand
_PERIODICITY_RTOL = 1e-6
#: cosets per block of the closed form's coset pass, which bounds its
#: working memory to a few block-sized rows
_BLOCK = 4096


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
        z = admissible_z(z)
        need = 4 * self.C * (abs(z.real) + 1.0)
        if self.D < need:
            raise ValueError(
                f"d-cutoff too small at x = {z.real}: need D >= {need}, got {self.D}"
            )

    def scaled(self, factor: int) -> "TruncationParams":
        return TruncationParams(self.C * factor, self.D * factor)


@dataclass
class SeriesValue:
    """Evaluated series (polynomial or scalar) plus its tail estimate."""

    value: object  # PolyC or complex
    tail_estimate: float


@lru_cache(maxsize=6)
def _period_tables(f: QExpansion, C: int, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Plus-sign period polynomials r(gamma; X) for every coset in the
    table's order, coefficient-major: shape (k-1, n_cosets), so each
    coefficient's row is contiguous for the reduction; and beside it their
    coefficientwise magnitudes |r(gamma; X)|, the float table against which
    the tail weighs |w|, with the same columns.

    Each coset is its class of `reduced_periods` times T^n, and
    r(gamma T^n; X) = r(gamma; X + n): the table is the class rows gathered
    per coset, expanded by translation in one `taylor_shift`.
    """
    data = cosets(C, D)
    R = taylor_shift(np.take(reduced_periods(f, C).periods.T, data.cls, axis=1), data.n)
    return R, np.abs(R)


class _Workspace:
    """The n-sized buffers of one rectangle's coset sums: the float coset
    rows `cs` and `ds`; the weights `w`; the magnitudes `mag`; and `spare`,
    the binary powering's square or e(n gz), whose first n floats (`flat`)
    take cs x and |j|^2's second term."""

    def __init__(self, C: int, D: int):
        data = cosets(C, D)
        n = data.cs.size
        self.key = (C, D)
        self.cs = data.cs.astype(np.float64)
        self.ds = data.ds.astype(np.float64)
        self.mag = np.empty(n)
        self.w = np.empty(n, dtype=np.complex128)
        self.spare = np.empty(n, dtype=np.complex128)
        self.flat = self.spare.view(np.float64)[:n]


_LOCAL = threading.local()


def _workspace(C: int, D: int) -> _Workspace:
    """This thread's workspace for the rectangle (C, D), built afresh when
    the last one served another rectangle, which is dropped first."""
    ws = getattr(_LOCAL, "ws", None)
    if ws is None or ws.key != (C, D):
        _LOCAL.ws = None
        ws = _LOCAL.ws = _Workspace(C, D)
    return ws


def _jarray(t: TruncationParams, z: complex) -> np.ndarray:
    """j(gamma, z) = cz + d over the cosets, after validating z, as the
    workspace view `w`.  Its parts are cs x + ds and cs y from the float
    coset rows, bitwise the complex cs z + ds; cs x goes through `flat`, as
    a strided write is slower than a contiguous one."""
    t.validate_at(z)
    z = complex(z)
    ws = _workspace(t.C, t.D)
    j = ws.w
    np.add(np.multiply(ws.cs, z.real, out=ws.flat), ws.ds, out=j.real)
    np.multiply(ws.cs, z.imag, out=j.imag)
    return j


def _ipow(base: np.ndarray, e: int, power: np.ndarray, square: np.ndarray) -> np.ndarray:
    """base ** e for an integer e >= 1, elementwise by binary powering
    through the buffers `square` and `power`, each updated in place (`power`
    may be `base` itself, which it then overwrites).  The result is `power`,
    or `square` when e is a power of two.  Complex products commute with
    conjugation, so _ipow(conj b, e) = conj _ipow(b, e) exactly."""
    square[...], started = base, False
    while True:
        if e & 1:
            if started:
                power *= square
            elif e == 1:
                return square  # no higher bit is left: the square is the last factor
            else:
                power[...], started = square, True
        e >>= 1
        if not e:
            return power
        square *= square


@np.errstate(all="ignore")  # an overflow makes the coset sum raise
def _rs_weights(
    t: TruncationParams, z: complex, w: BiWeight
) -> tuple[np.ndarray, np.ndarray]:
    """The weights j^(-r) jbar^(-s) and their magnitudes, as the workspace
    views `w` and `mag`: the real |j|^(-2m), m = min(r, s), over j^|r-s|,
    conjugated when s > r, so the weights of (s, r) are the exact conjugates
    of those of (r, s).  For r = s the weights are |j|^(-2m), their own
    magnitudes, with a zero imaginary part."""
    j = _jarray(t, z)
    ws = _workspace(t.C, t.D)
    scale = np.square(j.real, out=ws.mag)
    scale += np.square(j.imag, out=ws.flat)
    np.power(scale, -min(w.r, w.s), out=scale)
    if w.r == w.s:
        j.real, j.imag = scale, 0.0
        return j, scale
    wts = np.divide(scale, _ipow(j, abs(w.r - w.s), j, ws.spare), out=j)
    if w.s > w.r:
        np.conjugate(wts, out=wts)
    return wts, np.abs(wts, out=ws.mag)


@np.errstate(all="ignore")  # an overflow makes the coset sum raise
def _holo_weights(
    t: TruncationParams, z: complex, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The weights e(n gz) j^(-k) over the cosets, gz read off the top rows,
    and their magnitudes, as the workspace views `w` and `mag`.  The
    powering's square is a fresh array, as `spare` holds e(n gz)."""
    j = _jarray(t, z)
    ws = _workspace(t.C, t.D)
    a, b = cosets(t.C, t.D).tops
    gz = np.multiply(a, complex(z), out=ws.spare)
    gz += b
    gz /= j
    np.exp(np.multiply(2j * np.pi * n, gz, out=gz), out=gz)
    wts = np.divide(gz, _ipow(j, k, j, np.empty_like(j)), out=j)
    return wts, np.abs(wts, out=ws.mag)


@np.errstate(all="ignore")  # an overflow raises PrecisionError below
def _coset_sum(
    t: TruncationParams,
    z: complex,
    w: np.ndarray,
    wmag: np.ndarray,
    w0: float,
    R: np.ndarray | None = None,
    Rmag: np.ndarray | None = None,
    identity=None,
) -> tuple[object, float]:
    """The one truncated coset series: the weights `w` of the non-trivial
    cosets summed pairwise in the coset table's order, or for a second-order
    series the coefficient-major table `R` times `w` in one BLAS product,
    in BLAS's order, the same bits for any BLAS thread count and buffer
    offset; plus the identity-coset term.  Either errs like
    eps log(n_cosets), inside the tail's 16-eps floor.

    Returns (value, tail), or raises PrecisionError when either is not
    finite.  The tail reads the magnitudes `wmag` = |w| on the outermost
    computed shells, the blocks of the coset table: the c-tail scales the
    average of its last `shells` c-shells by the integral comparison
    sum_{c > C} (c/C)^(1-w0) ~ C/(w0-2), w0 > 2; the d-tail scales its
    outer |d| band, of width `band`, with decay exponent w0.  A factor 2
    pads shell roughness; a floor of 16 eps times the absolute sum (plus 1
    for an identity term) covers roundoff in the terms.  The total, the band
    and the shells are slices of the cosets: a scalar series sums |w| over
    each pairwise, a table weighs |w| against `Rmag` = |R| in one pass, a
    matrix-vector product per block between the `cuts`.
    """
    data = cosets(t.C, t.D)
    if R is None:
        value = w.sum()
        parts = (slice(None), slice(data.cuts[0], data.cuts[2]), slice(data.cuts[1], None))
        total, outer, shell = (wmag[sl].sum() for sl in parts)
    else:
        value = R @ w
        e = (0, *data.cuts, w.size)
        b0, b1, b2, b3 = (Rmag[:, lo:hi] @ wmag[lo:hi] for lo, hi in zip(e, e[1:]))
        outer, shell, total = b1 + b2, b2 + b3, b1 + b2 + b0 + b3
    if identity is not None:
        value = identity + value
    C, D, x = t.C, t.D, complex(z).real
    ctail = 2.0 * (shell / data.shells) * C / (w0 - 2.0)
    dtail = 2.0 * outer * max(D - C * abs(x), 1.0) / (data.band * (w0 - 1.0))
    extra = 1.0 if identity is not None else 0.0
    tail = float(np.max(ctail + dtail)) + 16.0 * _EPS * (float(np.max(total)) + extra)
    if not (math.isfinite(tail) and np.isfinite(value).all()):
        raise PrecisionError(f"the coset sum at z = {complex(z)} is not finite in float64")
    return value, tail


def _period_sum(
    hform: QExpansion,
    sign: str,
    t: TruncationParams,
    z: complex,
    wts: np.ndarray,
    wmag: np.ndarray,
    w0: float,
) -> tuple[PolyC, float]:
    """The second-order coset sum of the sign's period table against `wts`,
    of magnitudes `wmag`.  The '-' table is conj R, and conj(R) @ w =
    conj(R @ conj(w)) conjugates only the weights, in place, and the result;
    both tables have the magnitudes |R|, and |conj w| = |w|."""
    minus = _minus(sign)
    R, Rmag = _period_tables(hform, t.C, t.D)
    if minus:
        np.conjugate(wts, out=wts)
    value, tail = _coset_sum(t, z, wts, wmag, w0, R, Rmag)
    return PolyC(value.conj() if minus else value, hform.k - 2), tail


def eisenstein_rs(
    w: BiWeight, z: complex, t: TruncationParams = TruncationParams()
) -> SeriesValue:
    """Real-analytic Eisenstein series sum over B\\Gamma of
    j(g,z)^(-r) j(g, conj z)^(-s), identity coset contributing 1."""
    if w.r + w.s <= 2:
        raise ConvergenceError(f"weights ({w.r},{w.s}) diverge: r + s must exceed 2")
    return SeriesValue(*_coset_sum(t, z, *_rs_weights(t, z, w), w.r + w.s, identity=1.0))


def _check_psi(hform: QExpansion, w: BiWeight) -> None:
    if not hform.is_cusp:
        raise ValueError("psi requires a cusp form")
    if w.r + w.s <= hform.k:
        raise ConvergenceError(
            f"psi needs r + s > k = {hform.k}, got r + s = {w.r + w.s}"
        )


def psi_series(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> SeriesValue:
    """Second-order series sum over B\\Gamma of r(gamma; X) j^(-r) jbar^(-s);
    the identity coset contributes nothing."""
    _check_psi(hform, w)
    w0 = w.r + w.s - hform.k + 2
    return SeriesValue(*_period_sum(hform, sign, t, z, *_rs_weights(t, z, w), w0))


def phi(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> SeriesValue:
    """Invariant series sum over B\\Gamma of the slashed Eichler integral,
    assembled as psi + F * E; psi and E share one set of coset weights and
    their magnitudes, E summed first as the '-' sign conjugates the weights
    in place."""
    _check_psi(hform, w)
    z = admissible_z(z, q_series=True)  # F's floor, before any coset sum
    wts, wmag = _rs_weights(t, z, w)
    ev, etail = _coset_sum(t, z, wts, wmag, w.r + w.s, identity=1.0)
    psiv, ptail = _period_sum(hform, sign, t, z, wts, wmag, w.r + w.s - hform.k + 2)
    F = eichler_F(hform, z, sign)
    ftail = eval_tail_bound(hform, z.imag) / (2 * math.pi)
    tail = ptail + F.norm_inf() * etail + abs(ev) * ftail
    return SeriesValue(psiv + F * ev, tail)


def coeff_basis(z: complex, m: int) -> np.ndarray:
    """The basis of the coefficients phi(i): column i holds the ascending
    monomial coefficients of (X-z)^i (X-conj z)^(m-i)."""
    return binomial_matrix(1, -z, 1, -z.conjugate(), m)


def coeff_decompose(P: PolyC, z: complex, k: int) -> np.ndarray:
    """Coefficients phi(i) with P(X) = sum_i phi(i) (X-z)^i (X-conj z)^(k-2-i),
    by solving the monomial-basis linear system."""
    z = admissible_z(z)
    m = k - 2
    if P.bound > m:
        raise ValueError("polynomial degree exceeds k - 2")
    try:
        sol = np.linalg.solve(coeff_basis(z, m), PolyC(P.coeffs, m).coeffs)
    except np.linalg.LinAlgError as exc:  # unreachable for z in H
        raise ArithmeticError("singular decomposition system") from exc
    return sol


@lru_cache(maxsize=None)
def _closed_form_alpha(k: int) -> np.ndarray:
    """alpha[j, q, p] = i^(1-2j-m-n) binom(k-2, j) binom(j, m) binom(k-2-j, n)
    with m = j - q, n = p - j, zero outside q <= j <= p: the weight of the
    coset sum v[q, p] in phi(j).  Every factor is exact in float64."""
    K = k - 1
    j, q, p = np.ogrid[:K, :K, :K]
    m, n, B = j - q, p - j, binomials(k - 2)
    ipow = np.array([i_power(e) for e in range(4)])[(1 - 2 * j - m - n) % 4]
    alpha = ipow * B[k - 2, j] * B[j, m % K] * B[k - 2 - j, n % K]  # % K: a valid index
    alpha = np.where((q <= j) & (j <= p), alpha, 0)  # +0, not a signed zero product
    alpha.setflags(write=False)
    return alpha


def _closed_form_sums(
    hform: QExpansion, w: BiWeight, t: TruncationParams, z: complex
) -> np.ndarray:
    """v[q, p] = sum over the non-trivial cosets of
    Lambda_f(p-q+1, -d/c) c^(p-q-k+2) j^-(r+2-k+p) jbar^-(s-q), 0 <= q <= p <= k-2,
    taken in blocks of cosets.  With e = p - q the term is L[e] rho^q, where
    L[e] = Lambda_f(e+1, -d/c) c^(e-k+2) j^-(r+2-k+e) jbar^-s and rho = jbar/j,
    so v[q, q+e] is entry [q, e] of the block product rho^q @ L[e]^T, summed
    over the blocks.  The factors Lambda c^(e-k+2) are formed once per class
    and gathered per block.  Each block forms j = cs z + ds from the
    workspace's float coset rows, takes jbar as its conjugate (bitwise
    cs conj(z) + ds), and builds L and the powers of rho from one complex
    power each, by repeated multiplication with 1/j and with rho."""
    k, K = hform.k, hform.k - 1
    ws, cls = _workspace(t.C, t.D), cosets(t.C, t.D).cls
    cs, ds = ws.cs, ws.ds
    c0 = reduced_classes(t.C)[0].astype(np.float64)
    lam = reduced_periods(hform, t.C).values * c0 ** (np.arange(K)[:, None] - (k - 2))
    G = np.zeros((K, K), dtype=np.complex128)
    for lo in range(0, cs.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        j = cs[blk] * z + ds[blk]
        jb = j.conj()
        L = np.empty((K, j.size), dtype=np.complex128)
        rpow = np.empty_like(L)
        L[0] = j ** (k - 2 - w.r) * jb ** -w.s
        rpow[0] = 1.0
        jinv, rho = 1.0 / j, jb / j
        for e in range(1, K):
            L[e] = L[e - 1] * jinv
            rpow[e] = rpow[e - 1] * rho
        L *= lam[:, cls[blk]]
        G += rpow @ L.T
    v = np.zeros((K, K), dtype=np.complex128)
    for q in range(K):
        v[q, q:] = G[q, : K - q]
    return v


def closed_form_phi(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> np.ndarray:
    """Two-term closed formula for every basis coefficient phi(j; z),
    j = 0..k-2, as one read-only array.

    Plus case: boundary Eichler-type integral times the Eisenstein series,
    plus the double binomial sum over twisted L-values against automorphy
    factors.  With q = j - m and p = j + n the double sum regroups into the
    coset sums v[q, p] of `_closed_form_sums`, shared by every j.  The minus
    case is evaluated through the exact conjugation symmetry
    phi^-_{r,s}(j) = conj(phi^+_{s,r}(k-2-j)).  The last few results are
    cached.
    """
    _minus(sign)
    if w.r + w.s <= hform.k:
        raise ConvergenceError(f"needs r + s > k = {hform.k}")
    z = admissible_z(z, q_series=True)  # the moments' floor, before any coset sum
    t.validate_at(z)
    return _closed_form_phi(hform, w, sign, z, t)


@lru_cache(maxsize=8)
def _closed_form_phi(
    hform: QExpansion, w: BiWeight, sign: str, z: complex, t: TruncationParams
) -> np.ndarray:
    if sign == "-":
        out = _closed_form_phi(hform, w.swapped(), "+", z, t)[::-1].conj()
        out.setflags(write=False)
        return out
    k = hform.k
    # prefactor from w - X = ((w-z)(X-cz) + (cz-w)(X-z)) / (z - cz)
    pref = (z - z.conjugate()) ** (2 - k)
    # boundary term: the Eichler moments against the basis polynomial of phi(j)
    bnd_int = (eichler_moments(hform, z, k - 2) @ coeff_basis(z, k - 2))[::-1]
    sgn_binom = binomials(k - 2)[k - 2] * (-1.0) ** np.arange(k - 1)
    v = _closed_form_sums(hform, w, t, z)
    out = sgn_binom * pref * bnd_int * eisenstein_rs(w, z, t).value
    out += pref * np.einsum("jqp,qp->j", _closed_form_alpha(k), v)
    out.setflags(write=False)  # cached and shared by every caller
    return out


def closed_form_phi_j(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    j: int,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> complex:
    """The closed formula for one basis coefficient phi(j; z): entry j of
    `closed_form_phi`."""
    k = hform.k
    if not 0 <= j <= k - 2:
        raise ValueError(f"j must lie in 0..{k - 2}")
    return complex(closed_form_phi(hform, w, sign, z, t)[j])


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
    return complex((vals * phase).sum()) / M


def poincare(
    n: int, k: int, z: complex, t: TruncationParams = TruncationParams()
) -> SeriesValue:
    """Holomorphic Poincare series sum over B\\Gamma of e^(2 pi i n gz) j^(-k);
    n = 0 is the weight-k Eisenstein series."""
    if k < 4 or k % 2 != 0:
        raise ConvergenceError("Poincare series needs even k >= 4")
    if n < 0:
        raise ValueError("n must be >= 0")
    identity = cmath.exp(2j * math.pi * n * complex(z))
    return SeriesValue(*_coset_sum(t, z, *_holo_weights(t, z, n, k), k, identity=identity))


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
    return SeriesValue(*_period_sum(hform, sign, t, z, *_holo_weights(t, z, n, k), k - k1 + 2))
