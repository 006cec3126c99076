"""Truncated coset sums over B\\Gamma: real-analytic Eisenstein series, the
second-order series psi/phi attached to a cusp form, their coefficient
decompositions and closed-form cross-checks, Fourier extraction, Poincare
series and the second-order G series.

Each truncated coset series (E_{r,s}, psi, the Poincare series and G) is
one call of the kernel `_coset_sum`: a weight per non-trivial coset, summed
pairwise in the order of the coset table `group.cosets`, or for the
second-order series the coefficient-major period table times the weights in
two BLAS products, plus the identity-coset term; phi combines psi and
E_{r,s}.  A table sum's order is BLAS's: the same inputs on the same
Python, numpy, BLAS and CPU give bitwise-identical results for any BLAS
thread count and buffer offset.  Either reduction errs within the tail's
16-eps floor of the exactly rounded sum; a coset sum or tail that is not
finite raises PrecisionError.  The weights take an integer power of the j
array, raised by binary powering over the whole array (`_ipow`); the
weights of (s, r) are the exact conjugates of those of (r, s), so
E_{s,r} = conj E_{r,s} exactly.

Every coset (c, d0 + nc) is its reduced class (c, d0) times T^n, as the
coset table records.  It lists the cosets with d >= 0, and the weights are
two rows, at j = cz + d and at the mirrors' cz - d ((1, 0) is its own).
A form's coefficients are rational, so r(eps g eps; X) = -conj r(g; -X),
eps = diag(-1, 1): the period table stores the d >= 0 half, each column a
translation by n >= 0 of its class's period polynomial, and a table sum is
R @ w+ + M conj(R @ conj w-), M = diag((-1)^(i+1)).  The holomorphic
weights e(n gz) of the Poincare series and G read the table's top rows.

Every series value carries a tail estimate: an integral-comparison bound on
the truncated part, with its constant read off the outermost computed shells
(averaged over the last few values of c to smooth totient fluctuations),
plus a floating-point noise floor.  It is an estimate, not a proof-grade
bound, but it is sized so that doubling the rectangle moves the value by
less than it.  It reads the term magnitudes as |R| |w|: |w| per call, summed
over a coset and its mirror, which share |R|, and |R| from `_period_tables`,
cached with R under one key (4.5 MiB for weight 16 at C=80).  There is one
coset order: the table lists the cosets in the tail's blocks, so the total,
the outer |d| band and the outer c-shells are three contiguous slices, and
R, |R|, the weights and the workspace all share it.  A table's tail is one
pass over |R|, a matrix-vector product per block, split at `cuts`: the same
bits on every run, within 1e-12 of pairwise sums over masks.

A warm E_{r,s}, psi or phi allocates no n-sized array: the weight builders
return the pair (w, |w+| + |w-|) as views of one workspace (`_workspace`),
which also holds the powering's square; the holomorphic weights allocate
e(n gz).  It is thread-local and holds the last rectangle (C, D) only: two
float rows and, for each row of weights, one float and two complex arrays,
96 bytes per stored coset.  A helper that returns a workspace view says so;
such a view is valid until the next coset sum, and nothing holds one across
it.

A point is summed once.  Every public coset series, and the closed form,
validates its arguments (convergence, sign, the point and, for phi, its
q-series floor) and then reads one bounded cache of point values
(`_point_value`, the `_POINT_CACHE` most recently used), keyed by the
private series, its exact arguments (form, weights, sign, n and k,
truncation) and the bit pattern of the validated point (`_point_key`, so
0.0 and -0.0 stay apart).  A miss runs the series, so a hit is bitwise
the value and tail of a fresh call; a call that raises caches nothing, and
a polynomial is handed out, with no copy, as a read-only view of its cached
array.  A second Fourier mode at the same nodes, or a check that revisits a
point, sums no coset.

A point left of the axis is read from its mirror.  Conjugation by eps
normalises B and maps the rectangle onto itself, so at x < 0 (not -0.0)
every public coset series is the `_image` of its entry at -conj z
(`_series_value`): E_{r,s} and the Poincare series read conj, and psi, G
and phi read -conj(.)(-X), phi as F(-conj z; X) = -conj F(z; -X) for a
form with real coefficients.  Each tail keeps its bits, and a value lies
within its tail of a fresh sum at z.  The closed form's own coset pass is
not reflected.  `fourier_coefficient` samples a grid symmetric about 0, so
a mode sums the cosets at about half its nodes.
"""

from __future__ import annotations

import cmath
import math
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, PrecisionError
from .group import (
    BiWeight,
    binomial_matrix,
    binomials,
    check_integers,
    cosets,
    read_only,
    reduced_classes,
    taylor_shift,
)
from .periods import _EPS, _eichler, _minus, eichler_F, i_power, reduced_periods
from .qforms import QExpansion, admissible_z, eval_tail_bound

#: default number of trapezoidal nodes in `fourier_coefficient`
DEFAULT_M = 128
#: relative mismatch between fn(iy) and fn(1 + iy) that rejects an integrand
_PERIODICITY_RTOL = 1e-6
#: cosets per block of the closed form's coset pass: its working memory is
#: three (k-1) x _BLOCK complex buffers, allocated once per pass and refilled
_BLOCK = 4096
#: values held by the point cache `_point_value`: both passes of one
#: `fourier_coefficient` at the default M store M/2 + 1 = 65 entries per
#: series, its nodes with x >= 0 and the probe at 1/2, so it holds several
#: series or heights beside them (about 0.3 MiB at weight 16)
_POINT_CACHE = 512


@dataclass(frozen=True)
class TruncationParams:
    """Deterministic truncation of coset sums: 0 < c <= C, |d| <= D."""

    C: int = 40
    D: int = 400

    def __post_init__(self):
        check_integers(C=self.C, D=self.D)
        if self.C < 1 or self.D < 1:
            raise ValueError("C and D must be >= 1")

    def validate_at(self, z: complex, q_series: bool = False) -> complex:
        """z as a complex, once it is a finite point of the upper half-plane
        (with `q_series`, at or above the q-series floor) inside a rectangle
        wide enough for its real part: every coset series is evaluated there."""
        z = admissible_z(z, q_series)
        need = 4 * self.C * (abs(z.real) + 1.0)
        if self.D < need:
            raise ValueError(
                f"d-cutoff too small at x = {z.real}: need D >= {need}, got {self.D}"
            )
        return z

    def scaled(self, factor: int) -> "TruncationParams":
        return TruncationParams(self.C * factor, self.D * factor)


class _Coeffs(np.ndarray):
    """A polynomial series value: a read-only view of its cached array or of
    that array's `_image`, kept by numpy arithmetic.  Its one member,
    `norm_inf`, is read by the benchmark's sweep checks (perfbench/worker.py)."""

    def norm_inf(self) -> float:
        return float(np.abs(self).max())


@dataclass
class SeriesValue:
    """Evaluated series plus its tail estimate: a complex, or the ascending
    coefficients of a polynomial in X as a read-only array of length k - 1."""

    value: object  # complex or _Coeffs
    tail_estimate: float


def _point_key(z: complex) -> bytes:
    """The bit pattern of a complex point, the key of the point cache:
    unlike the complex itself, it keeps 0.0 and -0.0 apart."""
    return struct.pack("<2d", z.real, z.imag)


@lru_cache(maxsize=_POINT_CACHE)
def _point_value(series, t: TruncationParams, key: bytes, *args):
    """series(t, z, *args) at the validated point z whose bit pattern is
    `key` (`_point_key`), kept for later calls with the same series,
    arguments and key: a miss runs the series itself, and a call that
    raises caches nothing.  A value is shared by every hit, so its arrays
    are read-only, and a caller that writes makes its own copy."""
    return series(t, complex(*struct.unpack("<2d", key)), *args)


@lru_cache(maxsize=6)
def _period_tables(f: QExpansion, C: int, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Plus-sign period polynomials r(gamma; X) for the cosets of the
    table, d >= 0, in its order, coefficient-major: shape (k-1, n_H), so
    each coefficient's row is contiguous for the reduction; and beside it
    their coefficientwise magnitudes |r(gamma; X)|, a mirror's too, the
    float table against which the tail weighs |w|, with the same columns.

    Each coset is its class of `reduced_periods` times T^n, n >= 0, and
    r(gamma T^n; X) = r(gamma; X + n): the table is the class rows gathered
    per coset, expanded by translation in one `taylor_shift`.
    """
    data = cosets(C, D)
    R = taylor_shift(np.take(reduced_periods(f, C).periods.T, data.cls, axis=1), data.n)
    return read_only(R), read_only(np.abs(R))


class _Workspace:
    """The buffers of one rectangle's coset sums, n_H per row: the float
    coset rows `cs` and `ds`; and of shape (2, n_H), a row for the cosets
    and one for their mirrors, the weights `w`, the magnitudes `mag` and
    `spare`, the binary powering's square, whose first 2 n_H floats
    (`flat`) take cs x and |j|^2's second term; and the tail's constants,
    the table's `shells`, `band`, `parts` (slices) and `blocks`."""

    def __init__(self, C: int, D: int):
        data = cosets(C, D)
        n = data.cs.size
        self.key = (C, D)
        self.fixed = int(np.flatnonzero(data.ds == 0)[0])  # (1, 0), its own mirror
        self.shells, self.band, (c0, c1, c2) = data.shells, data.band, data.cuts
        self.parts = (slice(None), slice(c0, c2), slice(c1, None))
        self.blocks = (slice(0, c0), slice(c0, c1), slice(c1, c2), slice(c2, None))
        self.cs = data.cs.astype(np.float64)
        self.ds = data.ds.astype(np.float64)
        self.mag = np.empty((2, n))
        self.w = np.empty((2, n), dtype=np.complex128)
        self.spare = np.empty((2, n), dtype=np.complex128)
        self.flat = self.spare.view(np.float64).reshape(-1)[: 2 * n].reshape(2, n)


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
    """j(gamma, z) over the cosets at a validated z, as the workspace view
    `w`: cz + d in row 0 and the mirrors' cz - d in row 1 (at conj z, their
    conjugates jbar).  Its parts are cs x +- ds and cs y from the float
    coset rows, bitwise the complex cs z +- ds; cs x goes through `flat`, as
    a strided write is slower than a contiguous one."""
    ws = _workspace(t.C, t.D)
    j = ws.w
    cx = np.multiply(ws.cs, z.real, out=ws.flat[0])
    np.add(cx, ws.ds, out=j[0].real)
    np.subtract(cx, ws.ds, out=j[1].real)
    np.multiply(ws.cs, z.imag, out=j.imag)
    return j


def _ipow(base: np.ndarray, e: int, power: np.ndarray, square: np.ndarray) -> np.ndarray:
    """base ** e for an integer e >= 1, elementwise by binary powering
    through the buffers `square` and `power`, each updated in place (`power`
    may be `base` itself, which it then overwrites).  The result is `base`
    when e = 1, `square` when e is a higher power of two, else `power`.
    Complex products commute with conjugation, so
    _ipow(conj b, e) = conj _ipow(b, e) exactly."""
    factor, started = base, False
    while True:
        if e & 1:
            if started:
                power *= factor
            elif e == 1:
                return factor  # no higher bit is left: the last factor
            else:
                power[...], started = factor, True
        e >>= 1
        if not e:
            return power
        factor = np.multiply(factor, factor, out=square)


def _automorphy(ws: _Workspace, j: np.ndarray, r: int, s: int) -> np.ndarray:
    """j^(-r) jbar^(-s) in place of `j`, both rows, the mirror of (1, 0)
    zero, from j when s >= r and from jbar when r > s: rho^(-max(r, s)),
    rho = |j|^2, in `mag`, times the given array to the power |r-s|, so the
    weights of (s, r) are the exact conjugates of those of (r, s).  For r = s
    they are real, `mag` itself."""
    scale = np.square(j.real, out=ws.mag)
    scale += np.square(j.imag, out=ws.flat)
    np.power(scale, -max(r, s), out=scale)
    scale[1, ws.fixed] = 0.0
    if r == s:
        j.real, j.imag = scale, 0.0
        return j
    return np.multiply(_ipow(j, abs(r - s), j, ws.spare), scale, out=j)


@np.errstate(all="ignore")  # an overflow makes the coset sum raise
def _rs_weights(
    t: TruncationParams, z: complex, w: BiWeight
) -> tuple[np.ndarray, np.ndarray]:
    """The weights j^(-r) jbar^(-s) of both rows at a validated z and their
    summed magnitudes, as the workspace views `w` and `mag[0]`."""
    ws = _workspace(t.C, t.D)  # for r > s from jbar, the j array at conj z
    wts = _automorphy(ws, _jarray(t, z.conjugate() if w.r > w.s else z), w.r, w.s)
    mag = ws.mag if w.r == w.s else np.abs(wts, out=ws.mag)
    mag[0] += mag[1]
    return wts, mag[0]


@np.errstate(all="ignore")  # an overflow makes the coset sum raise
def _holo_weights(
    t: TruncationParams, z: complex, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The weights e(n gz) j^(-k) of both rows at a validated z, gz read off
    the top rows, (-a, b) for a mirror, and their summed magnitudes, as the
    workspace views `w` and `mag[0]`: the weights of E_{k,0} times e(n gz),
    the same bits at n = 0.  e(n gz) is a fresh array, as `spare` holds the
    powering's square."""
    j = _jarray(t, z)
    ws = _workspace(t.C, t.D)
    a, b = cosets(t.C, t.D).tops
    gz = np.empty_like(j)
    np.multiply(a, z, out=gz[0])
    np.subtract(b, gz[0], out=gz[1])
    gz[0] += b
    gz /= j
    np.exp(np.multiply(2j * np.pi * n, gz, out=gz), out=gz)
    wts = _automorphy(ws, np.conjugate(j, out=j), k, 0)
    wts *= gz
    mag = np.abs(wts, out=ws.mag)
    mag[0] += mag[1]
    return wts, mag[0]


#: the diagonal (-1)^(i+1), i = 1..K, of M, built once per K
_mirror_signs = lru_cache(maxsize=None)(lambda K: read_only((-1.0) ** np.arange(1, K + 1)))


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
    minus: bool = False,
) -> tuple[object, float]:
    """The one truncated coset series: the weights `w` of the non-trivial
    cosets, rows w+ and w- (the mirrors), summed pairwise in the coset
    table's order, or for a second-order series the coefficient-major table
    `R` times `w` in two BLAS products, R @ w+ + M conj(R @ conj w-), in
    BLAS's order, the same bits for any BLAS thread count and buffer offset,
    with one row of `w` conjugated in place ('-' sign, `minus`: conj of the
    sum over conj w); plus the identity-coset term.  Either errs like
    eps log(n_cosets), inside the tail's 16-eps floor.

    Returns (value, tail), or raises PrecisionError when either is not
    finite.  The tail reads `wmag` = |w+| + |w-| on the outermost computed
    shells, the blocks of the coset table: the c-tail scales the
    average of its last `shells` c-shells by the integral comparison
    sum_{c > C} (c/C)^(1-w0) ~ C/(w0-2), w0 > 2; the d-tail scales its
    outer |d| band, of width `band`, with decay exponent w0.  A factor 2
    pads shell roughness; a floor of 16 eps times the absolute sum (plus 1
    for an identity term) covers roundoff in the terms.  The total, the band
    and the shells are slices of the cosets: a scalar series sums `wmag`
    over each pairwise, a table weighs it against `Rmag` = |R| in one pass,
    a matrix-vector product per block between the `cuts`.
    """
    ws = _workspace(t.C, t.D)
    if R is None:
        value = w.sum()
        total, outer, shell = (float(wmag[sl].sum()) for sl in ws.parts)
    else:
        row = w[0] if minus else w[1]
        np.conjugate(row, out=row)
        value = R @ w[0] + np.conj(R @ w[1]) * _mirror_signs(R.shape[0])
        value = read_only(value.conj() if minus else value)
        b0, b1, b2, b3 = (Rmag[:, sl] @ wmag[sl] for sl in ws.blocks)
        outer, shell, total = b1 + b2, b2 + b3, b1 + b2 + b0 + b3
    if identity is not None:
        value = identity + value
    C, D, x = t.C, t.D, complex(z).real
    ctail = 2.0 * (shell / ws.shells) * C / (w0 - 2.0)
    dtail = 2.0 * outer * max(D - C * abs(x), 1.0) / (ws.band * (w0 - 1.0))
    peak = ctail + dtail
    if R is None:  # the tail in Python floats, in the same order of operations
        finite = cmath.isfinite(value)
    else:  # a tail per coefficient: the largest
        peak, total, finite = float(peak.max()), float(total.max()), np.isfinite(value).all()
    tail = peak + 16.0 * _EPS * (total + (1.0 if identity is not None else 0.0))
    if not (math.isfinite(tail) and finite):
        raise PrecisionError(f"the coset sum at z = {complex(z)} is not finite in float64")
    return value, tail


def _image(value):
    """The value at -conj z of a coset series whose value at z is `value`.
    eps = diag(-1, 1) normalises B and maps the rectangle onto itself, so a
    scalar series, E_{r,s} or P_n, reads conj (E_{r,s}(-conj z) =
    conj E_{r,s}(z)), and a coefficient array, psi, G or phi, as
    r(eps g eps; X) = -conj r(g; -X), reads M conj
    (psi(-conj z; X) = -conj psi(z; -X)), either sign."""
    if np.ndim(value) == 0:
        return value.conjugate()
    return _mirror_signs(value.size) * value.conj()


def _series_value(series, t: TruncationParams, z: complex, *args) -> SeriesValue:
    """The public value of `series` at a validated z, read from the point
    cache; at x < 0 (not -0.0), the `_image` of the entry at -conj z, whose
    terms are those at z with each coset and its mirror swapped, so its tail
    holds the same bits.  A coefficient array is handed out, with no copy, as
    a read-only `_Coeffs` view of the cached array or of its image."""
    if z.real < 0:
        value, tail = _point_value(series, t, _point_key(complex(-z.real, z.imag)), *args)
        value = _image(value)
    else:
        value, tail = _point_value(series, t, _point_key(z), *args)
    return SeriesValue(value if np.ndim(value) == 0 else read_only(value.view(_Coeffs)), tail)


def _eisenstein_sum(t: TruncationParams, z: complex, w: BiWeight) -> tuple[complex, float]:
    return _coset_sum(t, z, *_rs_weights(t, z, w), w.r + w.s, identity=1.0)


def eisenstein_rs(
    w: BiWeight, z: complex, t: TruncationParams = TruncationParams()
) -> SeriesValue:
    """Real-analytic Eisenstein series sum over B\\Gamma of
    j(g,z)^(-r) j(g, conj z)^(-s), identity coset contributing 1."""
    if w.r + w.s <= 2:
        raise ConvergenceError(f"weights ({w.r},{w.s}) diverge: r + s must exceed 2")
    return _series_value(_eisenstein_sum, t, t.validate_at(z), w)


def _check_psi(hform: QExpansion, w: BiWeight) -> None:
    if not hform.is_cusp:
        raise ValueError("psi requires a cusp form")
    if w.r + w.s <= hform.k:
        raise ConvergenceError(
            f"psi needs r + s > k = {hform.k}, got r + s = {w.r + w.s}"
        )


def _psi_sum(
    t: TruncationParams, z: complex, hform: QExpansion, w: BiWeight, minus: bool
) -> tuple[np.ndarray, float]:
    tables, w0 = _period_tables(hform, t.C, t.D), w.r + w.s - hform.k + 2
    return _coset_sum(t, z, *_rs_weights(t, z, w), w0, *tables, minus=minus)


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
    return _series_value(_psi_sum, t, t.validate_at(z), hform, w, _minus(sign))


def _phi_sum(
    t: TruncationParams, z: complex, hform: QExpansion, w: BiWeight, minus: bool
) -> tuple[np.ndarray, float]:
    """phi at a validated z: E and psi summed at z from one set of weights,
    E first, as the table sum conjugates one row of the weights in place;
    assembled with F at z."""
    wts, wmag = _rs_weights(t, z, w)
    tables, w0 = _period_tables(hform, t.C, t.D), w.r + w.s - hform.k + 2
    ev, etail = _coset_sum(t, z, wts, wmag, w.r + w.s, identity=1.0)
    psiv, ptail = _coset_sum(t, z, wts, wmag, w0, *tables, minus=minus)
    F = _eichler(hform, z, minus)
    ftail = eval_tail_bound(hform, z.imag) / (2 * math.pi)
    tail = ptail + float(np.abs(F).max()) * etail + abs(ev) * ftail
    return read_only(np.zeros_like(psiv) + psiv + F * ev), tail


def phi(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
) -> SeriesValue:
    """Invariant series sum over B\\Gamma of the slashed Eichler integral,
    assembled as psi + F * E from zero, as a sum of polynomials (so a -0.0
    of psi reads +0.0); psi and E share one set of coset weights and their
    magnitudes."""
    _check_psi(hform, w)
    z = t.validate_at(z, q_series=True)  # F's floor, before any coset sum
    return _series_value(_phi_sum, t, z, hform, w, _minus(sign))


def coeff_basis(z: complex, m: int) -> np.ndarray:
    """The basis of the coefficients phi(i): column i holds the ascending
    monomial coefficients of (X-z)^i (X-conj z)^(m-i)."""
    return binomial_matrix(1, -z, 1, -z.conjugate(), m)


def coeff_decompose(P: np.ndarray, z: complex, k: int) -> np.ndarray:
    """Coefficients phi(i) with P(X) = sum_i phi(i) (X-z)^i (X-conj z)^(k-2-i),
    P the k - 1 ascending coefficients of a polynomial: with
    u = (X - z)/(X - conj z), the slash of P by (-conj z  z; -1  1), which
    sends u to X, is (z - conj z)^(k-2) sum_i phi(i) X^i."""
    z, m = admissible_z(z), k - 2
    if np.shape(P) != (k - 1,):
        raise ValueError(f"need {k - 1} polynomial coefficients, got shape {np.shape(P)}")
    slashed = binomial_matrix(-z.conjugate(), z, -1, 1, m) @ np.asarray(P)
    return slashed * (z - z.conjugate()) ** -m


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
    return read_only(np.where((q <= j) & (j <= p), alpha, 0))  # +0, not a signed zero product


def _lambda_c(lam: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """Lambda c^(e-k+2) at [e, i] from the Lambda values at [e, i] of the
    cusps -d/c[i]: c^(k-2-e) by repeated multiplication, then its reciprocal,
    so every entry has the same bits in any batch of classes; in C order,
    which a block's gather of columns reads without a copy."""
    c = np.asarray(c, dtype=np.float64)
    steps = np.vstack([np.ones_like(c), np.broadcast_to(c, (k - 2, c.size))])
    return np.multiply(lam, 1.0 / np.cumprod(steps, axis=0)[::-1], order="C")


def _closed_form_sums(
    hform: QExpansion, w: BiWeight, t: TruncationParams, z: complex
) -> np.ndarray:
    """v[q, p] = sum over the non-trivial cosets of
    Lambda_f(p-q+1, -d/c) c^(p-q-k+2) j^-(r+2-k+p) jbar^-(s-q), 0 <= q <= p <= k-2,
    taken in blocks of cosets.  With e = p - q the term is L[e] rho^q, where
    L[e] = Lambda_f(e+1, -d/c) c^(e-k+2) j^-(r+2-k+e) jbar^-s and rho = jbar/j,
    so v[q, q+e] is entry [q, e] of the block product rho^q @ L[e]^T, summed
    over the blocks.  The factors Lambda c^(e-k+2) are formed once per
    class (`_lambda_c`) and gathered per block, conjugated for the mirrors:
    Lambda(s, d/c) = conj Lambda(s, -d/c).  Each block, then its mirrors,
    forms j = cs z +- ds from the workspace's float coset rows, takes jbar
    as its conjugate (bitwise cs conj(z) +- ds), and builds L and the powers
    of rho from one complex power each, by repeated multiplication with 1/j
    and with rho.  L, the powers of rho and the gathered rows (conjugated in
    place for the mirrors) are three buffers allocated once per call."""
    k, K = hform.k, hform.k - 1
    ws, data = _workspace(t.C, t.D), cosets(t.C, t.D)
    cs, ds = ws.cs, ws.ds
    lam = _lambda_c(reduced_periods(hform, t.C).values, reduced_classes(t.C)[0], k)
    G = np.zeros((K, K), dtype=np.complex128)
    bufs = np.empty((3, K * min(_BLOCK, cs.size)), dtype=np.complex128)
    for lo in range(0, cs.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        lam_blk, Lb, rb = (buf[: K * cs[blk].size].reshape(K, -1) for buf in bufs)
        np.take(lam, data.cls[blk], axis=1, out=lam_blk, mode="clip")  # clip: unbuffered
        for sgn in (1.0, -1.0):
            if sgn < 0:  # the mirrors' rows; (1, 0) has no mirror
                np.conjugate(lam_blk, out=lam_blk)[:, ds[blk] == 0] = 0.0
            j = cs[blk] * z + sgn * ds[blk]
            jb = j.conj()
            np.multiply(j ** (k - 2 - w.r), jb ** -w.s, out=Lb[0])
            rb[0] = 1.0
            jinv, rho = 1.0 / j, jb / j
            for e in range(1, K):
                np.multiply(Lb[e - 1], jinv, out=Lb[e])
                np.multiply(rb[e - 1], rho, out=rb[e])
            Lb *= lam_blk
            G += rb @ Lb.T
    q, p = np.ogrid[:K, :K]
    return np.where(q <= p, G[q, (p - q) % K], 0)  # v[q, p] = G[q, p - q]; % K: a valid index


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
    phi^-_{r,s}(j) = conj(phi^+_{s,r}(k-2-j)).  The plus arrays are held
    by the point cache `_point_value`.
    """
    _check_psi(hform, w)
    key = _point_key(t.validate_at(z, q_series=True))  # F's floor, before any coset sum
    if not _minus(sign):
        return _point_value(_closed_form_plus, t, key, hform, w)
    return read_only(_point_value(_closed_form_plus, t, key, hform, w.swapped())[::-1].conj())


def _closed_form_plus(
    t: TruncationParams, z: complex, hform: QExpansion, w: BiWeight
) -> np.ndarray:
    k = hform.k
    # boundary term: the Eichler integral in the basis of phi(j), times E
    out = coeff_decompose(eichler_F(hform, z), z, k) * eisenstein_rs(w, z, t).value
    # prefactor from w - X = ((w-z)(X-cz) + (cz-w)(X-z)) / (z - cz)
    pref = (z - z.conjugate()) ** (2 - k)
    out += pref * np.einsum("jqp,qp->j", _closed_form_alpha(k), _closed_form_sums(hform, w, t, z))
    return read_only(out)


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
    check_integers(j=j)
    if not 0 <= j <= k - 2:
        raise ValueError(f"j must lie in 0..{k - 2}")
    return complex(closed_form_phi(hform, w, sign, z, t)[j])


def fourier_coefficient(fn, l: int, y: float, M: int = DEFAULT_M) -> complex:
    """Trapezoidal Fourier mode int_{-1/2}^{1/2} fn(x + iy) e^(-2 pi i l x) dx
    on the nodes x_m = -1/2 + m/M, m = 0..M-1.

    Spectrally accurate for smooth 1-periodic integrands, on any shifted
    grid of a period; raises if the integrand visibly fails periodicity
    between x = -1/2 and x = 1/2.  Makes M + 1 evaluations: the probe at
    x = -1/2 is also the first node.  The grid is symmetric about 0, -x_m
    is x_{M-m} bitwise, so a coset series sums the cosets at the nodes with
    x >= 0 and the probe at 1/2 only, and reads each other node from its
    mirror; for even M the M/2 nodes are among the M.
    """
    check_integers(l=l, M=M)
    if M < 64:
        raise ValueError("M must be >= 64")
    xs = (2.0 * np.arange(M) - M) / (2 * M)  # the exact quotients: -x_m is x_{M-m}
    left = fn(complex(xs[0], y))
    right = fn(complex(0.5, y))
    scale = max(1.0, abs(left))
    if abs(left - right) > _PERIODICITY_RTOL * scale:
        raise ValueError("integrand is not 1-periodic in x")
    vals = np.array([left] + [fn(complex(x, y)) for x in xs[1:]], dtype=np.complex128)
    phase = np.exp(-2j * np.pi * l * xs)
    return complex((vals * phase).sum()) / M


def poincare(
    n: int, k: int, z: complex, t: TruncationParams = TruncationParams()
) -> SeriesValue:
    """Holomorphic Poincare series sum over B\\Gamma of e^(2 pi i n gz) j^(-k);
    n = 0 is the weight-k Eisenstein series."""
    check_integers(n=n, k=k)
    if k < 4 or k % 2 != 0:
        raise ConvergenceError("Poincare series needs even k >= 4")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _series_value(_poincare_sum, t, t.validate_at(z), n, k)


def _poincare_sum(t: TruncationParams, z: complex, n: int, k: int) -> tuple[complex, float]:
    identity = cmath.exp(2j * math.pi * n * z)
    return _coset_sum(t, z, *_holo_weights(t, z, n, k), k, identity=identity)


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
    check_integers(n=n, k=k)
    k1 = hform.k
    if not (k % 2 == 0 and k > k1 > 2):
        raise ConvergenceError(f"need even k > k1 = {k1} > 2, got k = {k}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _series_value(_second_order_sum, t, t.validate_at(z), n, hform, k, _minus(sign))


def _second_order_sum(
    t: TruncationParams, z: complex, n: int, hform: QExpansion, k: int, minus: bool
) -> tuple[np.ndarray, float]:
    tables, w0 = _period_tables(hform, t.C, t.D), k - hform.k + 2
    return _coset_sum(t, z, *_holo_weights(t, z, n, k), w0, *tables, minus=minus)
