"""Eichler integrals, period polynomials and additively twisted L-values.

The period cocycle is anchored at a single high-accuracy value r(S) computed
from the Eichler integral at the fixed point i of S; every other period
polynomial is a sum of slashes of r(S) down the Euclid chain of g (Manin's
continued-fraction reduction), r(T^q S g') = r(S)|g' + r(g'), so no
evaluation ever happens at small imaginary part.  The slashes of r(S) are
rows of one batched `group.slash_rows` call: one per chain in
`period_poly`, and one over every class in `reduced_periods`, which then
adds each class's Euclid parent row level by level in c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError
from .group import (
    GroupElement,
    PolyC,
    S,
    act_poly,
    binomials,
    class_tops,
    complete_row,
    euclid_chain,
    mobius,
    reduced_classes,
    slash_rows,
    taylor_shift,
    word_decompose,
)
from .qforms import QExpansion, admissible_z, eval_form_anywhere, eval_tail_bound

TWO_PI = 2.0 * math.pi

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def i_power(m: int) -> complex:
    """Exact i^m as one of {1, i, -1, -i}."""
    return _I_POW[m % 4]


def exp_poly_primitive(n: int, m: int, z: complex) -> complex:
    """Primitive of e^(2 pi i n w) w^m vanishing at i*infinity, evaluated at z.

    Recurrence: I_m = e^(2 pi i n z) z^m / (2 pi i n) - (m / (2 pi i n)) I_{m-1}.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1, m >= 0")
    z = admissible_z(z)
    return complex(_exp_primitives(np.array([n]), m, z)[0, m])


def _exp_primitives(ns: np.ndarray, m: int, z: complex) -> np.ndarray:
    """I_t(n; z) at [i, t] for every frequency n = ns[i] and t = 0..m: the
    recurrence of `exp_poly_primitive` run for all frequencies at once."""
    z = complex(z)
    c = 1.0 / (2j * math.pi * ns)
    e = np.exp(2j * math.pi * ns * z)
    rows = np.empty((len(ns), m + 1), dtype=np.complex128)
    rows[:, 0] = e * c
    zp = 1.0 + 0j
    for t in range(1, m + 1):
        zp *= z
        rows[:, t] = e * zp * c - t * c * rows[:, t - 1]
    return rows


@lru_cache(maxsize=8)
def _coeff_array(f: QExpansion) -> np.ndarray:
    """Read-only complex coefficients a(1..N) of a q-expansion."""
    a = np.array([complex(x) for x in f.coeffs[1:]], dtype=np.complex128)
    a.setflags(write=False)  # cached and shared by every moment
    return a


def eichler_moments(f: QExpansion, z: complex, m: int) -> np.ndarray:
    """Integrals from i*infinity to z of f(w) w^j dw for j = 0..m, termwise
    over the q-expansion: the primitives of every frequency n = 1..N weighted
    by the coefficients a(n).  The frequencies past the last whose e(nz) is
    not exactly 0 are left out: their rows are exact zeros, which leave the
    sequential sum over the frequencies unchanged."""
    a = _coeff_array(f)
    ns = np.arange(1, f.N + 1)
    live = np.flatnonzero(np.exp(2j * math.pi * ns * complex(z)))
    n = int(live[-1]) + 1 if live.size else 1
    return (_exp_primitives(ns[:n], m, z) * a[:n, None]).sum(axis=0)


def _minus(sign: str) -> bool:
    """Whether `sign` is '-' rather than '+'; any other sign is an error."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return sign == "-"


def eichler_F(f: QExpansion, z: complex, sign: str = "+") -> PolyC:
    """Eichler integral from i*infinity to z of f(w)(w - X)^(k-2) dw as a
    polynomial in X; the minus version conjugates the coefficients."""
    if not f.is_cusp:
        raise ValueError("Eichler integrals require a cusp form")
    minus = _minus(sign)
    z = admissible_z(z, q_series=True)
    m = f.k - 2
    # (w - X)^m = sum_j binom(m, j) (-X)^(m-j) w^j
    mono = np.zeros(m + 1, dtype=np.complex128)
    mono[::-1] += binomials(m)[m] * (-1.0) ** (m - np.arange(m + 1)) * eichler_moments(f, z, m)
    P = PolyC(mono)
    return P.conjugate() if minus else P


def period_poly_base(f: QExpansion, g: GroupElement, sign: str = "+", z0: complex = 1j) -> PolyC:
    """Period polynomial via the base-point formula
    r(g; X) = F(g z0, g X) j(g, X)^(k-2) - F(z0, X), independent of z0;
    `eichler_F` rejects a base point or image below the evaluation floor."""
    minus = _minus(sign)
    F_at_gz0 = eichler_F(f, mobius(g, complex(z0)), "+")
    val = act_poly(F_at_gz0, g, f.k) - eichler_F(f, z0, "+")
    return val.conjugate() if minus else val


@lru_cache(maxsize=8)
def _anchor(f: QExpansion) -> np.ndarray:
    """Read-only coefficients of r(S), the one anchored period of a cusp form."""
    r_S = period_poly_base(f, S, "+", 1j).coeffs
    r_S.setflags(write=False)  # cached and shared by every period
    return r_S


def period_poly(f: QExpansion, g: GroupElement, sign: str = "+") -> PolyC:
    """Period polynomial for arbitrary g: peel g = T^q S g' down its Euclid
    chain, r(g) = r(S)|g' + r(g') with r(T) = 0, slash r(S) by every g' of
    the chain in one `slash_rows` call, and sum the rows innermost first;
    the minus one is the conjugate of the plus one."""
    minus = _minus(sign)
    r_S = _anchor(f)
    chain = np.array([h for _, h in euclid_chain(g)], dtype=np.float64).reshape(-1, 4)
    acc = np.zeros_like(r_S)
    for row in slash_rows(r_S, *chain.T)[::-1]:
        acc = acc + row
    P = PolyC(acc)
    return P.conjugate() if minus else P


@dataclass(frozen=True)
class ReducedPeriods:
    """The one reduced-class table of a cusp form: plus-sign period
    polynomials on the classes (c, d0) of `reduced_classes(C)`, and the
    twisted L-values read off them.

    `periods[i]` holds the coefficients of r(g; X) for the i-th class.
    """

    C: int
    periods: np.ndarray  # (n_classes, k-1)

    @cached_property
    def values(self) -> np.ndarray:
        """Lambda_f(s, -d0/c) at `values[s - 1, i]` for the i-th class,
        extracted on first use, every class in one batched Taylor shift."""
        c, d0, _ = reduced_classes(self.C)
        vals = _lambdas_from_period(self.periods.T, -d0 / c, self.periods.shape[1] + 1)
        vals.setflags(write=False)  # cached and shared by every caller
        return vals

    def value(self, s: int, c: int, d: int) -> complex:
        """Lambda_f(s, -d/c); the twist is looked up modulo c."""
        if not 1 <= s <= self.periods.shape[1]:
            raise KeyError(f"s = {s} outside 1..{self.periods.shape[1]}")
        _, _, pos = reduced_classes(self.C)
        i = pos[c, d % c] if 1 <= c <= self.C else -1
        if i < 0:
            raise KeyError(f"Lambda table does not cover (c, d) = ({c}, {d})")
        return complex(self.values[s - 1, i])


@lru_cache(maxsize=8)
def reduced_periods(f: QExpansion, C: int) -> ReducedPeriods:
    """The period table over the reduced classes, each class built from its
    Euclid parent: a class (c, d0) peels to g' = (c d0; -a0 -b0), with
    (a0, b0) its top row from `class_tops`, so its row is r(S)|g' plus the
    row of the class (a0, b0) (none for (1, 0), whose g' is the identity).
    Every r(S)|g' is one row of a single `slash_rows` call; a parent lies at
    a lower level c, so the parent rows are added one level at a time.  The
    coset-series table and the Lambda values are both derived from it."""
    c0, d0, pos = reduced_classes(C)
    a0, b0 = class_tops(C)
    periods = slash_rows(_anchor(f), c0, d0, -a0, -b0)
    # a0 d0 - b0 c = 1 with 1 <= d0 < c, c >= 2 gives 0 <= b0 < a0 < c: a stored class
    edges = np.searchsorted(c0, np.arange(2, C + 2)).tolist()
    for lo, hi in zip(edges, edges[1:]):
        periods[lo:hi] += periods[pos[a0[lo:hi], b0[lo:hi]]]
    periods.setflags(write=False)  # cached and shared by every caller
    return ReducedPeriods(C, periods)


def period_error_estimate(f: QExpansion, g: GroupElement, sign: str = "+") -> float:
    """Rough forward-error estimate for the cocycle route: roundoff at the
    anchor propagated through the word, plus the anchor's own q-tail."""
    poly = period_poly(f, g, sign)
    steps = len(word_decompose(g)) + 1
    anchor_tail = eval_tail_bound(f, 1.0) / (2 * math.pi)
    return 32 * 2.220446049250313e-16 * steps * max(1.0, poly.norm_inf()) + anchor_tail


# ---------------------------------------------------------------------------
# additively twisted completed L-values
# ---------------------------------------------------------------------------


def _upper_incomplete_gamma_int(s: int, x: float) -> float:
    """Gamma(s, x) for integer s >= 1: (s-1)! e^-x sum_{t<s} x^t/t!."""
    acc = 0.0
    term = 1.0
    for t in range(s):
        if t:
            term *= x / t
        acc += term
    return math.factorial(s - 1) * math.exp(-x) * acc


@lru_cache(maxsize=4)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def series_convergent(f: QExpansion, s: int) -> bool:
    """Absolute convergence range of the Dirichlet series under the divisor
    bound |a(n)| <= d(n) n^((k-1)/2)."""
    return s > (f.k + 1) / 2


def twisted_L(
    f: QExpansion,
    s: int,
    p: int,
    q: int = 1,
    method: str = "auto",
) -> complex:
    """Completed additively twisted L-value
    Lambda_f(s, p/q) = Gamma(s) (2 pi)^(-s) sum_n a(n) e^(2 pi i n p/q) / n^s.

    The 'series' method evaluates the equivalent vertical-line integral
    int_0^inf f(p/q + ix) x^(s-1) dx by panel Gauss-Legendre quadrature plus
    an incomplete-gamma tail; it is only admitted in the absolute-convergence
    range s > (k+1)/2.  The 'extract' method reads the value off a period
    polynomial and works for every s in 1..k-1.
    """
    if not f.is_cusp:
        raise ValueError("twisted L-values require a cusp form")
    if s < 1:
        raise ValueError("s must be a positive integer")
    if q < 1 or math.gcd(p, q) != 1:
        raise ValueError("need q >= 1 and gcd(p, q) = 1")
    p = p % q if q > 1 else 0
    if method == "auto":
        method = "series" if series_convergent(f, s) else "extract"
    if method == "extract":
        if not 1 <= s <= f.k - 1:
            raise ValueError("extraction is defined for s in 1..k-1")
        return _lambda_by_extraction(f, s, p, q)
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    if not series_convergent(f, s):
        raise ConvergenceError(
            f"series method needs s > (k+1)/2 = {(f.k + 1) / 2}, got s = {s}"
        )
    return _lambda_by_integral(f, s, p, q)


def _lambda_by_integral(f: QExpansion, s: int, p: int, q: int) -> complex:
    x0 = p / q
    # tail over [1, inf): termwise incomplete gamma against the q-expansion
    tail = 0j
    for n in range(1, f.N + 1):
        an = f.coeffs[n]
        if an == 0:
            continue
        tw = cmath.exp(2j * math.pi * n * x0)
        tail += complex(an) * tw * _upper_incomplete_gamma_int(s, TWO_PI * n) / (TWO_PI * n) ** s
    # [x_lo, 1] by geometric panels; integrand analytic, GL converges fast
    x_lo = 1e-5 / (q * q)
    nodes, weights = _gauss_legendre(24)
    total = 0j
    lo = x_lo
    while lo < 1.0:
        hi = min(1.0, 2.0 * lo)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for xi, wi in zip(nodes, weights):
            x = mid + half * xi
            total += wi * half * eval_form_anywhere(f, complex(x0, x)) * x ** (s - 1)
        lo = hi
    # [0, x_lo] is neglected: cusp decay (q x)^(-k) e^(-2 pi/(q^2 x)) collapses it
    return total + tail


@lru_cache(maxsize=None)
def _lambda_scale(k: int) -> np.ndarray:
    """(-1)^j binom(k-2, j) i^(j+1) for j = 0..k-2: the factor between
    Lambda_f(j+1, a) and the (X - a)^(k-2-j) coefficient of a period
    polynomial, in both directions."""
    scale = np.array([(-1) ** j * math.comb(k - 2, j) * i_power(j + 1) for j in range(k - 1)])
    scale.setflags(write=False)
    return scale


def _lambdas_from_period(r: np.ndarray, a, k: int) -> np.ndarray:
    """Lambda_f(j+1, a) at [j, ...] for j = 0..k-2 from the Taylor expansion
    at X = a of the period polynomial of a matrix sending the cusp a to
    i*infinity:
    r(g; X) = sum_j (-1)^j binom(k-2, j) i^(j+1) Lambda_f(j+1, a) (X - a)^(k-2-j).
    `r` holds ascending coefficients along axis 0, and `a` broadcasts over
    its other axes, one cusp per polynomial.
    """
    shifted = taylor_shift(np.array(r, dtype=np.complex128), a)  # (X - a)^t coefficients
    return (shifted[::-1].T / _lambda_scale(k)).T


def _lambda_by_extraction(f: QExpansion, s: int, p: int, q: int) -> complex:
    """Lambda_f(s, p/q) read off the period polynomial of the matrix with
    bottom row (c, d) = (q, -p), which sends the cusp p/q to i*infinity."""
    g = complete_row(q, -p)  # S when q = 1, which comes with p = 0
    return _lambdas_from_period(period_poly(f, g, "+").coeffs, p / q, f.k)[s - 1]


def period_from_Lvalues(f: QExpansion, g: GroupElement, table: ReducedPeriods) -> PolyC:
    """Reassemble r(g; X) from twisted L-values:
    sum_j (-1)^j binom(k-2,j) i^(j+1) Lambda_f(j+1, g^(-1) inf) (X - a)^(k-2-j).
    """
    k = f.k
    if g.c == 0:
        return PolyC.zero(k - 2)  # cusp fixed, empty integral
    c, d = (g.c, g.d) if g.c > 0 else (-g.c, -g.d)
    a = -d / c
    lams = np.array([table.value(s, c, d) for s in range(1, k)])
    taylor = (_lambda_scale(k) * lams)[::-1]
    return PolyC(taylor, k - 2).shift(-a)  # (X - a)-basis back to monomials
