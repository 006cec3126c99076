"""Eichler integrals, period polynomials and additively twisted L-values.

With w = z + u, each integral from i*infinity of e(nw) times a polynomial
reads one cached table of ray primitives, and the Eichler integral of a
form is the vector e(nz) times one cached matrix in the basis X - z.

The period cocycle is anchored at a single high-accuracy value r(S) computed
from the Eichler integral at the fixed point i of S; every other period
polynomial is a sum of slashes of r(S) down the Euclid chain of g (Manin's
continued-fraction reduction), r(T^q S g') = r(S)|g' + r(g'), so no
evaluation ever happens at small imaginary part.  The slashes of r(S) are
rows of one batched `group.slash_rows` call: one over every chain of a
batch in `period_polys`, and one over every class in `reduced_periods`, which then
adds each class's Euclid parent row level by level in c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate

import numpy as np

from .errors import PrecisionError
from .group import (
    BiWeight,
    GroupElement,
    S,
    act_minus_one,
    binomials,
    check_integers,
    class_tops,
    complete_row,
    euclid_chain,
    read_only,
    reduced_classes,
    shift_matrix,
    slash_rows,
    taylor_shift,
    word_decompose,
)
from .qforms import QExpansion, admissible_z, coeff_array, eval_form_anywhere, eval_tail_bound

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(np.float64).eps)

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def i_power(m: int) -> complex:
    """Exact i^m as one of {1, i, -1, -i}."""
    return _I_POW[m % 4]


@lru_cache(maxsize=8)
def _ray_primitives(N: int, m: int) -> np.ndarray:
    """Read-only P(n, t) = int_{i*infinity}^0 e(nu) u^t du = t! c (-c)^t,
    c = 1/(2 pi i n), at [n - 1, t], n <= N, t <= m: -i^(t+1) times the
    running product t!/(2 pi n)^(t+1), the same bits at any table size."""
    n = np.arange(1, N + 1)[:, None]
    table = np.cumprod(np.maximum(np.arange(m + 1), 1) / (2 * math.pi * n), axis=1)
    return read_only(table * -np.array([i_power(t + 1) for t in range(m + 1)]))


def _exps(ns: np.ndarray, z: complex) -> np.ndarray:
    """e(nz) for the integers ns, Re z first reduced modulo 1 (exactly)."""
    return np.exp(2j * math.pi * complex(math.remainder(z.real, 1.0), z.imag) * ns)


@lru_cache(maxsize=8)
def _eichler_kernel(f: QExpansion) -> np.ndarray:
    """Read-only K with F(z; X) = sum_s (e(nz) @ K)[s] (X - z)^s: with
    w = z + u, (w - X)^m = sum_t binom(m, t) u^t (z - X)^(m-t), so
    K[n - 1, m - t] = a(n) binom(m, t) (-1)^(m-t) P(n, t)."""
    m, a = f.k - 2, coeff_array(f)[1:]
    sgn_binom = binomials(m)[m] * (-1.0) ** (m - np.arange(m + 1))
    return read_only(a[:, None] * (sgn_binom * _ray_primitives(a.size, m))[:, ::-1])


def _minus(sign: str) -> bool:
    """Whether `sign` is '-' rather than '+'; any other sign is an error."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return sign == "-"


def eichler_F(f: QExpansion, z: complex, sign: str = "+") -> np.ndarray:
    """Eichler integral from i*infinity to z of f(w)(w - X)^(k-2) dw as the
    ascending coefficients of a polynomial in X: the vector e(nz) times
    `_eichler_kernel`, shifted from the basis X - z to X; the minus version
    conjugates the coefficients."""
    if not f.is_cusp:
        raise ValueError("Eichler integrals require a cusp form")
    minus = _minus(sign)
    return _eichler(f, admissible_z(z, q_series=True), minus)


def _eichler(f: QExpansion, z: complex, minus: bool) -> np.ndarray:
    """The coefficients of `eichler_F` at a validated z, as a fresh array."""
    P = shift_matrix(z, f.k - 2) @ (_exps(np.arange(1, f.N + 1), z) @ _eichler_kernel(f))
    return np.conjugate(P, out=P) if minus else P


def period_poly_base(f: QExpansion, g: GroupElement, z0: complex = 1j) -> np.ndarray:
    """Plus-sign period polynomial via the base-point formula
    r(g; X) = F(g z0, g X) j(g, X)^(k-2) - F(z0, X), independent of z0, the
    image of F under g - 1 at weight 0; `eichler_F` rejects a base point or
    image below the evaluation floor."""
    return act_minus_one(lambda z: eichler_F(f, z, "+"), g, BiWeight(0, 0), f.k)(z0)


@lru_cache(maxsize=8)
def _anchor(f: QExpansion) -> np.ndarray:
    """Read-only coefficients of r(S), the one anchored period of a cusp form."""
    return read_only(period_poly_base(f, S, 1j))


def period_poly(f: QExpansion, g: GroupElement, sign: str = "+") -> np.ndarray:
    """Period polynomial for arbitrary g: `period_polys` of g alone."""
    return period_polys(f, [g], sign)[0]


def period_polys(f: QExpansion, gs, sign: str = "+") -> list[np.ndarray]:
    """Period polynomials of every g in `gs`: peel g = T^q S g' down its
    Euclid chain, r(g) = r(S)|g' + r(g') with r(T) = 0, slash r(S) by every
    g' of every chain in one `slash_rows` call (a row has the same bits in
    any batch), and sum each element's rows innermost first from zero; the
    minus one is the conjugate of the plus one."""
    minus, r_S = _minus(sign), _anchor(f)
    chains = [[h for _, h in euclid_chain(g)] for g in gs]
    flat = np.array([h for chain in chains for h in chain], dtype=np.float64).reshape(-1, 4)
    rows, ends = slash_rows(r_S, *flat.T), list(accumulate(map(len, chains), initial=0))
    sums = (reduce(np.add, rows[i:j][::-1], np.zeros_like(r_S)) for i, j in zip(ends, ends[1:]))
    return [np.conj(acc) if minus else acc for acc in sums]


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
        return read_only(_lambdas_from_period(self.periods.T, -d0 / c, self.periods.shape[1] + 1))


def reduced_periods(f: QExpansion, C: int) -> ReducedPeriods:
    """The period table of f over the classes of `reduced_classes(C)`, built
    by `_reduced_periods` once per (form, C)."""
    check_integers(C=C)  # before the cache: 4.0 hashes as 4
    return _reduced_periods(f, C)


@lru_cache(maxsize=8)
def _reduced_periods(f: QExpansion, C: int) -> ReducedPeriods:
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
    return ReducedPeriods(C, read_only(periods))


# callers count and clear the table cache through the public name
reduced_periods.cache_info = _reduced_periods.cache_info
reduced_periods.cache_clear = _reduced_periods.cache_clear


def period_error_estimate(f: QExpansion, g: GroupElement, poly: np.ndarray) -> float:
    """Rough forward-error estimate of `poly`, the period polynomial of g by
    the cocycle route: roundoff at the anchor propagated through the word,
    plus the anchor's own q-tail."""
    steps = len(word_decompose(g)) + 1
    anchor_tail = eval_tail_bound(f, 1.0) / (2 * math.pi)
    return 32 * _EPS * steps * max(1.0, float(np.abs(poly).max())) + anchor_tail


# ---------------------------------------------------------------------------
# additively twisted completed L-values
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: the eigenvalues of the
    Jacobi matrix of the Legendre recurrence, two Newton steps on P_n, and
    the weights 2 / ((1 - x^2) P_n'(x)^2), P_n and P_n' by the recurrence."""
    j = np.arange(1, n)
    x = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1), -1))
    for _ in range(2):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return read_only(x), read_only(2 / ((1 - x * x) * dp * dp))


def twisted_L(f: QExpansion, s: int, p: int, q: int = 1) -> complex:
    """Completed additively twisted L-value
    Lambda_f(s, p/q) = Gamma(s) (2 pi)^(-s) sum_n a(n) e^(2 pi i n p/q) / n^s,
    entry s - 1 of the twist's one pass of `_lambdas_by_integral`, which
    integrates f(p/q + ix) x^(s-1) over x > 0 and converges for every s >= 1;
    a value past float64 (Delta's past s = 260) raises PrecisionError.
    """
    check_integers(s=s, p=p, q=q)
    if not f.is_cusp:
        raise ValueError("twisted L-values require a cusp form")
    if s < 1:
        raise ValueError("s must be a positive integer")
    if q < 1 or math.gcd(p, q) != 1:
        raise ValueError("need q >= 1 and gcd(p, q) = 1")
    p %= q
    value = complex(_lambdas_by_integral(f, p, q, s)[-1])  # entry s - 1, or the first past float64
    if not cmath.isfinite(value):
        raise PrecisionError(f"Lambda_f({s}, {p}/{q}) is not finite in float64")
    return value


@np.errstate(over="ignore", invalid="ignore")  # a value past float64 ends the pass
def _lambdas_by_integral(f: QExpansion, p: int, q: int, n: int) -> np.ndarray:
    """int_0^inf f(p/q + ix) x^(s-1) dx at [s - 1] for s = 1..n, the same
    bits for any n >= s, cut after the first value past float64 (every later
    one is past it too): f once at every panel node, x^(s-1) by running
    products, and the tail over [1, inf)."""
    x0 = p / q
    # tail over [1, inf): sum_m a(m) e(m x0) T_s(u), u = 2 pi m, over a(m) != 0,
    # T_s(u) = Gamma(s, u) / u^s by T_1 = e^-u / u, T_(s+1) = (s T_s + e^-u) / u
    a = coeff_array(f)[1:]
    u = TWO_PI * (np.flatnonzero(a) + 1)
    coef, decay, tail = a[a != 0] * np.exp(1j * x0 * u), np.exp(-u), np.exp(-u) / u
    # [x_lo, 1] by geometric panels; integrand analytic, GL converges fast
    edges = [1e-5 / (q * q)]
    while edges[-1] < 1.0:
        edges.append(min(1.0, 2.0 * edges[-1]))
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    nodes, weights = _gauss_legendre(24)
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * nodes  # [panel, node]
    fx, power = weights * half * eval_form_anywhere(f, x0 + 1j * x), np.ones_like(x)
    # [0, x_lo] is neglected: cusp decay (q x)^(-k) e^(-2 pi/(q^2 x)) collapses it
    values = []
    for s in range(1, n + 1):
        values.append(np.sum(fx * power) + np.sum(coef * tail))
        if not cmath.isfinite(values[-1]):
            break
        power *= x
        tail = (s * tail + decay) / u
    return np.array(values)


@lru_cache(maxsize=None)
def _lambda_scale(k: int) -> np.ndarray:
    """(-1)^j binom(k-2, j) i^(j+1) for j = 0..k-2: the factor between
    Lambda_f(j+1, a) and the (X - a)^(k-2-j) coefficient of a period
    polynomial, in both directions."""
    scale = [(-1) ** j * math.comb(k - 2, j) * i_power(j + 1) for j in range(k - 1)]
    return read_only(np.array(scale))


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


def _lambdas_by_extraction(f: QExpansion, p: int, q: int) -> np.ndarray:
    """Lambda_f(s, p/q) at [s - 1] for s = 1..k-1, read off the period
    polynomial of the matrix with bottom row (c, d) = (q, -p), which sends
    the cusp p/q to i*infinity."""
    g = complete_row(q, -p)  # S when q = 1, which comes with p = 0
    return _lambdas_from_period(period_poly(f, g, "+"), p / q, f.k)


def period_from_Lvalues(f: QExpansion, g: GroupElement, table: ReducedPeriods) -> np.ndarray:
    """Reassemble r(g; X) from twisted L-values:
    sum_j (-1)^j binom(k-2,j) i^(j+1) Lambda_f(j+1, a) (X - a)^(k-2-j),
    a = g^(-1) inf = -d/c, its class's column of `table.values` (the twist
    is read modulo c) shifted back to monomials by X -> X + d/c.
    """
    k = f.k
    if g.c == 0:
        return np.zeros(k - 1, dtype=np.complex128)  # cusp fixed, empty integral
    c, d = (g.c, g.d) if g.c > 0 else (-g.c, -g.d)
    _, _, lut = reduced_classes(table.C)
    i = lut[c, d % c] if c <= table.C else -1
    if i < 0:
        raise KeyError(f"Lambda table does not cover (c, d) = ({c}, {d})")
    return taylor_shift(_lambda_scale(k)[::-1] * table.values[::-1, i], d / c)
