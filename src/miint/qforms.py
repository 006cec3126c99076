"""Exact q-expansions of level-one holomorphic modular forms.

Coefficients are exact integers (or rationals) up to the truncation length;
conversion to floating point happens only at evaluation time, so downstream
checks see a single numerical error source.  Cusp forms come as Miller's
integral basis of S_k, echelonised by integer back-substitution alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PrecisionError
from .group import check_integers, read_only

DEFAULT_N = 120
Y_MIN = 0.05


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    B = [Fraction(0)] * (m + 1)
    for n in range(m + 1):
        B[n] = Fraction(1) if n == 0 else -sum(
            Fraction(math.comb(n + 1, j)) * B[j] for j in range(n)
        ) / (n + 1)
    return B[m]


def sigma(n: int, k: int) -> int:
    """Divisor power sum by trial division (kept naive on purpose: it is the
    independent oracle for the Eisenstein coefficients)."""
    if n <= 0:
        return 0
    total = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            total += i**k
            if i * i != n:
                total += (n // i) ** k
        i += 1
    return total


@dataclass(frozen=True)
class QExpansion:
    """Weight plus exact coefficients a(0..N) of a level-one holomorphic form."""

    k: int
    coeffs: tuple  # Fraction or int entries, length N + 1
    # the hash of (k, coeffs), computed on first use: every form-keyed cache
    # would otherwise rehash N + 1 coefficients on each lookup
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k % 2 != 0 or self.k < 0:
            raise ValueError(f"weight must be even and >= 0, got {self.k}")

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.k, self.coeffs)))
        return self._hash

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_cusp(self) -> bool:
        return self.coeffs[0] == 0

    def __mul__(self, other):
        if isinstance(other, QExpansion):
            n = min(self.N, other.N)
            a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
            if all(type(c) is int for c in a + b):
                return QExpansion(self.k + other.k, _kronecker_product(a, b))
            prod = [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n + 1)]
            return QExpansion(self.k + other.k, tuple(prod))
        return QExpansion(self.k, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if self.k != other.k:
            raise ValueError("cannot add forms of different weights")
        n = min(self.N, other.N)
        return QExpansion(self.k, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self + (-1) * other

    def __pow__(self, e: int) -> "QExpansion":
        if e < 0:
            raise ValueError("negative powers not supported")
        out = None  # the unit, never multiplied in
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:  # a higher bit is left
                base = base * base
        return QExpansion(0, (1,) + (0,) * self.N) if out is None else out


def _kronecker_product(a: tuple, b: tuple) -> tuple:
    """The first n = len(a) coefficients of the product of two integer series
    of length n, exactly, by Kronecker substitution: each packed into one int
    in digits of nb bytes, 2^(8 nb - 1) above every product coefficient's
    magnitude, one multiplication, and the low n digits read back with
    2^(8 nb - 1) added to each, so that none borrows, then subtracted."""
    n = len(a)
    nb = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + n.bit_length() + 8) // 8

    def pack(cs):  # the nonnegative digits and the negative ones apart
        pos, neg = (b"".join(max(s * c, 0).to_bytes(nb, "little") for c in cs) for s in (1, -1))
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    half = 1 << (8 * nb - 1)
    low = pack(a) * pack(b) + int.from_bytes(half.to_bytes(nb, "little") * n, "little")
    raw = (low & ((1 << 8 * nb * n) - 1)).to_bytes(nb * n, "little")  # a mask, not a division
    return tuple(int.from_bytes(raw[i : i + nb], "little") - half for i in range(0, nb * n, nb))


def eisenstein_q(k: int, N: int = DEFAULT_N) -> QExpansion:
    """Normalised Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    check_integers(k=k, N=N)  # before the cache: 4.0 hashes as 4
    return _eisenstein_q(k, N)  # one cache entry per resolved (k, N)


@lru_cache(maxsize=None)
def _eisenstein_q(k: int, N: int) -> QExpansion:
    if k % 2 != 0 or k < 4:
        raise ValueError("k must be even and >= 4")
    if N < 0:
        raise ValueError("N must be >= 0")
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [Fraction(1)] + [factor * sigma(n, k - 1) for n in range(1, N + 1)]
    norm = [int(c) if c.denominator == 1 else c for c in coeffs]
    return QExpansion(k, tuple(norm))


def delta_q(N: int = DEFAULT_N) -> QExpansion:
    """Discriminant cusp form Delta = (E4^3 - E6^2)/1728, integer coefficients."""
    check_integers(N=N)  # before the cache: 10.0 hashes as 10
    return _delta_q(N)  # one cache entry per resolved N


@lru_cache(maxsize=None)
def _delta_q(N: int) -> QExpansion:
    if N < 1:
        raise ValueError("N must be >= 1")
    e4 = eisenstein_q(4, N)
    e6 = eisenstein_q(6, N)
    diff = e4 * e4 * e4 - e6 * e6
    out = []
    for c in diff.coeffs:
        c = Fraction(c) / 1728
        if c.denominator != 1:
            raise ArithmeticError("(E4^3 - E6^2)/1728 must have integer coefficients")
        out.append(int(c))
    return QExpansion(12, tuple(out))


def cusp_basis(k: int, N: int = DEFAULT_N) -> list[QExpansion]:
    """Echelonised basis of S_k, Miller's integral basis: f_i = q^i + O(q^(d+1)),
    i = 1..d = dim S_k, with integer coefficients.

    Row i is g_i = Delta^i E4^a E6^b, 4a + 6b = k - 12i, which starts at q^i
    (b = 0 or 1 is fixed by k mod 4, so rows exist while k - 12i - 6b >= 0);
    from the last row up, each is cleared at q^(i+1)..q^d by integer multiples
    of the rows already reduced.  With N < d only f_1..f_N are returned,
    cleared at q..q^N.  Empty for k < 12 or dim S_k = 0.
    """
    check_integers(k=k, N=N)
    if k < 12 or k % 2 != 0:
        return []
    delta, e4, e6 = delta_q(N), eisenstein_q(4, N), eisenstein_q(6, N)
    b = k % 4 // 2
    d = min((k - 6 * b) // 12, N)  # dim S_k, or N for a short expansion
    basis = []  # f_d, f_(d-1), ...
    for i in range(d, 0, -1):
        exps = (i, (k - 12 * i - 6 * b) // 4, b)
        g = math.prod(f**e for f, e in zip((delta, e4, e6), exps) if e)
        for j, f in zip(range(d, i, -1), basis):
            g = g - g.coeffs[j] * f
        basis.append(g)
    return basis[::-1]


@lru_cache(maxsize=8)
def _growth(f: QExpansion) -> tuple[float, float]:
    """The exponent p = k/2 + 1 for cusp forms (divisor-bound regime), p = k
    otherwise, and the growth constant max |a(n)| / n^p over the stored range."""
    p = f.k / 2 + 1 if f.is_cusp else float(f.k)
    csup = max(
        (abs(float(f.coeffs[n])) / n**p for n in range(1, f.N + 1) if f.coeffs[n] != 0),
        default=0.0,
    )
    return p, csup


def eval_tail_bound(f: QExpansion, y: float) -> float:
    """Estimate of |sum_{n > N} a(n) q^n| at height y.

    Uses the empirical growth constant max |a(n)| / n^p over the stored range
    (cached per form) with p = k/2 + 1 for cusp forms (divisor-bound regime)
    and p = k otherwise, then a geometric comparison.  An estimate, not a
    proof-grade bound.
    """
    N = f.N
    x = math.exp(-2 * math.pi * y)
    p, csup = _growth(f)
    rho = x * (1 + 1 / (N + 1)) ** p
    if rho >= 1:
        return math.inf
    t_next = csup * (N + 1) ** p * x ** (N + 1)
    return t_next / (1 - rho)


def admissible_z(z: complex | np.ndarray, q_series: bool = False) -> complex | np.ndarray:
    """z as a complex, or an array of points as complex128, once every point
    is a finite point of the upper half-plane (ValueError otherwise); with
    `q_series`, also at or above the evaluation floor Y_MIN of a truncated
    q-series (PrecisionError otherwise)."""
    if type(z) is not complex and np.ndim(z):  # a plain complex skips np.ndim's 0-d array
        z = np.asarray(z, dtype=np.complex128)
        finite, low = np.isfinite(z).all(), z.imag.min(initial=np.inf)
    else:
        z = complex(z)
        finite, low = cmath.isfinite(z), z.imag
    if not finite:
        raise ValueError(f"z must be finite, got {z}")
    if low <= 0:
        raise ValueError("z must lie in the upper half-plane")
    if q_series and low < Y_MIN:
        raise PrecisionError(f"Im z = {low} below evaluation floor {Y_MIN}")
    return z


@lru_cache(maxsize=8)
def coeff_array(f: QExpansion) -> np.ndarray:
    """Read-only complex coefficients a(0..N) of a q-expansion, converted
    once per form and shared by every evaluation and integral."""
    return read_only(np.array([complex(x) for x in f.coeffs], dtype=np.complex128))


def eval_form(f: QExpansion, z: complex | np.ndarray) -> complex | np.ndarray:
    """Truncated q-series value sum_{n <= N} a(n) q^n, q = e(z), at a point
    z, or an array of values at an array of points: the running powers of q
    point by point, summed against `coeff_array` without BLAS, a block of
    points at a time.
    """
    z = admissible_z(z, q_series=True)
    # IEEE remainder x - rint(x) is exact: periodicity in x holds bitwise for exact shifts
    q = np.exp(2j * math.pi * (z - np.rint(np.real(z)))).reshape(-1, 1)
    a, vals = coeff_array(f), np.empty(q.size, dtype=np.complex128)
    # blocks of points whose powers take at most 64 KiB: a temporary past malloc's
    # mmap threshold would raise that threshold and leave later arrays resident
    block = max(1, 4096 // max(1, f.N))
    for lo in range(0, q.size, block):
        powers = np.repeat(q[lo : lo + block], f.N, axis=1)
        np.cumprod(powers, axis=1, out=powers)
        vals[lo : lo + block] = a[0] + np.einsum("pn,n->p", powers, a[1:])
    return complex(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def eval_form_anywhere(f: QExpansion, z: complex | np.ndarray) -> complex | np.ndarray:
    """Evaluate a (genuinely modular) form at any z in H, or at every point
    of an array of them.

    Each pass translates every point (a no-op once it is reduced) and
    inverts those inside the unit circle, accumulating the weight-k
    automorphy factor; then all points are summed high up in one call.  This
    keeps vertical-line quadratures accurate arbitrarily close to the real
    axis.
    """
    z = admissible_z(z)
    w = np.array(z, dtype=np.complex128).reshape(-1)
    factor = np.ones_like(w)
    for _ in range(10_000):
        w -= np.rint(w.real)
        inside = np.abs(w) < 1 - 1e-15
        if not inside.any():
            break
        # f(z) = z^{-k} f(-1/z)
        factor[inside] *= w[inside] ** (-f.k)
        w[inside] = -1 / w[inside]
    vals = factor * eval_form(f, w)
    return complex(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))
