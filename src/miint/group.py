"""SL2(Z) elements, slash actions and coset machinery.

Carries the three right actions used everywhere downstream: the scalar
bi-weight action on functions of z, the polynomial action on X, and their
tensor product.  Cosets of the translation subgroup B = {±T^n} are
parametrised by bottom rows (c, d) with c > 0 and gcd(c, d) = 1; the sign
quotient is legal for every series in this package because the total weight
is even.  The coset table `cosets` is the one place that fixes their order:
the four blocks that a tail estimate reads, so the outer c-shells and the
outer |d| band are contiguous slices of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

#: point at infinity on the boundary of the upper half-plane
INFINITY = object()


@dataclass(frozen=True)
class GroupElement:
    """Integer unimodular 2x2 matrix (a b; c d), det = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1: {self}")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = GroupElement(1, 0, 0, 1)
S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)
R = S * T  # (0 -1; 1 1), order 6 up to sign


def T_pow(n: int) -> GroupElement:
    return GroupElement(1, n, 0, 1)


@dataclass(frozen=True)
class BiWeight:
    """Pair of integer weights (r, s); only the parity r + s even is enforced.

    Nonpositive entries are allowed: intermediate automorphy exponents in the
    coefficient formulas go below zero even when the ambient weights are
    positive.
    """

    r: int
    s: int

    def __post_init__(self):
        if (self.r + self.s) % 2 != 0:
            raise ValueError(f"r + s must be even, got ({self.r}, {self.s})")

    def raised(self) -> "BiWeight":
        return BiWeight(self.r + 1, self.s - 1)

    def lowered(self) -> "BiWeight":
        return BiWeight(self.r - 1, self.s + 1)

    def swapped(self) -> "BiWeight":
        return BiWeight(self.s, self.r)


class PolyC:
    """Complex-coefficient polynomial in one formal variable X.

    The degree bound is fixed at construction; coefficients are stored
    ascending.  Conjugation acts on coefficients only (X is treated as real).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, bound: int | None = None):
        arr = np.asarray(coeffs, dtype=np.complex128).reshape(-1).copy()
        if bound is not None:
            if arr.size > bound + 1:
                raise ValueError(f"degree overflow: {arr.size - 1} > {bound}")
            if arr.size < bound + 1:
                arr = np.concatenate(
                    [arr, np.zeros(bound + 1 - arr.size, dtype=np.complex128)]
                )
        self.coeffs = arr

    @classmethod
    def zero(cls, bound: int) -> "PolyC":
        return cls(np.zeros(bound + 1, dtype=np.complex128))

    @classmethod
    def one(cls, bound: int = 0) -> "PolyC":
        c = np.zeros(bound + 1, dtype=np.complex128)
        c[0] = 1.0
        return cls(c)

    @property
    def bound(self) -> int:
        return self.coeffs.size - 1

    def __add__(self, other: "PolyC") -> "PolyC":
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n, dtype=np.complex128)
        out[: self.coeffs.size] += self.coeffs
        out[: other.coeffs.size] += other.coeffs
        return PolyC(out)

    def __sub__(self, other: "PolyC") -> "PolyC":
        return self + (-other)

    def __neg__(self) -> "PolyC":
        return PolyC(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, PolyC):
            return PolyC(np.convolve(self.coeffs, other.coeffs))
        return PolyC(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __call__(self, x: complex) -> complex:
        # Horner, highest coefficient first
        acc = 0j
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        return acc

    def conjugate(self) -> "PolyC":
        return PolyC(np.conj(self.coeffs))

    def shift(self, a: complex) -> "PolyC":
        """Taylor shift X -> X + a."""
        return PolyC(taylor_shift(self.coeffs.copy(), a))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __repr__(self):
        return f"PolyC({np.round(self.coeffs, 6)})"


def mobius(g: GroupElement, z):
    """Fractional-linear image of z; z may be complex, rational or INFINITY."""
    a, b, c, d = g.entries
    if z is INFINITY:
        if c == 0:
            return INFINITY
        return Fraction(a, c)
    if isinstance(z, (int, Fraction)):
        z = Fraction(z)
        den = c * z + d
        if den == 0:
            return INFINITY
        return (a * z + b) / den
    z = complex(z)
    return (a * z + b) / (c * z + d)


def jfactor(g: GroupElement, z: complex) -> complex:
    """Automorphy factor c*z + d."""
    return g.c * complex(z) + g.d


def act_rs(fval: complex, g: GroupElement, z: complex, w: BiWeight) -> complex:
    """Apply the bi-weight automorphy factor to a pre-computed value f(gz)."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("act_rs is defined on the upper half-plane only")
    j = jfactor(g, z)
    jb = jfactor(g, z.conjugate())
    return j ** (-w.r) * jb ** (-w.s) * fval


def act_rs_fn(fn, g: GroupElement, w: BiWeight):
    """Right-translate a function on H: (f |_{r,s} g)(z)."""

    def acted(z: complex) -> complex:
        return act_rs(fn(mobius(g, z)), g, z, w)

    return acted


@lru_cache(maxsize=None)
def binomials(m: int) -> np.ndarray:
    """Read-only table of the binomial coefficients C(n, t) at [n, t],
    0 <= n, t <= m (zero for t > n)."""
    table = np.array([[math.comb(n, t) for t in range(m + 1)] for n in range(m + 1)], float)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _binomial_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The l-sum of `binomial_matrix` at [i, j, l]: the coefficient
    C(j, l) C(m-j, i-l), zero out of range, and where a^l, b^(j-l), c^(i-l),
    d^(m-j-i+l) sit in the power table (the 0th power where it is zero)."""
    i, j, l = np.ogrid[: m + 1, : m + 1, : m + 1]
    live = (l <= j) & (l <= i) & (i - l <= m - j)
    exps = np.stack(np.broadcast_arrays(l, j - l, i - l, m - j - i + l))
    table = binomials(m)
    coef = np.where(live, table[j, l] * table[m - j, np.clip(i - l, 0, m)], 0.0)
    pos = np.where(live, exps, 0) + (m + 1) * np.arange(4).reshape(4, 1, 1, 1)
    return coef, pos


def binomial_matrix(a, b, c, d, m: int) -> np.ndarray:
    """Matrix whose entry [i, j] is the coefficient of X^i in
    (aX + b)^j (cX + d)^(m-j): the closed sum over l of
    C(j, l) a^l b^(j-l) C(m-j, i-l) c^(i-l) d^(m-j-i+l), in complex128.

    The slash by (a b; c d), where it is consumed as a matrix, and the basis
    (X - z)^j (X - conj z)^(m-j) are each one such matrix; the slashes of
    one polynomial by many matrices are `slash_rows`, and a Taylor shift is
    `taylor_shift`."""
    coef, pos = _binomial_terms(m)
    # powers 0..m of a, b, c, d at [entry, power], by running products
    steps = np.array([[1, a], [1, b], [1, c], [1, d]], dtype=np.complex128)
    pows = np.cumprod(np.repeat(steps, [1, m], axis=1), axis=1)
    return (coef * pows.ravel()[pos].prod(axis=0)).sum(axis=-1)


def slash_rows(P, a, b, c, d) -> np.ndarray:
    """The slash of one polynomial by a batch of integer matrices
    (a b; c d): row i holds the ascending coefficients of
    sum_j P_j (a_i X + b_i)^j (c_i X + d_i)^(m-j), m = len(P) - 1, in
    complex128.

    Homogeneous Horner, H <- H (aX + b) + P_j (cX + d)^(m-j) for
    j = m-1..0, carrying the power of cX + d alongside, in float64 on the
    real and imaginary parts.  Every operation is elementwise along the
    batch, so a row is the same bits in any batch, a single call included."""
    P = np.asarray(P, dtype=np.complex128)
    m = P.size - 1
    a, b, c, d = (np.asarray(x, np.float64).reshape(-1) for x in (a, b, c, d))
    parts = np.stack([P.real, P.imag], axis=-1)[:, :, None]  # [j, part, 1]
    # W[i, :2] is the coefficient of X^i in H, W[i, 2] that in (cX + d)^t:
    # each step multiplies the first by aX + b and the second by cX + d
    lead, const = np.stack([a, a, c]), np.stack([b, b, d])
    W = np.zeros((m + 1, 3, a.size))
    W[0, :2], W[0, 2] = parts[m], 1.0
    for t in range(1, m + 1):
        raised = lead * W[:t]
        W[: t + 1] *= const
        W[1 : t + 1] += raised
        W[: t + 1, :2] += parts[m - t] * W[: t + 1, 2:]
    out = np.empty((a.size, m + 1), dtype=np.complex128)
    out.view(np.float64).reshape(a.size, m + 1, 2)[:] = W[:, :2].transpose(2, 0, 1)
    return out


#: columns per block of a batched Taylor shift, so that a block stays in cache
_SHIFT_BLOCK = 8192


def taylor_shift(P: np.ndarray, a) -> np.ndarray:
    """Replace the ascending coefficients along axis 0 of P, in place, by
    those of P(X + a), and return P: repeated synthetic division by X - a,
    P[j] += a P[j+1].  P is one polynomial or a 2-D table of them, one per
    column, and `a` a scalar or one shift per column, so one call shifts a
    batch of polynomials, each by its own amount.  The columns are swept in
    blocks of `_SHIFT_BLOCK`, each block's shifts cast to P's dtype once and
    each a P[j+1] written into one buffer: the same bits as the unblocked
    division."""
    n = P.shape[0]
    table = P.reshape(n, -1)  # a view of P
    shifts = np.broadcast_to(np.asarray(a), table.shape[1:])
    buf = np.empty(min(shifts.size, _SHIFT_BLOCK), P.dtype)
    for lo in range(0, shifts.size, _SHIFT_BLOCK):
        blk = slice(lo, lo + _SHIFT_BLOCK)
        Q, s = table[:, blk], shifts[blk].astype(P.dtype, casting="same_kind")
        tmp = buf[: s.size]
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                np.multiply(s, Q[j + 1], out=tmp)
                Q[j] += tmp
    return P


def act_poly_matrix(g: GroupElement, k: int) -> np.ndarray:
    """Matrix of `act_poly(., g, k)` on ascending monomial coefficients."""
    return binomial_matrix(*g.entries, k - 2)


def act_poly(P: PolyC, g: GroupElement, k: int) -> PolyC:
    """Polynomial action: X -> P(gX) * j(g, X)^(k-2), re-expanded.

    Preserves the degree bound k - 2.
    """
    if P.bound > k - 2:
        raise ValueError(f"degree {P.bound} exceeds bound {k - 2}")
    return PolyC(act_poly_matrix(g, k) @ PolyC(P.coeffs, k - 2).coeffs)


def act_tensor(F, g: GroupElement, w: BiWeight, k: int):
    """Tensor action on a PolyC-valued function of z.

    (F | g)(z, X) = F(gz, gX) j(g,z)^(-r) j(g, conj z)^(-s) j(g,X)^(k-2).
    """

    def acted(z: complex) -> PolyC:
        return act_rs(act_poly(F(mobius(g, complex(z))), g, k), g, z, w)

    return acted


def complete_row(c: int, d: int) -> GroupElement:
    """The matrix (a b; c d) in SL2(Z) with the given bottom row, c >= 1, and
    a = d^-1 mod c in [0, c), b = (a d - 1) / c; (1, 0) completes to S."""
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    a = pow(d, -1, c)  # a ValueError unless gcd(c, d) = 1
    return GroupElement(a, (a * d - 1) // c, c, d)


@lru_cache(maxsize=8)
def reduced_classes(C: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced classes (c, d0), 1 <= c <= C, 0 <= d0 < c, gcd(c, d0) = 1,
    in ascending (c, d0) order: read-only arrays c0 and d0, and `lut` with
    lut[c, d0] the position of the class (-1 where there is none)."""
    c, d0 = np.ogrid[: C + 1, :C]
    c0, d0 = np.nonzero((np.gcd(c, d0) == 1) & (d0 < c))
    lut = np.full((C + 1, C), -1, dtype=np.int64)
    lut[c0, d0] = np.arange(c0.size)
    for arr in (c0, d0, lut):
        arr.setflags(write=False)  # cached and shared by every caller
    return c0, d0, lut


@lru_cache(maxsize=8)
def class_tops(C: int) -> tuple[np.ndarray, np.ndarray]:
    """Top rows (a0, b0) of `complete_row(c, d0)` for the classes of
    `reduced_classes(C)`, in its order, as read-only arrays: one
    `complete_row` call per class, shared by the coset table's top rows and
    the Euclid parents of the period table."""
    c0, d0, _ = reduced_classes(C)
    rows = [complete_row(c, d).entries[:2] for c, d in zip(c0.tolist(), d0.tolist())]
    a0, b0 = np.array(rows, dtype=np.int64).T
    for arr in (a0, b0):
        arr.setflags(write=False)  # cached and shared by every caller
    return a0, b0


@dataclass(frozen=True)
class CosetTable:
    """Bottom rows (c, d) of the non-trivial B\\Gamma representatives, and
    the decomposition of each coset (c, d) = (c, d0 + nc) into its reduced
    class (c, d0), at position `cls` of `reduced_classes(C)`, times T^n.

    The rows lie in the four blocks of a tail estimate, which reads the
    outer `shells` values of c and the outer |d| band of width `band`:
    neither, band only, band and shells, shells only, ending at `cuts` and
    at n.  Each block is in ascending c, then ascending |d|, positive d
    first.  So the band is [cuts[0]:cuts[2]] and the shells are [cuts[1]:],
    both contiguous and in that order."""

    C: int
    cs: np.ndarray
    ds: np.ndarray
    cls: np.ndarray
    n: np.ndarray
    shells: int
    band: int
    cuts: tuple[int, int, int]

    @cached_property
    def tops(self) -> tuple[np.ndarray, np.ndarray]:
        """Top rows (a, b) of `complete_row(c, d)` for every coset, read off
        its class's top row: the top row of the class times T^n is
        (a0, b0 + n a0).  Only the holomorphic weights e(n gz) and
        `enumerate_cosets` read them, so they are built on first use."""
        a0, b0 = class_tops(self.C)
        a = a0[self.cls]
        return a, b0[self.cls] + self.n * a


@lru_cache(maxsize=8)
def cosets(C: int, D: int) -> CosetTable:
    """The cosets (c, d), 0 < c <= C, |d| <= D, gcd(c, d) = 1, each with its
    class and shift, in the tail blocks of `CosetTable`.  The identity coset
    is not included."""
    if C < 1 or D < 1:
        raise ValueError("C and D must be >= 1")
    ad = np.arange(1, D + 1)
    d = np.concatenate(([0], np.stack([ad, -ad], axis=1).ravel()))  # 0, 1, -1, 2, -2, ...
    c = np.arange(1, C + 1)[:, None]
    _, _, lut = reduced_classes(C)
    n, d0 = np.divmod(d, c)
    cls = lut[c, d0]
    shells, band = max(1, min(8, C)), min(max(2 * C, 8), D)
    # each block is a rectangle of the (c, d) grid: its rows split at the
    # first shell, its columns (in ascending |d|) at the first band column
    r, b = C - shells, 1 + 2 * (D - band)
    quads = (np.s_[:r, :b], np.s_[:r, b:], np.s_[r:, b:], np.s_[r:, :b])
    live = cls >= 0
    grid = np.broadcast_arrays(c, d, cls, n)
    cols = [np.concatenate([a[q][live[q]] for q in quads]) for a in grid]
    cuts = tuple(np.cumsum([np.count_nonzero(live[q]) for q in quads[:3]]).tolist())
    return CosetTable(C, *cols, shells, band, cuts)


def enumerate_cosets(C: int, D: int) -> list[GroupElement]:
    """Identity plus one representative per (c, d), 0 < c <= C, |d| <= D."""
    table = cosets(C, D)
    a, b = table.tops
    rows = zip(a.tolist(), b.tolist(), table.cs.tolist(), table.ds.tolist())
    return [IDENTITY] + [GroupElement(*row) for row in rows]


def euclid_chain(g: GroupElement):
    """The continued-fraction reduction of g: yields q and the entries of g'
    for each step g = +-T^q S g' (g' = S^-1 T^-q g, S^-1 ~ -S, sign dropped),
    each g' with a smaller bottom row, down to +-T^n."""
    a, b, c, d = g.entries
    while c != 0:
        q = a // c
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
        yield q, (a, b, c, d)


def word_decompose(g: GroupElement) -> list[tuple[str, int]]:
    """Write g, up to sign, as a word in S and T-powers.

    Returns [('T', n1), ('S', 1), ('T', n2), ...]; the product of the word
    equals +-g exactly.  All actions in this package have even total weight,
    so the sign ambiguity is harmless.
    """
    word: list[tuple[str, int]] = []
    a, b = g.a, g.b
    for q, (a, b, _, _) in euclid_chain(g):
        word += [("T", q), ("S", 1)]
    word.append(("T", a * b))  # the chain ends at +-T^n
    return [(kind, n) for kind, n in word if not (kind == "T" and n == 0)]


def word_to_matrix(word: list[tuple[str, int]]) -> GroupElement:
    g = IDENTITY
    for kind, n in word:
        g = g * (S if kind == "S" else T_pow(n))
    return g
