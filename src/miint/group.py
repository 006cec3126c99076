"""SL2(Z) elements, slash actions and coset machinery.

Carries the right actions used everywhere downstream: the bi-weight
automorphy factor of functions of z, the polynomial action on X, and their
tensor product.  Cosets of the translation subgroup B = {±T^n} are
parametrised by bottom rows (c, d) with c > 0 and gcd(c, d) = 1; the sign
quotient is legal for every series in this package because the total weight
is even.  The coset table `cosets` is the one place that fixes their order:
the four blocks that a tail estimate reads, so the outer c-shells and the
outer |d| band are contiguous slices of it.  It stores the half d >= 0, and
(c, -d) is read from (c, d) = g as its mirror -eps g eps, eps = diag(-1, 1).
A cached array is shared by every caller, so each cached builder of the
package returns its arrays through `read_only`.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import PrecisionError

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


def T_pow(n: int) -> GroupElement:
    return GroupElement(1, n, 0, 1)


def check_integers(**values) -> None:
    """A ValueError unless every value is a `numbers.Integral` (numpy's too)."""
    if not all(isinstance(v, numbers.Integral) for v in values.values()):
        raise ValueError(f"{', '.join(values)} must be integers, got {values}")


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
        check_integers(r=self.r, s=self.s)
        if (self.r + self.s) % 2 != 0:
            raise ValueError(f"r + s must be even, got ({self.r}, {self.s})")

    def raised(self) -> "BiWeight":
        return BiWeight(self.r + 1, self.s - 1)

    def lowered(self) -> "BiWeight":
        return BiWeight(self.r - 1, self.s + 1)

    def swapped(self) -> "BiWeight":
        return BiWeight(self.s, self.r)


def mobius(g: GroupElement, z: complex) -> complex:
    """Fractional-linear image of a point z of H."""
    a, b, c, d = g.entries
    z = complex(z)
    return (a * z + b) / (c * z + d)


def automorphy(g: GroupElement, z: complex, w: BiWeight) -> complex:
    """The bi-weight automorphy factor j(g,z)^(-r) j(g, conj z)^(-s),
    j(g, z) = cz + d, at a point z of H: the one factor of every slash."""
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise ValueError(f"automorphy factors are defined on the upper half-plane only, got {z}")
    return (g.c * z + g.d) ** (-w.r) * (g.c * z.conjugate() + g.d) ** (-w.s)


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: a cached array is shared by every caller, so no
    caller may write to it."""
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def binomials(m: int) -> np.ndarray:
    """Read-only table of the binomial coefficients C(n, t) at [n, t],
    0 <= n, t <= m (zero for t > n)."""
    table = [[math.comb(n, t) for t in range(m + 1)] for n in range(m + 1)]
    return read_only(np.array(table, float))


@lru_cache(maxsize=None)
def _binomial_terms(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of the l-sum of `binomial_matrix` that are not zero: their
    flat positions in [i, j, l], l <= i, j and i - l <= m - j, the
    coefficients C(j, l) C(m-j, i-l) there, and where a^l, b^(j-l), c^(i-l),
    d^(m-j-i+l) sit in the power table."""
    i, j, l = np.ogrid[: m + 1, : m + 1, : m + 1]
    live = np.flatnonzero((l <= j) & (l <= i) & (i - l <= m - j))
    i, j, l = np.unravel_index(live, (m + 1,) * 3)
    table = binomials(m)
    pos = np.stack([l, j - l, i - l, m - j - i + l]) + (m + 1) * np.arange(4)[:, None]
    return read_only(live), read_only(table[j, l] * table[m - j, i - l]), read_only(pos)


_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def _check_powers(a, b, c, d, m: int) -> None:
    """Raise PrecisionError where (|a| + |b|)^j (|c| + |d|)^(m-j), which
    bounds every coefficient of (aX + b)^j (cX + d)^(m-j) and every running
    power that builds them, may overflow float64: one scalar test."""
    if m * math.log(max(abs(a) + abs(b), abs(c) + abs(d), 1.0)) > _LOG_FLOAT_MAX:
        raise PrecisionError(f"degree-{m} powers of ({a}, {b}; {c}, {d}) overflow float64")


def binomial_matrix(a, b, c, d, m: int) -> np.ndarray:
    """Matrix whose entry [i, j] is the coefficient of X^i in
    (aX + b)^j (cX + d)^(m-j): the closed sum over l of
    C(j, l) a^l b^(j-l) C(m-j, i-l) c^(i-l) d^(m-j-i+l), in complex128.

    The slash by (a b; c d), where it is consumed as a matrix, and the basis
    (X - z)^j (X - conj z)^(m-j) are each one such matrix; the slashes of
    one polynomial by many matrices are `slash_rows`, and a Taylor shift is
    `taylor_shift`."""
    _check_powers(a, b, c, d, m)
    live, coef, pos = _binomial_terms(m)
    # powers 0..m of a, b, c, d at [entry, power], by running products
    steps = np.array([[1, a], [1, b], [1, c], [1, d]], dtype=np.complex128)
    pows = np.cumprod(np.repeat(steps, [1, m], axis=1), axis=1)
    terms = np.zeros((m + 1,) * 3, dtype=np.complex128)  # +0 where a term is zero
    terms.flat[live] = coef * pows.ravel()[pos].prod(axis=0)
    return terms.sum(axis=-1)


@lru_cache(maxsize=None)
def _shift_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """C(j, i) at [i, j], and the power j - i of -z there (0 where i > j)."""
    r = np.arange(m + 1)
    return binomials(m).T, read_only(np.maximum(-np.subtract.outer(r, r), 0))


def shift_matrix(z: complex, m: int) -> np.ndarray:
    """[i, j] = C(j, i) (-z)^(j-i), from the basis (X - z)^j to monomials:
    bitwise `binomial_matrix(1, -z, 0, 1, m)`, from one running power row."""
    _check_powers(1, -z, 0, 1, m)
    coef, pos = _shift_terms(m)
    return coef * np.cumprod(np.repeat(np.array([1, -z], dtype=np.complex128), [1, m]))[pos]


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


def act_poly(P: np.ndarray, g: GroupElement, k: int) -> np.ndarray:
    """Polynomial action on the k - 1 ascending coefficients P of a polynomial:
    X -> P(gX) * j(g, X)^(k-2), re-expanded, as a new plain array."""
    if np.shape(P) != (k - 1,):
        raise ValueError(f"need {k - 1} polynomial coefficients, got shape {np.shape(P)}")
    return act_poly_matrix(g, k) @ np.asarray(P)


def act_tensor(F, g: GroupElement, w: BiWeight, k: int):
    """Tensor action on a function F of z whose values are arrays as `act_poly`
    takes, (F | g)(z, X) = F(gz, gX) j(g,z)^(-r) j(g, conj z)^(-s) j(g,X)^(k-2):
    `act_poly` of F at gz times the `automorphy` factor."""

    def acted(z):
        factor = automorphy(g, z, w)
        return act_poly(F(mobius(g, z)), g, k) * factor

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
    return read_only(c0), read_only(d0), read_only(lut)


@lru_cache(maxsize=8)
def class_tops(C: int) -> tuple[np.ndarray, np.ndarray]:
    """Top rows (a0, b0) of `complete_row(c, d0)` for the classes of
    `reduced_classes(C)`, in its order, as read-only arrays, shared by the
    coset table's top rows and the Euclid parents of the period table: one
    extended Euclid pass over every class, on remainders r and s d0 = r mod c,
    down to r = gcd = 1, where a0 = s mod c = d0^-1 mod c."""
    c0, d0, _ = reduced_classes(C)
    r, s = np.stack([d0, c0]), np.stack([np.ones_like(c0), np.zeros_like(c0)])
    while (live := np.flatnonzero(r[1])).size:
        q = r[0, live] // r[1, live]
        for x in (r, s):
            x[:, live] = x[1, live], x[0, live] - q * x[1, live]
    a0 = s[0] % c0
    return read_only(a0), read_only((a0 * d0 - 1) // c0)


@dataclass(frozen=True)
class CosetTable:
    """Bottom rows (c, d), d >= 0, of the non-trivial B\\Gamma
    representatives, and the decomposition of each coset (c, d) = (c, d0 + nc)
    into its reduced class (c, d0), at position `cls` of `reduced_classes(C)`,
    times T^n, n >= 0.  A row with d > 0 also stands for its mirror (c, -d),
    -eps g eps (eps = diag(-1, 1)), top row (-a, b); (1, 0) is its own.

    The rows lie in the four blocks of a tail estimate, which reads the
    outer `shells` values of c and the outer |d| band of width `band`:
    neither, band only, band and shells, shells only, ending at `cuts` and
    at n.  Each block is in ascending c, then ascending d, and is symmetric
    under d -> -d, so a mirror lies in its row's block.  So the band is
    [cuts[0]:cuts[2]] and the shells are [cuts[1]:], both contiguous and in
    that order."""

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
        a = read_only(a0[self.cls])
        return a, read_only(b0[self.cls] + self.n * a)


@lru_cache(maxsize=8)
def cosets(C: int, D: int) -> CosetTable:
    """The cosets (c, d), 0 < c <= C, 0 <= d <= D, gcd(c, d) = 1, each with
    its class and shift, in the tail blocks of `CosetTable`; with their
    mirrors (c, -d), every coset with |d| <= D.  The identity coset is not
    included."""
    if C < 1 or D < 1:
        raise ValueError("C and D must be >= 1")
    d = np.arange(D + 1)
    c = np.arange(1, C + 1)[:, None]
    _, _, lut = reduced_classes(C)
    n, d0 = np.divmod(d, c)
    cls = lut[c, d0]
    shells, band = max(1, min(8, C)), min(max(2 * C, 8), D)
    # each block is a rectangle of the (c, d) grid: its rows split at the
    # first shell, its columns at the first band column
    r, b = C - shells, 1 + D - band
    quads = (np.s_[:r, :b], np.s_[:r, b:], np.s_[r:, b:], np.s_[r:, :b])
    live = cls >= 0
    grid = np.broadcast_arrays(c, d, cls, n)
    cols = [read_only(np.concatenate([a[q][live[q]] for q in quads])) for a in grid]
    cuts = tuple(np.cumsum([np.count_nonzero(live[q]) for q in quads[:3]]).tolist())
    return CosetTable(C, *cols, shells, band, cuts)


def enumerate_cosets(C: int, D: int) -> list[GroupElement]:
    """Identity plus one representative per (c, d), 0 < c <= C, |d| <= D:
    each row of the coset table followed by its mirror (-a b; c -d)."""
    table = cosets(C, D)
    a, b = table.tops
    out = [IDENTITY]
    for a, b, c, d in zip(a.tolist(), b.tolist(), table.cs.tolist(), table.ds.tolist()):
        out += [GroupElement(a, b, c, d)] + ([GroupElement(-a, b, c, -d)] if d else [])
    return out


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
