"""Exact arithmetic for the symmetric-power-type representation rho and the
dimension formulas for vector-valued and second-order form spaces.

Everything here is theorem-grade: big-integer / rational arithmetic, and
int64 residues modulo primes wherever a product of residues fits int64
exactly, except for the complex spot-check of the sixth-root-of-unity
identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .group import read_only


def legendre3(n: int) -> int:
    """Legendre symbol (n | 3)."""
    return {0: 0, 1: 1, 2: -1}[n % 3]


@dataclass(frozen=True)
class RhoRep:
    """(k1-1)-dimensional representation determined on the generators."""

    k1: int
    matS: tuple[tuple[int, ...], ...]
    matT: tuple[tuple[int, ...], ...]

    @cached_property
    def st(self) -> np.ndarray:
        """Read-only rho(S) rho(T) in Python ints, the signed row gather
        `_times_S` of rho(T), formed once for the relations and the trace of
        its square; ValueError, each time, for an S of another shape."""
        return read_only(_times_S(self.matS, _exact(self.matT)))


@lru_cache(maxsize=2)
def rho_matrices(k1: int) -> RhoRep:
    """Generator matrices: S anti-diagonal with alternating signs, T the
    signed Pascal matrix (-1)^(i+j) binom(j, i); -I acts as the identity.
    Column j + 1 of T is column j shifted down one row minus itself, by
    Pascal's rule.  Frozen, so cached: the checks read one k1 at a time,
    relations and both traces, so two are kept."""
    if k1 % 2 != 0 or k1 < 4:
        raise ValueError("k1 must be even and >= 4")
    n = k1 - 1
    matS = tuple((0,) * (n - 1 - i) + ((-1) ** i,) + (0,) * i for i in range(n))
    cols, col = [], [1]
    for _ in range(n):
        cols.append(col + [0] * (n - len(col)))
        col = [a - b for a, b in zip([0] + col, col + [0])]
    return RhoRep(k1, matS, tuple(zip(*cols)))


def _exact(mat: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """A generator as an array of Python ints (dtype=object), so that products
    are exact big-integer sums, never int64."""
    return np.array(mat, dtype=object)


def _times_S(matS: tuple[tuple[int, ...], ...], X: np.ndarray) -> np.ndarray:
    """rho(S) @ X, exactly, as a signed row gather: row i of the product is
    +-X[c], where row i of rho(S) holds its one nonzero entry +-1 at column
    c; ValueError when some row of rho(S) is not of that form."""
    s = _exact(matS)
    nonzero = s != 0
    signs = s[nonzero]  # in row order: one per row, once every row has one and there are n
    if signs.size != len(s) or not nonzero.any(axis=1).all() or not (signs * signs == 1).all():
        raise ValueError("rho(S) must hold one entry +-1 in every row")
    return signs[:, None] * X[nonzero.argmax(axis=1)]


#: the 24 largest primes below 2^28: a product of two residues lies below
#: 2^56 and a sum of 64 such products below 2^62, so an int64 matrix product
#: of residues, reduced once, is exact for n <= 64
_PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313,
    268435291, 268435273, 268435243, 268435183, 268435171, 268435157,
    268435147, 268435133, 268435129, 268435121, 268435109, 268435091,
    268435067, 268435043, 268435039, 268435033, 268435019, 268435009,
)


def _cube_is_identity(a: np.ndarray) -> bool:
    """A^3 = I for an n x n array of Python ints (dtype=object), exactly.

    Every entry of A^3 - I is an integer of magnitude at most
    n^2 M^3 + 1, M = max |A|.  A^3 is formed in int64 modulo each of the
    first primes of `_PRIMES` whose product exceeds 2 (n^2 M^3 + 1): an
    entry that vanishes modulo each vanishes modulo their product (Chinese
    remainder theorem), and the only multiple of that product of magnitude
    at most n^2 M^3 + 1 is 0.  Past n = 64, or with a bound beyond the
    product of every prime, the cube is formed in Python ints."""
    n, M = len(a), max(map(abs, a.flat))
    eye = np.identity(n, dtype=np.int64)
    bound = 2 * (n * n * M**3 + 1)
    if n > 64 or math.prod(_PRIMES) <= bound:
        return np.array_equal(a @ a @ a, eye)
    count = next(j for j in range(1, len(_PRIMES) + 1) if math.prod(_PRIMES[:j]) > bound)
    p = np.array(_PRIMES[:count], dtype=np.int64)[:, None, None]
    r = ((a.astype(np.int64) if M < 2**63 else a) % p).astype(np.int64)
    return bool((r @ r % p @ r % p == eye).all())


def check_relations(rep: RhoRep) -> bool:
    """S^2 = I and (S T)^3 = I, exactly; products with S are signed row
    gathers, so an S with other than one +-1 per row fails, and the cube of
    ST is checked by residues (`_cube_is_identity`)."""
    try:
        ss, st = _times_S(rep.matS, _exact(rep.matS)), rep.st
    except ValueError:
        return False
    return np.array_equal(ss, np.identity(rep.k1 - 1, dtype=np.int64)) and _cube_is_identity(st)


def trace_ST(k1: int) -> int:
    """Exact trace of rho(S) rho(T), the sum of the elementwise product of S
    and T^t; equals (k1-1 | 3), Tr(rho(ST)^2) and `legendre_seq(k1 - 2)[-1]`."""
    rep = rho_matrices(k1)
    return int((_exact(rep.matS) * _exact(rep.matT).T).sum())


def trace_ST_squared(k1: int) -> int:
    """Exact Tr(rho(ST)^2), the sum of the elementwise product of ST and
    (ST)^t, with ST a signed row gather of T."""
    st = rho_matrices(k1).st
    return int((st * st.T).sum())


def legendre_seq(nmax: int) -> list[int]:
    """a_n = sum_{i+j=n} (-1)^i binom(i, j), by direct summation.

    Cross-checked elsewhere against the recurrence a_n + a_{n-1} + a_{n-2} = 0
    and the closed form a_n = (n+1 | 3).
    """
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    seq = []
    for n in range(nmax + 1):
        seq.append(sum((-1) ** i * math.comb(i, n - i) for i in range(n + 1) if i >= n - i))
    return seq


def legendre_seq_recurrence(nmax: int) -> list[int]:
    seq = [1, -1]
    while len(seq) <= nmax:
        seq.append(-seq[-1] - seq[-2])
    return seq[: nmax + 1]


def legendre_seq_closed(nmax: int) -> list[int]:
    return [legendre3(n + 1) for n in range(nmax + 1)]


def xi_identity_residuals(kmax: int) -> dict[int, tuple[complex, int]]:
    """For even k, xi^k/(1-xi^2) + xi^(2k)/(1-xi^(-2)) against -(k-1 | 3).

    xi = exp(i pi / 3).  Returns {k: (complex lhs, integer rhs)}.
    """
    xi = cmath.exp(1j * cmath.pi / 3)
    out = {}
    for k in range(4, kmax + 1, 2):
        lhs = xi**k / (1 - xi**2) + xi ** (2 * k) / (1 - xi**-2)
        out[k] = (lhs, -legendre3(k - 1))
    return out


def dim_modular(k: int) -> int:
    """dim M_k for level one, even k (0 for negative or odd weight)."""
    if k < 0 or k % 2 != 0:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


def dim_cusp(k: int) -> int:
    """dim S_k for level one (0 for odd weight)."""
    if k < 12 or k % 2 != 0:
        return 0
    return dim_modular(k) - 1


def dim_Mk_rho(k: int, k1: int) -> int:
    """Dimension of weight-k vector-valued forms for rho, via the closed
    formula (5+k)/12 (k1-1) + i^(k+k1-2)/4 - (1/3)(k1-1|3)(k-1|3).

    Exact rational evaluation; a non-integer result signals a transcription
    bug and raises.
    """
    if not (k > k1 > 2) or k % 2 or k1 % 2:
        raise ValueError("need even k > k1 > 2")
    ipow = {0: 1, 1: 0, 2: -1, 3: 0}[(k + k1 - 2) % 4]  # real part of i^m; m even here
    val = (
        Fraction(5 + k, 12) * (k1 - 1)
        + Fraction(ipow, 4)
        - Fraction(1, 3) * legendre3(k1 - 1) * legendre3(k - 1)
    )
    if val.denominator != 1:
        raise ArithmeticError(f"dimension formula gave non-integer {val} at ({k},{k1})")
    if val < 0:
        raise ArithmeticError(f"negative dimension {val} at ({k},{k1})")
    return int(val)


def dim_M2c(k: int, k1: int) -> int:
    """Dimension of the space of extended second-order cusp-type invariants:
    2 dim(M_k) dim(S_k1) plus the vector-valued dimension."""
    return 2 * dim_modular(k) * dim_cusp(k1) + dim_Mk_rho(k, k1)
