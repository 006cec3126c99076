"""Iterated Eichler integrals of depth <= 3 and their higher-order invariance
checks.

An iterated value is a complex coefficient array with one axis per integrand
form: shape () at depth 1, (k1-1,) at depth 2 and (k1-1, k2-1) at depth 3,
where [v, u] is the coefficient of X1^v X2^u.  Gamma acts on it by
`group.act_tensor` at the outer weight 2, whose factor j(g,z)^(2-2) is 1.

Depth 3 is evaluated by expanding the inner integral into the ray
primitives of `periods`, multiplying by the outer q-series and integrating
term by term; no shuffle-product machinery is needed at this depth.  Its
kernel is cached per form pair, read-only, and a value is computed afresh
at each visit of a point, as one product e(Nz) @ K.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .group import BiWeight, T, act_minus_one, binomials, read_only, shift_matrix
from .periods import _exps, _ray_primitives, eichler_F
from .qforms import QExpansion, admissible_z, coeff_array


@dataclass(frozen=True)
class IteratedIntegrand:
    """Ordered cusp-form data (f_1, ..., f_{n-1}); the outer weight is 2."""

    forms: tuple[QExpansion, ...]

    def __post_init__(self):
        if len(self.forms) > 2:
            raise ValueError("depth capped at n = 3 (two integrand forms)")
        for f in self.forms:
            if f.k % 2 != 0 or not f.is_cusp:
                raise ValueError("integrand forms must be even-weight cusp forms")

    @property
    def depth(self) -> int:
        return len(self.forms) + 1

    @property
    def weights(self) -> tuple[int, ...]:
        return (2,) + tuple(f.k for f in self.forms)


@lru_cache(maxsize=8)
def _depth3_kernel(f1: QExpansion, f2: QExpansion) -> np.ndarray:
    """Read-only K with the depth-3 integral at z equal to
    (K @ e(Nz))[(a, b)] Y1^a Y2^b, Y = X - z, over the frequencies
    N = 2..N1+N2: one dot product over N per coefficient, the same bits at
    any BLAS thread count.

    With w = z + u, each integral from i*infinity is e(nz) times ray
    primitives P(n, t) (`periods._ray_primitives`).  The inner integral is
    F_2(w; X2) = sum_n a2(n) e(nw) sum_j w2[j] pi_j(u) Y2^(m2-j), with
    pi_j(u) = sum_t binom(j, t) P(n, j-t) u^t and (u - Y)^m =
    sum_t w[t] u^t Y^(m-t), w[t] = binom(m, t) (-1)^(m-t); the outer one
    reduces to e(Nz) P(N, tau) at N = m + n.  So the Y1^(m1-e) Y2^(m2-j)
    coefficient over w1[e] is sum_N e(Nz) sum_t P(N, e+t) Q[N, t, j], where
    Q[N, t, j] = sum_n a1(N-n) a2(n) w2[j] binom(j, t) P(n, j-t) is a band
    of a1 against the inner data: nothing but e(Nz) depends on z.
    """
    m1, m2 = f1.k - 2, f2.k - 2
    N1, N2 = f1.N, f2.N
    a1, a2 = coeff_array(f1)[1:].real, coeff_array(f2)[1:].real
    P = _ray_primitives(N1 + N2, m1 + m2)
    w1, w2 = (binomials(m)[m] * (-1.0) ** (m - np.arange(m + 1)) for m in (m1, m2))
    # R[n-1, t, j] = a2(n) w2[j] binom(j, t) P(n, j-t) (binom(j, t) = 0 for t > j)
    pi = binomials(m2) * P[:N2, abs(np.subtract.outer(np.arange(m2 + 1), np.arange(m2 + 1)))]
    R = np.ascontiguousarray(((a2[:, None] * w2)[:, :, None] * pi).transpose(0, 2, 1))
    # band[N-2, n-1] = a1(N-n): a window over a1 padded by N2 - 1 zeros each side
    padded = np.zeros(N1 + 2 * N2 - 2)
    padded[N2 - 1 : N2 - 1 + N1] = a1
    band = np.ascontiguousarray(sliding_window_view(padded, N2)[:, ::-1])
    # row N-2 of Q as one real matrix-vector product of R's float view with
    # band row N-2 (one dot product per entry, as in K @ e(Nz))
    RT = np.ascontiguousarray(R.reshape(N2, -1).view(np.float64).T)
    Q = np.ascontiguousarray((RT @ band[:, :, None])[..., 0]).view(np.complex128)
    # K[N-2, m1-e, m2-j] = w1[e] sum_t P(N, e+t) Q[N, t, j]
    windows = w1[::-1, None] * sliding_window_view(P[1:], m2 + 1, axis=1)[:, ::-1]
    K = windows @ Q.reshape(-1, m2 + 1, m2 + 1)[:, :, ::-1]
    return read_only(np.ascontiguousarray(K.reshape(len(K), -1).T))


def _depth3_value(f1: QExpansion, f2: QExpansion, z: complex) -> np.ndarray:
    """Coefficients of the depth-3 iterated integral at z: `_depth3_kernel`
    times e(Nz) in the basis (Y1, Y2), shifted to (X1, X2) by one
    `shift_matrix` per variable."""
    K = _depth3_kernel(f1, f2)
    H = (K @ _exps(np.arange(2, K.shape[1] + 2), z)).reshape(f1.k - 1, f2.k - 1)
    return shift_matrix(z, f1.k - 2) @ H @ shift_matrix(z, f2.k - 2).T


def iterated_F(data: IteratedIntegrand, z: complex) -> np.ndarray:
    """Iterated Eichler integral of depth n at z as a coefficient array: 1 for
    n = 1, the classical Eichler integral `eichler_F` for n = 2, and the
    nested expansion `_depth3_value` for n = 3, each evaluated at z itself.
    """
    z = admissible_z(z, q_series=True)
    n = data.depth
    if n == 1:
        return np.array(1 + 0j)
    if n == 2:
        return eichler_F(data.forms[0], z, "+")
    return _depth3_value(data.forms[0], data.forms[1], z)


def _image(F, witness: tuple, weights: tuple[int, ...]):
    """z -> F.(g_1 - 1)...(g_m - 1) at z, one `act_minus_one` per element:
    level i acts on the first n-1-i polynomial slots of a depth-n F,
    n = len(weights), so at depth 3 the second level acts on X1 alone
    (F.(g_1 - 1) is an order-2 object tensored with the inert X2)."""
    for i, g in enumerate(witness):
        F = act_minus_one(F, g, BiWeight(0, 0), *weights[1 : len(weights) - i])
    return F


def order_check(data: IteratedIntegrand, witnesses: list) -> dict:
    """Higher-order membership via z-independence of group images between
    z1 = i and z2 = 1 + 2i: the residual of each witness, keyed by the
    entries of its elements.

    At depth n each witness is a tuple (g_1, ..., g_(n-1)), and
    F.(g_1 - 1)...(g_(n-1) - 1) must not depend on z: at n = 2 it is a
    constant tensor polynomial, and at n = 3 each X2-coefficient of
    F.(g_1 - 1), a polynomial-valued function of (z, X1), passes the order-2
    test against g_2, each against its own scale.  Report-only: never
    raises on failure.
    """
    n, weights = data.depth, data.weights
    F = lambda z: iterated_F(data, z)
    z1, z2 = 1j, 1 + 2j
    residuals = {}
    for witness in witnesses:
        if n < 2 or len(witness) != n - 1:
            raise ValueError(f"order checks need depth >= 2 and witnesses of {n - 1} group elements")
        image = _image(F, witness, weights)
        v1, v2 = image(z1), image(z2)
        scale = np.maximum(1.0, np.abs(v1).max(axis=0))
        key = tuple(g.entries for g in witness)
        residuals[key] = float((np.abs(v1 - v2).max(axis=0) / scale).max())
    return residuals


def parabolic_residual(data: IteratedIntegrand, z: complex) -> float:
    """Sup-norm of F.(T-1) at z; vanishes for every iterated integral."""
    return float(np.abs(_image(lambda u: iterated_F(data, u), (T,), data.weights)(z)).max())
