"""Iterated Eichler integrals of depth <= 3 and their higher-order invariance
checks.

An iterated value is a complex coefficient array with one axis per integrand
form: shape () at depth 1, (k1-1,) at depth 2 and (k1-1, k2-1) at depth 3,
where [v, u] is the coefficient of X1^v X2^u.  Gamma acts on it by
`group.act_tensor` at the outer weight 2, whose factor j(g,z)^(2-2) is 1.

Every depth is one recursion, `periods._iterated_kernel`: each form,
innermost first, multiplies the partial integral's q-series, adds its
polynomial variable and integrates term by term in the ray primitives.  The
kernel is cached per form tuple, read-only, and a value is computed afresh
at each visit of a point, as one contraction of e(Nz) with K.  The shuffle
product I_{f,g} + I_{g,f} = F_f F_g is a check (`checks.suite_order3`),
not a route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError
from .group import BiWeight, T, act_minus_one
from .periods import _iterated
from .qforms import QExpansion, admissible_z


@dataclass(frozen=True)
class IteratedIntegrand:
    """Ordered cusp-form data (f_1, ..., f_{n-1}); the outer weight is 2."""

    forms: tuple[QExpansion, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))  # a cache key
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


def iterated_F(data: IteratedIntegrand, z: complex) -> np.ndarray:
    """Iterated Eichler integral of depth n at z as a coefficient array, by
    `periods._iterated` at every depth: 1 for n = 1, the classical Eichler
    integral for n = 2."""
    return _iterated(data.forms, admissible_z(z, q_series=True))


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


@np.errstate(over="ignore", invalid="ignore")  # an image past float64 raises
def parabolic_residual(data: IteratedIntegrand, z: complex) -> float:
    """Sup-norm of F.(T-1) at z; vanishes for every iterated integral."""
    residual = float(np.abs(_image(lambda u: iterated_F(data, u), (T,), data.weights)(z)).max())
    if not math.isfinite(residual):
        raise PrecisionError(f"F.(T-1) at z = {z} is not finite in float64")
    return residual
