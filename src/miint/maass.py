"""Maass raising/lowering operators by finite differences, and verification
of the equivariance, weight-shift, key differential and
coefficient-recombination identities they satisfy.

The operators act on functions of z only; polynomial-valued functions are
differentiated coefficient-wise in the monomial basis (X held constant).
Derivatives use one 4th-order central stencil.  The subscript of an
operator is always supplied by the caller, never inferred.  A function is
called at every visit of a node; a coset series at a node it has summed
reads the point cache of `raseries`.
"""

from __future__ import annotations

import numpy as np

from .group import BiWeight, GroupElement, automorphy, mobius
from .qforms import QExpansion, eval_form
from .raseries import TruncationParams, coeff_basis, eisenstein_rs, phi


#: step of the 4th-order central stencil.  Error model: evaluation noise
#: eps contributes ~ eps/h, truncation is O(h^4).
STEP = 1e-3


def _derivative(fn, x0: float, h: float) -> complex:
    offs, wts, den = [2.0, 1.0, -1.0, -2.0], [-1.0, 8.0, -8.0, 1.0], 12.0
    return sum(w * fn(x0 + o * h) for o, w in zip(offs, wts)) / (den * h)


def _wirtinger(fn, z: complex, h: float) -> tuple:
    """(d/dz, d/dzbar) = ((d/dx - i d/dy)/2, (d/dx + i d/dy)/2) of a scalar-
    or array-valued function, from one stencil along each axis."""
    z = complex(z)
    if z.imag - 2 * h <= 0:
        raise ValueError("stencil leaves the upper half-plane")
    dx = _derivative(lambda u: fn(complex(u, z.imag)), z.real, h)
    dy = _derivative(lambda v: fn(complex(z.real, v)), z.imag, h)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def maass_d(fn, r, z: complex, h: float = STEP) -> complex:
    """Raising operator 2iy d/dz + r; for an array-valued fn, r may be an
    array with one subscript per component."""
    z = complex(z)
    return 2j * z.imag * _wirtinger(fn, z, h)[0] + r * fn(z)


def maass_dbar(fn, s: int, z: complex, h: float = STEP) -> complex:
    """Lowering operator -2iy d/dzbar + s."""
    z = complex(z)
    return -2j * z.imag * _wirtinger(fn, z, h)[1] + s * fn(z)


def check_equivariance(fn, g: GroupElement, w: BiWeight, z: complex) -> float:
    """Residual of raising commuting with the slash action up to the weight
    shift (r,s) -> (r+1,s-1), both sides through `group.automorphy`."""
    z = complex(z)
    lhs = maass_d(lambda u: automorphy(g, u, w) * fn(mobius(g, u)), w.r, z)
    rhs = automorphy(g, z, w.raised()) * maass_d(fn, w.r, mobius(g, z))
    return abs(lhs - rhs)


def check_weight_shift(fn, r: int, z: complex) -> float:
    """Residual of conjugating raising by y^2, d_r(y^2 fn) = y^2 d_(r+2) fn;
    its two sides read fn at the same nine nodes."""
    z = complex(z)
    lhs = maass_d(lambda u: complex(u).imag ** 2 * fn(u), r, z)
    rhs = z.imag**2 * maass_d(fn, r + 2, z)
    return abs(lhs - rhs)


def check_phi_identities(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
    h: float = STEP,
) -> dict[str, float]:
    """Residuals of the key differential identities for phi.

    raising:  d_r phi_{r,s} = r phi_{r+1,s-1}
                              + 2i delta y f(z) (X-z)^(k-2) E_{r,s}
    lowering: dbar_s phi_{r,s} = s phi_{r-1,s+1}
                              - 2i (1-delta) y conj(f(z)) (X-cz)^(k-2) E_{r,s}

    delta = 1 in the plus case, 0 in the minus case; residuals are sup-norms
    over monomial coefficients.  Raising and lowering share the stencil of
    phi_{r,s}, whose coset sums the point cache of `raseries` holds.
    """
    z = complex(z)
    k = hform.k
    delta = 1 if sign == "+" else 0

    def phi_at(u: complex, weights: BiWeight = w) -> np.ndarray:
        return phi(hform, weights, sign, u, t).value

    phi_at(z)  # raises ConvergenceError unless r + s > k
    ev = eisenstein_rs(w, z, t).value
    fz = eval_form(hform, z)
    y = z.imag
    basis = coeff_basis(z, k - 2)  # columns k-2 and 0: (X-z)^(k-2), (X-cz)^(k-2)

    rhs_d = w.r * phi_at(z, w.raised())
    if delta:
        rhs_d = rhs_d + (2j * y * fz * ev) * basis[:, k - 2]
    res_d = np.max(np.abs(maass_d(phi_at, w.r, z, h) - rhs_d))

    rhs_db = w.s * phi_at(z, w.lowered())
    if not delta:
        rhs_db = rhs_db - (2j * y * fz.conjugate() * ev) * basis[:, 0]
    res_db = np.max(np.abs(maass_dbar(phi_at, w.s, z, h) - rhs_db))
    return {"raising": float(res_d), "lowering": float(res_db)}


def check_coeffs_identity(fjs: list, m: int, z: complex) -> float:
    """Residual of the basis recombination identity

    d_m( sum_j f_j (X-z)^j (X-cz)^(k-2-j) )
        = sum_j ( d_{m+j} f_j - (j+1) f_{j+1} ) (X-z)^j (X-cz)^(k-2-j)

    with k = len(fjs) + 1 and f_{k-1} = 0; both sides compared in monomial
    coefficients.
    """
    z = complex(z)
    deg = len(fjs) - 1

    def values(u: complex) -> np.ndarray:
        return np.array([fj(u) for fj in fjs], dtype=np.complex128)

    lhs = maass_d(lambda u: coeff_basis(u, deg) @ values(u), m, z)
    at_z = values(z)
    nxt = np.arange(1, deg + 2) * np.append(at_z[1:], 0.0)
    rhs = coeff_basis(z, deg) @ (maass_d(values, m + np.arange(deg + 1), z) - nxt)
    return float(np.max(np.abs(lhs - rhs)))
