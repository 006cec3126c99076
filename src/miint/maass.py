"""Maass raising/lowering operators by finite differences, and verification
of the equivariance, key differential and coefficient-recombination
identities they satisfy.

The operators act on functions of z only; polynomial-valued functions are
differentiated coefficient-wise in the monomial basis (X held constant).
Default scheme: 4th-order central stencils.  The subscript of an operator is
always supplied by the caller, never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .group import BiWeight, GroupElement, PolyC, jfactor, mobius
from .qforms import QExpansion, eval_form
from .raseries import TruncationParams, eisenstein_rs, phi


@dataclass(frozen=True)
class FDScheme:
    """Finite-difference configuration.

    Error model: evaluation noise eps contributes ~ eps/h, truncation is
    O(h^2) or O(h^4) depending on the mode.
    """

    h: float = 1e-3
    mode: str = "central-4th"

    def stencil(self) -> tuple[list[float], list[float], float]:
        """Offsets (in units of h), weights and denominator (in units of h)."""
        if self.mode == "central-4th":
            return [2.0, 1.0, -1.0, -2.0], [-1.0, 8.0, -8.0, 1.0], 12.0
        if self.mode == "central-2nd":
            return [1.0, -1.0], [1.0, -1.0], 2.0
        raise ValueError(f"unknown mode {self.mode!r}")

    def derivative(self, fn, x0: float) -> complex:
        offs, wts, den = self.stencil()
        return sum(w * fn(x0 + o * self.h) for o, w in zip(offs, wts)) / (den * self.h)


def _check_stencil(z: complex, scheme: FDScheme) -> None:
    if complex(z).imag - 2 * scheme.h <= 0:
        raise ValueError("stencil leaves the upper half-plane")


def power_linear(a: complex, e: int, bound: int | None = None) -> PolyC:
    """(X - a)^e as a PolyC, optionally padded to a degree bound."""
    coeffs = np.array(
        [math.comb(e, t) * (-a) ** (e - t) for t in range(e + 1)], dtype=np.complex128
    )
    return PolyC(coeffs, bound)


def _wirtinger(fn, z: complex, scheme: FDScheme) -> tuple:
    """(d/dz, d/dzbar) = ((d/dx - i d/dy)/2, (d/dx + i d/dy)/2) of a scalar-
    or array-valued function, from one stencil along each axis."""
    z = complex(z)
    _check_stencil(z, scheme)
    dx = scheme.derivative(lambda u: fn(complex(u, z.imag)), z.real)
    dy = scheme.derivative(lambda v: fn(complex(z.real, v)), z.imag)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def maass_d(fn, r: int, z: complex, scheme: FDScheme = FDScheme()) -> complex:
    """Raising operator 2iy d/dz + r."""
    z = complex(z)
    return 2j * z.imag * _wirtinger(fn, z, scheme)[0] + r * fn(z)


def maass_dbar(fn, s: int, z: complex, scheme: FDScheme = FDScheme()) -> complex:
    """Lowering operator -2iy d/dzbar + s."""
    z = complex(z)
    return -2j * z.imag * _wirtinger(fn, z, scheme)[1] + s * fn(z)


def maass_d_poly(fnP, r: int, z: complex, scheme: FDScheme = FDScheme()) -> PolyC:
    """Raising operator applied coefficient-wise to a PolyC-valued function."""
    z = complex(z)
    dz, _ = _wirtinger(lambda u: fnP(u).coeffs, z, scheme)
    return PolyC(2j * z.imag * dz + r * fnP(z).coeffs)


def maass_dbar_poly(fnP, s: int, z: complex, scheme: FDScheme = FDScheme()) -> PolyC:
    """Lowering operator applied coefficient-wise."""
    z = complex(z)
    _, dzb = _wirtinger(lambda u: fnP(u).coeffs, z, scheme)
    return PolyC(-2j * z.imag * dzb + s * fnP(z).coeffs)


def check_equivariance(
    fn,
    g: GroupElement,
    w: BiWeight,
    z: complex,
    scheme: FDScheme = FDScheme(),
    k_commute: int = 2,
) -> tuple[float, float]:
    """Residuals of the two operator identities used throughout: raising
    commutes with the slash action up to the weight shift (r,s) -> (r+1,s-1),
    and conjugating by y^k shifts the operator subscript by k."""
    z = complex(z)

    def slashed(u: complex) -> complex:
        u = complex(u)
        j = jfactor(g, u)
        jb = jfactor(g, u.conjugate())
        return j ** (-w.r) * jb ** (-w.s) * fn(mobius(g, u))

    lhs = maass_d(slashed, w.r, z, scheme)
    gz = mobius(g, z)
    j = jfactor(g, z)
    jb = jfactor(g, z.conjugate())
    rhs = j ** (-(w.r + 1)) * jb ** (-(w.s - 1)) * maass_d(fn, w.r, gz, scheme)
    res1 = abs(lhs - rhs)

    def scaled(u: complex) -> complex:
        return complex(u).imag ** k_commute * fn(u)

    lhs2 = maass_d(scaled, w.r, z, scheme)
    rhs2 = z.imag**k_commute * maass_d(fn, w.r + k_commute, z, scheme)
    res2 = abs(lhs2 - rhs2)
    return res1, res2


def check_phi_identities(
    hform: QExpansion,
    w: BiWeight,
    sign: str,
    z: complex,
    t: TruncationParams = TruncationParams(),
    scheme: FDScheme = FDScheme(),
) -> dict[str, float]:
    """Residuals of the key differential identities for phi.

    raising:  d_r phi_{r,s} = r phi_{r+1,s-1}
                              + 2i delta y f(z) (X-z)^(k-2) E_{r,s}
    lowering: dbar_s phi_{r,s} = s phi_{r-1,s+1}
                              - 2i (1-delta) y conj(f(z)) (X-cz)^(k-2) E_{r,s}

    delta = 1 in the plus case, 0 in the minus case; residuals are sup-norms
    over monomial coefficients.
    """
    z = complex(z)
    k = hform.k
    if w.r + w.s <= k:
        raise ConvergenceError(f"the differential identities need r + s > k = {k}")
    delta = 1 if sign == "+" else 0

    def phi_at(u: complex, weights: BiWeight) -> PolyC:
        return phi(hform, weights, sign, u, t).value

    ev = eisenstein_rs(w, z, t).value
    fz = eval_form(hform, z)
    y = z.imag

    lhs_d = maass_d_poly(lambda u: phi_at(u, w), w.r, z, scheme)
    rhs_d = w.r * phi_at(z, w.raised())
    if delta:
        rhs_d = rhs_d + (2j * y * fz * ev) * power_linear(z, k - 2, k - 2)
    res_d = (lhs_d - rhs_d).norm_inf()

    lhs_db = maass_dbar_poly(lambda u: phi_at(u, w), w.s, z, scheme)
    rhs_db = w.s * phi_at(z, w.lowered())
    if not delta:
        rhs_db = rhs_db - (2j * y * fz.conjugate() * ev) * power_linear(
            z.conjugate(), k - 2, k - 2
        )
    res_db = (lhs_db - rhs_db).norm_inf()
    return {"raising": float(res_d), "lowering": float(res_db)}


def check_coeffs_identity(
    fjs: list,
    m: int,
    z: complex,
    k: int,
    scheme: FDScheme = FDScheme(),
) -> float:
    """Residual of the basis recombination identity

    d_m( sum_j f_j (X-z)^j (X-cz)^(k-2-j) )
        = sum_j ( d_{m+j} f_j - (j+1) f_{j+1} ) (X-z)^j (X-cz)^(k-2-j)

    with f_{k-1} = 0; both sides compared in monomial coefficients.
    """
    z = complex(z)
    deg = k - 2
    if len(fjs) != deg + 1:
        raise ValueError(f"need {deg + 1} coefficient functions")

    def basis(u: complex, j: int) -> PolyC:
        u = complex(u)
        return PolyC(
            np.convolve(power_linear(u, j).coeffs, power_linear(u.conjugate(), deg - j).coeffs),
            deg,
        )

    def assembled(u: complex) -> PolyC:
        total = PolyC.zero(deg)
        for j, fj in enumerate(fjs):
            total = total + fj(u) * basis(u, j)
        return total

    lhs = maass_d_poly(assembled, m, z, scheme)
    rhs = PolyC.zero(deg)
    for j in range(deg + 1):
        dterm = maass_d(fjs[j], m + j, z, scheme)
        nxt = fjs[j + 1](z) if j + 1 <= deg else 0.0
        rhs = rhs + (dterm - (j + 1) * nxt) * basis(z, j)
    return float((lhs - rhs).norm_inf())
