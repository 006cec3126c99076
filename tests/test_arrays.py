"""A polynomial in X of degree at most k - 2 is its k - 1 ascending
coefficients as a complex128 array: every public function that returns one
returns such an array, a series value is a read-only view of a cached
array, and a polynomial of any other length is rejected."""

import numpy as np
import pytest

from miint import periods as per
from miint import qforms as qf
from miint import raseries as ra
from miint.group import BiWeight, S, T, act_poly, act_tensor, complete_row

DELTA = qf.delta_q(120)
S16 = qf.cusp_basis(16)[0]
T40 = ra.TruncationParams()
W = BiWeight(11, 9)

#: each public function that returns a polynomial, as a function of (form, z)
_POLYS = {
    "eichler_F": lambda f, z: per.eichler_F(f, z, "-"),
    "period_poly": lambda f, z: per.period_poly(f, complete_row(5, 2), "-"),
    "period_polys": lambda f, z: per.period_polys(f, [S, T, complete_row(3, -1)])[2],
    "period_poly_base": lambda f, z: per.period_poly_base(f, S * T, z),
    "period_from_Lvalues": lambda f, z: per.period_from_Lvalues(
        f, complete_row(4, 3), per.reduced_periods(f, 4)
    ),
    "act_poly": lambda f, z: act_poly(per.eichler_F(f, z), S, f.k),
    "act_tensor": lambda f, z: act_tensor(lambda u: ra.phi(f, W, "+", u, T40).value, S, W, f.k)(z),
}

#: each public series whose value is a polynomial, as a function of (form, z)
_SERIES = {
    "phi": lambda f, z: ra.phi(f, W, "-", z, T40),
    "psi_series": lambda f, z: ra.psi_series(f, W, "+", z, T40),
    "second_order_G": lambda f, z: ra.second_order_G(1, f, f.k + 4, z, T40, "-"),
}


@pytest.mark.parametrize("f", [DELTA, S16], ids=["delta", "s16"])
@pytest.mark.parametrize("name", sorted(_POLYS))
def test_a_polynomial_is_a_plain_complex_array_of_length_k_minus_1(name, f):
    P = _POLYS[name](f, 0.3 + 1.2j)
    assert type(P) is np.ndarray
    assert P.dtype == np.complex128 and P.shape == (f.k - 1,)


@pytest.mark.parametrize("z", [0.3 + 1.2j, complex(-0.0, 1.2), -0.3 + 1.2j], ids=str)
@pytest.mark.parametrize("name", sorted(_SERIES))
def test_a_series_value_is_a_read_only_complex_array_of_length_k_minus_1(name, z):
    # at x > 0 and x = -0.0 a view of the cached array, at x < 0 of its image
    for f in (DELTA, S16):
        value = _SERIES[name](f, z).value
        assert isinstance(value, np.ndarray) and not value.flags.writeable
        assert value.dtype == np.complex128 and value.shape == (f.k - 1,)
        with pytest.raises(ValueError):
            value[0] = 0.0


@pytest.mark.parametrize("length", [10, 12], ids=["k-2", "k"])
@pytest.mark.parametrize(
    "call",
    [lambda P: act_poly(P, S, 12), lambda P: ra.coeff_decompose(P, 2j, 12)],
    ids=["act_poly", "coeff_decompose"],
)
def test_a_polynomial_of_another_length_is_rejected(call, length):
    # weight 12 takes 11 coefficients: one fewer is not padded, one more is
    # not cut
    with pytest.raises(ValueError, match="11 polynomial coefficients"):
        call(np.ones(length, dtype=np.complex128))


@pytest.mark.parametrize("x", [0.3, -0.3])
def test_norm_inf_serves_the_benchmark_checks(x):
    """`raseries._Coeffs`, and its one member `norm_inf`, exist only for
    perfbench/worker.py, whose sweep checks call `.norm_inf()` at lines 153
    (phi's S-invariance) and 162 (the psi cocycle psi.(S - 1) + r(S) E = 0).
    Both expressions, evaluated as the worker writes them, equal the largest
    coefficient magnitude of the same difference."""
    z = complex(x, 1.2)
    for sign in "+-":
        sv = ra.phi(DELTA, W, sign, z, T40)
        acted = act_tensor(lambda u: ra.phi(DELTA, W, sign, u, T40).value, S, W, DELTA.k)(z)
        residual = (acted - sv.value).norm_inf()
        assert residual == np.abs(acted - sv.value).max() and residual < 1e-5

        sv = ra.psi_series(DELTA, W, sign, z, T40)
        ev = ra.eisenstein_rs(W, z, T40)
        image = act_tensor(
            lambda u: ra.psi_series(DELTA, W, sign, u, T40).value, S, W, DELTA.k
        )(z) - sv.value
        predicted = per.period_poly(DELTA, S, sign) * (-ev.value)
        residual = (image - predicted).norm_inf()
        assert residual == np.abs(image - predicted).max() and residual < 1e-5
