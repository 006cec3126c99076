import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miint.errors import PrecisionError
from miint import iterated as it
from miint import periods as per
from miint import qforms as qf
from miint import vvdim


def test_a_form_hashes_its_coefficients_once():
    # equal forms hash equal; a form used as a cache key hashes its N + 1
    # coefficients on its first lookup only
    calls = []

    class Counted(tuple):
        def __hash__(self):
            calls.append(1)
            return super().__hash__()

    delta = qf.delta_q(40)
    f = qf.QExpansion(12, Counted(delta.coeffs))
    assert f == delta and hash(f) == hash(delta) == hash(qf.delta_q(40))
    assert f != qf.QExpansion(12, delta.coeffs[:-1] + (delta.coeffs[-1] + 1,))
    assert "_hash" not in repr(f)
    cached = functools.lru_cache(maxsize=4)(lambda form: form.N)
    assert [cached(f) for _ in range(5)] == [40] * 5
    assert cached.cache_info().hits == 4 and len(calls) == 1


def test_bernoulli_values():
    assert qf.bernoulli(2) == Fraction(1, 6)
    assert qf.bernoulli(4) == Fraction(-1, 30)
    assert qf.bernoulli(6) == Fraction(1, 42)
    assert qf.bernoulli(12) == Fraction(-691, 2730)


def test_eisenstein_normalisation():
    e4 = qf.eisenstein_q(4, 10)
    e6 = qf.eisenstein_q(6, 10)
    assert e4.coeffs[0] == 1 and e6.coeffs[0] == 1
    assert e4.coeffs[1] == 240
    assert e6.coeffs[1] == -504
    # divisor-sum oracle
    for n in range(1, 11):
        assert e4.coeffs[n] == 240 * qf.sigma(n, 3)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        qf.eisenstein_q(5, 10)
    with pytest.raises(ValueError):
        qf.eisenstein_q(2, 10)


def test_delta_coefficients():
    d = qf.delta_q(30)
    assert d.coeffs[0] == 0
    assert d.coeffs[1] == 1
    assert d.coeffs[2] == -24
    assert d.coeffs[3] == 252
    assert d.coeffs[4] == -1472
    assert all(isinstance(c, int) for c in d.coeffs)  # exact divisibility by 1728
    assert d.is_cusp


def test_default_length_is_one_cache_entry(monkeypatch):
    # delta_q() and delta_q(DEFAULT_N) are one build, and so are
    # eisenstein_q(k) and eisenstein_q(k, DEFAULT_N): a cusp basis built
    # after delta_q() builds Delta no second time
    assert qf.delta_q() is qf.delta_q(qf.DEFAULT_N) is qf.delta_q(N=qf.DEFAULT_N)
    assert qf.eisenstein_q(4) is qf.eisenstein_q(4, qf.DEFAULT_N)
    fresh = functools.lru_cache(qf._delta_q.__wrapped__)
    monkeypatch.setattr(qf, "_delta_q", fresh)
    qf.delta_q()
    qf.cusp_basis(16)
    assert fresh.cache_info().misses == 1


def test_delta_hecke_multiplicativity():
    # independent oracle on the expansion: tau is multiplicative and
    # satisfies tau(p^2) = tau(p)^2 - p^11
    tau = qf.delta_q(40).coeffs
    assert tau[6] == tau[2] * tau[3]
    assert tau[12] == tau[3] * tau[4]
    assert tau[15] == tau[3] * tau[5]
    assert tau[4] == tau[2] ** 2 - 2**11
    assert tau[9] == tau[3] ** 2 - 3**11
    assert tau[25] == tau[5] ** 2 - 5**11


def test_cusp_basis_dimensions():
    for k, dim in ((12, 1), (14, 0), (16, 1), (24, 2), (28, 2)):
        basis = qf.cusp_basis(k, 40)
        assert len(basis) == dim == vvdim.dim_cusp(k)
    # echelon leading structure
    b24 = qf.cusp_basis(24, 40)
    assert b24[0].coeffs[1] == 1 and b24[0].coeffs[2] == 0
    assert b24[1].coeffs[1] == 0 and b24[1].coeffs[2] == 1


@pytest.mark.parametrize("k", range(12, 63, 2))
def test_cusp_basis_is_an_integral_echelon_basis_of_cusp_forms(k):
    # independent of the construction: the count from the dimension
    # formula, the identity block at q..q^n, exact Python ints, and
    # modularity under S of every full-length form
    d = vvdim.dim_cusp(k)
    for N in sorted({1, 2, d - 1, 120} - {-1, 0}):
        basis = qf.cusp_basis(k, N)
        n = min(d, N)
        assert len(basis) == n
        for i, f in enumerate(basis, start=1):
            assert f.k == k and f.N == N
            assert all(type(c) is int for c in f.coeffs)
            assert f.coeffs[: n + 1] == tuple(int(j == i) for j in range(n + 1))
            if N == 120:
                for z in (0.25 + 1.1j, -0.125 + 1.3j):
                    rhs = z**k * qf.eval_form(f, z)
                    assert abs(qf.eval_form(f, -1 / z) - rhs) <= 1e-12 * abs(rhs)


@pytest.mark.parametrize("k", (16, 18, 20, 22, 26))
def test_one_dimensional_cusp_basis_is_a_hecke_eigenform(k):
    # dim S_k = 1, so the normalised form is the eigenform: a(mn) = a(m)a(n)
    # for coprime m, n, and a(p^(r+1)) = a(p)a(p^r) - p^(k-1) a(p^(r-1)),
    # which at r = 1 reads a(p^2) = a(p)^2 - p^(k-1)
    (f,) = qf.cusp_basis(k, 120)
    a = f.coeffs
    for m in range(2, 11):
        for n in range(m + 1, 120 // m + 1):
            if math.gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n]
    for p in (2, 3, 5, 7):
        r = 1
        while p ** (r + 1) <= 120:
            assert a[p ** (r + 1)] == a[p] * a[p**r] - p ** (k - 1) * a[p ** (r - 1)]
            r += 1


def test_ring_structure_associativity_exact():
    e4 = qf.eisenstein_q(4, 25)
    e6 = qf.eisenstein_q(6, 25)
    d = qf.delta_q(25)
    lhs = (e4 * e6) * d
    rhs = e4 * (e6 * d)
    assert lhs.coeffs == rhs.coeffs
    assert lhs.k == 22


def _schoolbook(a, b):
    n = min(len(a), len(b))
    return tuple(sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n))


_int_series = st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=200).map(tuple)


@settings(derandomize=True, database=None, deadline=None)
@given(_int_series, _int_series)
def test_integer_products_are_the_schoolbook_sum(a, b):
    # the Kronecker product equals the schoolbook sum entry for entry, every
    # entry a Python int
    got = (qf.QExpansion(0, a) * qf.QExpansion(2, b)).coeffs
    assert got == _schoolbook(a, b)
    assert all(type(c) is int for c in got)


def test_rational_products_keep_the_schoolbook_sum():
    # a series with Fraction entries keeps today's sum and its types: a
    # Fraction wherever a Fraction term enters, an int elsewhere
    e12, d = qf.eisenstein_q(12, 30), qf.delta_q(30)
    assert any(isinstance(c, Fraction) for c in e12.coeffs)
    for a, b in ((e12.coeffs, d.coeffs), (d.coeffs, e12.coeffs), (e12.coeffs, e12.coeffs)):
        got = (qf.QExpansion(12, a) * qf.QExpansion(12, b)).coeffs
        ref = _schoolbook(a, b)
        assert got == ref and [type(c) for c in got] == [type(c) for c in ref]


def test_powers_are_repeated_products():
    e4 = qf.eisenstein_q(4, 25)
    unit = e4**0
    assert unit.k == 0 and unit.coeffs == (1,) + (0,) * 25
    assert (unit * e4).coeffs == e4.coeffs
    prod = unit
    for e in range(1, 8):
        prod = prod * e4
        assert (e4**e).k == 4 * e and (e4**e).coeffs == prod.coeffs
    with pytest.raises(ValueError):
        e4 ** -1


def test_eval_periodicity_exact():
    d = qf.delta_q(120)
    assert qf.eval_form(d, 1 + 1j) == qf.eval_form(d, 1j)
    assert qf.eval_form(d, 1 + 2j) == qf.eval_form(d, 2j)


def test_eval_modularity_delta():
    d = qf.delta_q(120)
    z = 2j
    lhs = qf.eval_form(d, -1 / z)
    rhs = z**12 * qf.eval_form(d, z)
    assert abs(lhs - rhs) / abs(rhs) <= 1e-10


def test_delta_at_i_real_positive():
    v = qf.eval_form(qf.delta_q(120), 1j)
    assert abs(v.imag) < 1e-18
    assert v.real > 0


def test_modularity_of_basis_forms():
    # every basis form of S_16 and E_k under S and T at sample points;
    # dyadic real parts keep the translation check bitwise-exact
    pts = [2j, 0.25 + 1.5j, -0.25 + 1.2j, 0.125 + 2.5j, 1.7j]
    forms = qf.cusp_basis(16, 120) + [qf.eisenstein_q(4, 120), qf.eisenstein_q(6, 120)]
    for f in forms:
        for z in pts:
            rhs = z**f.k * qf.eval_form(f, z)
            assert abs(qf.eval_form(f, -1 / z) - rhs) / abs(rhs) <= 1e-9
            assert qf.eval_form(f, z + 1) == qf.eval_form(f, z)


def test_eval_floor_and_tolerance():
    d = qf.delta_q(120)
    with pytest.raises(PrecisionError):
        qf.eval_form(d, 0.01j)


def test_q_series_entry_points_reject_points_below_the_floor():
    d = qf.delta_q(120)
    with pytest.raises(PrecisionError):
        per.eichler_F(d, 0.01j)
    with pytest.raises(PrecisionError):
        it.iterated_F(it.IteratedIntegrand((d,)), 0.01j)


def test_eval_anywhere_matches_direct():
    d = qf.delta_q(120)
    z = 0.3 + 0.8j
    a = qf.eval_form_anywhere(d, z)
    b = qf.eval_form(d, z)
    assert abs(a - b) / abs(b) <= 1e-12


@pytest.mark.parametrize("evaluate", [qf.eval_form, qf.eval_form_anywhere])
def test_an_array_of_points_gives_the_values_point_by_point(evaluate):
    # one code path for a point and an array of points, in the array's shape
    f = qf.cusp_basis(16)[0]
    z = np.array([[0.3 + 0.8j, -1.2 + 0.06j, 2j], [0.5 + 1j, 7.25 + 0.4j, -0.1 + 3j]])
    vals = evaluate(f, z)
    assert vals.shape == z.shape
    for zi, vi in zip(z.ravel(), vals.ravel()):
        ref = evaluate(f, complex(zi))
        assert type(ref) is complex
        assert abs(vi - ref) <= 1e-14 * abs(ref)


def test_an_array_of_points_is_admitted_only_as_a_whole():
    d = qf.delta_q(120)
    with pytest.raises(ValueError, match="finite"):
        qf.eval_form_anywhere(d, np.array([1j, complex(np.nan, 1.0)]))
    with pytest.raises(ValueError, match="upper half-plane"):
        qf.eval_form_anywhere(d, np.array([1j, 0.5 - 1e-3j]))
    with pytest.raises(PrecisionError):
        qf.eval_form(d, np.array([1j, 0.01j]))
    assert qf.eval_form(d, np.array([], dtype=complex)).shape == (0,)
    assert qf.eval_form(qf.eisenstein_q(4, 0), np.array([1j, 2j])).tolist() == [1, 1]


class _Complex(complex):
    pass


# each kind of point `admissible_z` meets: a plain complex takes a fast path
# past np.ndim, and every other kind the path it took before; the result is
# (its type, its complex128 bits) or the exception raised
_POINT_KINDS = {
    "complex": (0.3 + 1.2j, False, (complex, 0.3 + 1.2j)),
    "complex128": (np.complex128(-0.3 + 1.2j), False, (complex, -0.3 + 1.2j)),
    "subclass": (_Complex(-0.0, 1.2), False, (complex, complex(-0.0, 1.2))),
    "int": (2, False, ValueError),
    "float": (1.5, False, ValueError),
    "bool": (True, False, ValueError),
    "0-d array": (np.array(0.3 + 1.2j), False, (complex, 0.3 + 1.2j)),
    "1-d array": (np.array([0.3 + 1.2j, 2j]), False, (np.ndarray, [0.3 + 1.2j, 2j])),
    "list": ([0.3 + 1.2j, 2j], False, (np.ndarray, [0.3 + 1.2j, 2j])),
    "nan x": (complex(math.nan, 1.2), False, ValueError),
    "nan y": (complex(0.3, math.nan), False, ValueError),
    "inf x": (complex(math.inf, 1.2), False, ValueError),
    "inf y": (complex(0.3, math.inf), False, ValueError),
    "y = 0": (0.3 + 0j, False, ValueError),
    "y < 0": (0.3 - 1.2j, False, ValueError),
    "array y < 0": (np.array([2j, 0.3 - 1.2j]), False, ValueError),
    "below floor": (0.3 + 0.01j, True, PrecisionError),
    "below floor, no q-series": (0.3 + 0.01j, False, (complex, 0.3 + 0.01j)),
    "array below floor": (np.array([2j, 0.01j]), True, PrecisionError),
    "at floor": (complex(0.3, qf.Y_MIN), True, (complex, complex(0.3, qf.Y_MIN))),
}


@pytest.mark.parametrize("kind", _POINT_KINDS)
def test_admissible_z_keeps_each_kind_of_point(kind):
    z, q_series, want = _POINT_KINDS[kind]
    if isinstance(want, type):
        with pytest.raises(want):
            qf.admissible_z(z, q_series)
        return
    out = qf.admissible_z(z, q_series)
    assert type(out) is want[0]
    assert np.asarray(out).tobytes() == np.asarray(want[1], dtype=np.complex128).tobytes()


def test_eval_anywhere_near_real_axis():
    # cusp form vanishes rapidly approaching a rational point
    d = qf.delta_q(120)
    assert abs(qf.eval_form_anywhere(d, 0.25 + 0.001j)) < 1e-100


def test_tail_bound_decreasing_in_y():
    d = qf.delta_q(60)
    assert qf.eval_tail_bound(d, 0.08) >= qf.eval_tail_bound(d, 0.3)


@pytest.mark.parametrize("form", ["delta", "s16", "e4"])
def test_tail_bound_reads_a_growth_constant_cached_per_form(form):
    # the bound is the per-call scan of the coefficients it replaced, bitwise
    f = {"delta": qf.delta_q(120), "s16": qf.cusp_basis(16)[0], "e4": qf.eisenstein_q(4, 120)}[form]
    p = f.k / 2 + 1 if f.is_cusp else float(f.k)
    csup = max(abs(float(f.coeffs[n])) / n**p for n in range(1, f.N + 1) if f.coeffs[n] != 0)
    for y in (0.08, 0.3, 1.0, 1.7):
        x = math.exp(-2 * math.pi * y)
        rho = x * (1 + 1 / (f.N + 1)) ** p
        assert qf.eval_tail_bound(f, y) == csup * (f.N + 1) ** p * x ** (f.N + 1) / (1 - rho)
    assert qf._growth(f) is qf._growth(f)


def test_qexpansion_scalar_and_weight_bookkeeping():
    d = qf.delta_q(20)
    e4 = qf.eisenstein_q(4, 20)
    assert (d * e4).k == 16
    assert (3 * d).coeffs[2] == -72
    with pytest.raises(ValueError):
        d + e4
