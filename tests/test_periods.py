import cmath
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miint.errors import ConvergenceError
from miint import periods as per
from miint import qforms as qf
from miint.group import (
    IDENTITY,
    GroupElement,
    S,
    T,
    T_pow,
    act_poly,
    complete_row,
    reduced_classes,
)

DELTA = qf.delta_q(120)
DELTA_FINE = qf.delta_q(200)


def _class_rows(C):
    """The reduced classes (c, d0) up to C, in the order of the period table."""
    c0, d0, _ = reduced_classes(C)
    return list(zip(c0.tolist(), d0.tolist()))


def test_exp_poly_primitive_m0_closed_form():
    for n in (1, 3):
        for z in (1j, 0.3 + 0.7j):
            v = per.exp_poly_primitive(n, 0, z)
            assert abs(v - cmath.exp(2j * cmath.pi * n * z) / (2j * cmath.pi * n)) <= 1e-20


def test_exp_poly_primitive_fd_derivative():
    h = 1e-4
    z = 1j
    fd = (per.exp_poly_primitive(1, 3, z + h) - per.exp_poly_primitive(1, 3, z - h)) / (2 * h)
    assert abs(fd - cmath.exp(2j * cmath.pi * z) * z**3) <= 1e-6


def test_exp_poly_primitive_decay():
    assert abs(per.exp_poly_primitive(1, 3, 20j)) <= 1e-50


def _primitive_row(n, m, z):
    """I_0..I_m of one frequency by the scalar recurrence, in Python complex."""
    c = 1.0 / (2j * math.pi * n)
    e = cmath.exp(2j * math.pi * n * z)
    row = [e * c]
    zp = 1.0 + 0j
    for t in range(1, m + 1):
        zp *= z
        row.append(e * zp * c - t * c * row[-1])
    return np.array(row)


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_eichler_moments_match_the_per_frequency_rows(form):
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    m = f.k - 2
    eps = np.finfo(float).eps
    for z in (1j, 0.5 + 2j, 0.3 + 1.2j):
        terms = np.array([_primitive_row(n, m, z) * complex(f.coeffs[n]) for n in range(1, f.N + 1)])
        got = per.eichler_moments(f, z, m)
        for t in range(m + 1):
            ref = complex(math.fsum(terms[:, t].real), math.fsum(terms[:, t].imag))
            assert abs(got[t] - ref) <= 4 * eps * np.abs(terms[:, t]).sum()


def test_eichler_moments_read_one_cached_coefficient_array():
    # the cached read-only array gives the moments of a fresh conversion bitwise
    f = qf.cusp_basis(16)[0]
    assert per._coeff_array(f) is per._coeff_array(f)
    assert not per._coeff_array(f).flags.writeable
    fresh = np.array([complex(x) for x in f.coeffs[1:]], dtype=np.complex128)
    for z in (1j, 0.3 + 1.2j):
        rows = per._exp_primitives(np.arange(1, f.N + 1), f.k - 2, z)
        ref = (rows * fresh[:, None]).sum(axis=0)
        assert np.array_equal(per.eichler_moments(f, z, f.k - 2), ref)


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_eichler_moments_leave_out_only_exact_zero_rows(monkeypatch, form):
    # the frequencies whose e(nz) underflows to 0 add exact zeros to the
    # sequential sum over the rows: the moments keep every bit
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    m, ns = f.k - 2, np.arange(1, f.N + 1)
    rows = []
    primitives = per._exp_primitives

    def counted(freqs, m, z):
        rows.append(len(freqs))
        return primitives(freqs, m, z)

    monkeypatch.setattr(per, "_exp_primitives", counted)
    for y in (0.8, 1.0, 1.5, 2.0, 3.0):
        for x in (0.0, 0.3, -0.5):
            z = complex(x, y)
            ref = (primitives(ns, m, z) * per._coeff_array(f)[:, None]).sum(axis=0)
            rows.clear()
            assert per.eichler_moments(f, z, m).tobytes() == ref.tobytes()
            live = np.flatnonzero(np.exp(2j * math.pi * ns * z))
            assert rows == [live[-1] + 1]
    # at y = 3 e(nz) underflows from n = 40 on: two thirds of the rows go
    assert rows == [39]


def test_eichler_fd_derivative():
    z, h = 1j, 1e-4
    dF = (per.eichler_F(DELTA, z + h) - per.eichler_F(DELTA, z - h)) * (1 / (2 * h))
    fz = qf.eval_form(DELTA, z)
    target = np.array(
        [math.comb(10, t) * (-1) ** t * z ** (10 - t) * fz for t in range(11)]
    )
    assert float(np.max(np.abs(dF.coeffs - target))) <= 1e-6


def test_eichler_vanishes_at_cusp():
    assert per.eichler_F(DELTA, 20j).norm_inf() <= 1e-40


def test_eichler_minus_is_conjugate():
    Fp = per.eichler_F(DELTA, 2j, "+")
    Fm = per.eichler_F(DELTA, 2j, "-")
    assert np.array_equal(Fm.coeffs, np.conj(Fp.coeffs))


def test_eichler_requires_cusp_form():
    with pytest.raises(ValueError):
        per.eichler_F(qf.eisenstein_q(4, 40), 2j)


def test_period_base_trivial_elements():
    assert per.period_poly_base(DELTA, T, "+", 1j).norm_inf() <= 1e-12
    assert per.period_poly_base(DELTA, IDENTITY, "+", 1j).norm_inf() <= 1e-12


def test_period_base_point_independence():
    r1 = per.period_poly_base(DELTA, S, "+", 1j)
    r2 = per.period_poly_base(DELTA, S, "+", 0.5 + 2j)
    assert (r1 - r2).norm_inf() / r1.norm_inf() <= 1e-9


def test_period_cocycle_vs_base_route():
    worst = 0.0
    for c, d in [(1, 0), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, 2), (3, -2)]:
        g = complete_row(c, d)
        rb = per.period_poly_base(DELTA_FINE, g, "+", 1j)
        rc = per.period_poly(DELTA_FINE, g, "+")
        worst = max(worst, (rb - rc).norm_inf() / max(1.0, rb.norm_inf()))
    assert worst <= 1e-9


def test_period_relations():
    rS = per.period_poly(DELTA, S)
    scale = rS.norm_inf()
    assert (act_poly(rS, S, 12) + rS).norm_inf() / scale <= 1e-9
    st = S * T
    assert per.period_poly(DELTA, st * st * st).norm_inf() / scale <= 1e-8
    assert per.period_poly(DELTA, S * S).norm_inf() / scale <= 1e-9


def test_delta_period_rational_structure():
    # Kohnen-Zagier: the even and odd parts of r_Delta(S) are constant multiples
    # of (36/691)(X^10 - 1) - X^2 (X^2 - 1)^3 and 4X^9 - 25X^7 + 42X^5 - 25X^3 + 4X
    r = per.period_poly(qf.delta_q(), S).coeffs
    even = np.array([-36 / 691, 1, -3, 3, -1, 36 / 691])  # X^0, X^2, ..., X^10
    odd = np.array([4, -25, 42, -25, 4])  # X^1, X^3, ..., X^9
    assert np.all(r[0::2].real == 0) and np.all(r[1::2].imag == 0)
    for ratios in (r[0::2].imag / even, r[1::2].real / odd):
        assert np.ptp(ratios) <= 1e-12 * abs(ratios.mean())


def _slash_exact(P, g):
    """Exact P(gX)(cX+d)^m for integer coefficients P (ascending, degree m),
    by Horner in integers: H <- H (aX + b) + P_j (cX + d)^(m-j), j = m-1..0."""
    a, b, c, d = g
    m = len(P) - 1
    H, V = [P[m]], [1]
    for t in range(1, m + 1):
        H = [b * x + a * y for x, y in zip(H + [0], [0] + H)]
        V = [d * x + c * y for x, y in zip(V + [0], [0] + V)]
        H = [h + P[m - t] * v for h, v in zip(H, V)]
    return H


def _cocycle_exact(P, c, d):
    """r(g) for the class of bottom row (c, d) from r(S) = P and r(T) = 0, by
    r(T^q S g') = r(S)|g' + r(g'), with g' = (c d; -(a - qc) -(b - qd))."""
    a = pow(d, -1, c) if c > 1 else 0
    b = (a * d - 1) // c
    acc = [0] * len(P)
    while c != 0:
        q = a // c
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
        acc = [x + y for x, y in zip(acc, _slash_exact(P, (a, b, c, d)))]
    return acc


def test_period_table_matches_exact_rational_cocycle():
    # the Kohnen-Zagier shapes of r_Delta(S) pushed through the cocycle in
    # exact integer arithmetic (the even one times 691), scaled by the two
    # anchor constants of period_poly
    even = [-36, 0, 691, 0, -2073, 0, 2073, 0, -691, 0, 36]
    odd = [0, 4, 0, -25, 0, 42, 0, -25, 0, 4, 0]
    rS = per.period_poly(DELTA, S).coeffs
    w_even = float(np.mean(rS[2::2].imag / (np.array(even[2::2]) / 691)))
    w_odd = float(np.mean(rS[1::2].real / np.array(odd[1::2], dtype=float)))
    table = per.reduced_periods(DELTA, 20)
    deep = per.reduced_periods(DELTA, 80)
    top = [(row, r) for row, r in zip(_class_rows(80), deep.periods) if row[0] == 80]
    assert len(top) == 32
    worst = 0.0
    for (c, d), r in list(zip(_class_rows(20), table.periods)) + top:
        # int / int is the correctly rounded quotient, as float(Fraction) is
        E = np.array([x / 691 for x in _cocycle_exact(even, c, d)])
        O = np.array([x / 1 for x in _cocycle_exact(odd, c, d)])
        exact = 1j * w_even * E + w_odd * O
        worst = max(worst, np.abs(r - exact).max() / np.abs(exact).max())
    assert worst <= 1e-12


def _class_rows_exact(P, classes):
    """Exact r(g) of the classes (c, d), as `_cocycle_exact`, with the sum
    over the rest of a Euclid chain memoised per state.  A state and its
    negative have negated chains, and a slash by -g is the slash by g (m is
    even), so the memo is keyed on the state with c >= 0."""
    memo = {}

    def rest(a, b, c, d):
        if c == 0:
            return [0] * len(P)
        key = (a, b, c, d) if c > 0 else (-a, -b, -c, -d)
        if key not in memo:
            a, b, c, d = key
            q = a // c
            g = (c, d, -(a - q * c), -(b - q * d))
            memo[key] = [x + y for x, y in zip(_slash_exact(P, g), rest(*g))]
        return memo[key]

    out = []
    for c, d in classes:
        a = pow(d, -1, c) if c > 1 else 0
        out.append(rest(a, (a * d - 1) // c, c, d))
    return out


@pytest.mark.parametrize("f", [DELTA, qf.cusp_basis(16, 120)[0]], ids=["delta", "s16"])
def test_period_table_matches_the_exact_cocycle_of_its_anchor(f):
    # the stored r(S), taken as exact dyadic rationals and pushed through the
    # cocycle in integer arithmetic: every 10th class up to C = 80 and every
    # c = 80 row lie within 1e-12 of it, relative to the row's largest
    # coefficient
    table = per.reduced_periods(f, 80)
    rows = _class_rows(80)
    pick = [i for i, (c, _) in enumerate(rows) if i % 10 == 0 or c == 80]
    rS = per.period_poly(f, S).coeffs
    parts = (rS.real.tolist(), rS.imag.tolist())
    scale = max(Fraction(x).denominator for x in parts[0] + parts[1])
    re, im = (
        _class_rows_exact([int(Fraction(x) * scale) for x in part], [rows[i] for i in pick])
        for part in parts
    )
    worst = 0.0
    for i, x, y in zip(pick, re, im):
        # int / int is the correctly rounded quotient
        exact = np.array([u / scale for u in x]) + 1j * np.array([v / scale for v in y])
        worst = max(worst, np.abs(table.periods[i] - exact).max() / np.abs(exact).max())
    assert worst <= 1e-12


def test_period_cocycle_random_words():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(50):
        g = _word(rng)
        d = _word(rng)
        lhs = per.period_poly(DELTA, g * d)
        part = act_poly(per.period_poly(DELTA, g), d, 12)
        rhs = part + per.period_poly(DELTA, d)
        scale = max(1.0, lhs.norm_inf(), part.norm_inf())
        worst = max(worst, (lhs - rhs).norm_inf() / scale)
    assert worst <= 1e-8


# words of one to eight letters in S, T and T^-1, as `_word` draws them
_words = st.lists(st.sampled_from((S, T, T.inv())), min_size=1, max_size=8).map(
    lambda letters: functools.reduce(GroupElement.__mul__, letters, IDENTITY)
)


@settings(derandomize=True, database=None, deadline=None)
@given(_words, _words)
def test_period_cocycle_law_property(g, d):
    # the property form of the fixed-seed test above, same scale and bound
    lhs = per.period_poly(DELTA, g * d)
    part = act_poly(per.period_poly(DELTA, g), d, 12)
    rhs = part + per.period_poly(DELTA, d)
    scale = max(1.0, lhs.norm_inf(), part.norm_inf())
    assert (lhs - rhs).norm_inf() <= 1e-8 * scale


def _word(rng, max_len=8):
    g = IDENTITY
    for _ in range(rng.randint(1, max_len)):
        g = g * rng.choice((S, T, T.inv()))
    return g


def test_conjugation_intertwining_exact():
    for c, d in [(1, 0), (2, 1), (3, 2)]:
        g = complete_row(c, d)
        rp = per.period_poly(DELTA, g, "+")
        rm = per.period_poly(DELTA, g, "-")
        assert np.array_equal(rm.coeffs, np.conj(rp.coeffs))


def test_twisted_L_dual_route():
    worst = 0.0
    for s in range(7, 12):
        a = per.twisted_L(DELTA, s, 0, 1, method="series")
        b = per.twisted_L(DELTA, s, 0, 1, method="extract")
        worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-7


def test_twisted_L_general_twists_dual_route():
    for s, p, q in [(7, 1, 2), (9, 1, 3), (11, 2, 3)]:
        a = per.twisted_L(DELTA, s, p, q, method="series")
        b = per.twisted_L(DELTA, s, p, q, method="extract")
        assert abs(a - b) / abs(b) <= 1e-7


def test_twisted_L_periodicity_exact():
    assert per.twisted_L(DELTA, 7, 1, 3) == per.twisted_L(DELTA, 7, 4, 3)


def test_twisted_L_conjugation_symmetry():
    a = per.twisted_L(DELTA, 7, 1, 3, method="series")
    b = per.twisted_L(DELTA, 7, -1, 3, method="series")
    assert abs(a.conjugate() - b) / abs(a) <= 1e-13


def test_twisted_L_series_range_enforced():
    with pytest.raises(ConvergenceError):
        per.twisted_L(DELTA, 3, 0, 1, method="series")
    with pytest.raises(ValueError):
        per.twisted_L(DELTA, 7, 2, 4)  # gcd != 1
    # below the series range the auto method extracts
    v = per.twisted_L(DELTA, 3, 0, 1)
    assert abs(v) > 0


def test_twisted_L_rejects_a_non_cusp_form():
    # the constant term a(0) of E_4 has no place in the Dirichlet series
    for method in ("auto", "series", "extract"):
        with pytest.raises(ValueError, match="cusp form"):
            per.twisted_L(qf.eisenstein_q(4), 5, 0, 1, method=method)


def test_lambda_table_and_reconstruction():
    table = per.reduced_periods(DELTA, 2)
    worst = 0.0
    for c, d in [(1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (2, -1), (2, 3)]:
        g = complete_row(c, d)
        direct = per.period_poly(DELTA, g)
        rebuilt = per.period_from_Lvalues(DELTA, g, table)
        worst = max(worst, (direct - rebuilt).norm_inf() / max(1.0, direct.norm_inf()))
    assert worst <= 1e-6
    assert per.period_from_Lvalues(DELTA, complete_row(2, 1), table).norm_inf() > 0


def test_period_from_Lvalues_parabolic():
    table = per.reduced_periods(DELTA, 1)
    assert per.period_from_Lvalues(DELTA, T, table).norm_inf() == 0.0
    assert per.period_from_Lvalues(DELTA, IDENTITY, table).norm_inf() == 0.0


def test_lambda_table_incomplete_raises():
    table = per.reduced_periods(DELTA, 2)
    with pytest.raises(KeyError):
        table.value(7, 5, 1)
    with pytest.raises(KeyError):
        table.value(20, 2, 1)


def test_lambda_table_vs_integral_route():
    table = per.reduced_periods(DELTA, 5)
    for c, d, s in [(5, 1, 7), (4, 1, 8), (3, 2, 11)]:
        tab = table.value(s, c, d)
        direct = per.twisted_L(DELTA, s, (-d) % c, c, method="series")
        assert abs(tab - direct) / abs(direct) <= 1e-7


def _convexity_ratios(qmax):
    """Max of q^s |Lambda_f(s, p/q)| / q^(k-1+0.1) over s and p, per q, and
    whether no q exceeds 4 times the largest value at q <= max(2, qmax // 2)."""
    c0, _, _ = reduced_classes(qmax)
    q, s = c0.astype(float), np.arange(1, DELTA.k)[:, None]
    vals = np.abs(per.reduced_periods(DELTA, qmax).values)
    worst = (q**s * vals / q ** (DELTA.k - 1 + 0.1)).max(axis=0)
    ratios = {c: worst[c0 == c].max() for c in range(1, qmax + 1)}
    base = max(ratios[c] for c in ratios if c <= max(2, qmax // 2))
    return ratios, not any(v > 4.0 * base for v in ratios.values())


def test_convexity_spotcheck():
    # soft growth check of the twisted L-values against the convexity bound
    (rep5, bounded5), (rep10, bounded10) = _convexity_ratios(5), _convexity_ratios(10)
    assert bounded5 and bounded10
    assert max(rep10.values()) <= 4 * max(rep5.values())
    assert set(rep10) == set(range(1, 11))


def test_completed_L_reflection_symmetry():
    # Lambda(s, 0) = Lambda(k - s, 0) for the discriminant form: a theorem
    # about the completed L-function that no code path implements, so the
    # agreement independently certifies the extraction route end to end
    for s in range(1, 12):
        a = per.twisted_L(DELTA, s, 0, 1, method="extract")
        b = per.twisted_L(DELTA, 12 - s, 0, 1, method="extract")
        assert abs(a - b) / abs(a) <= 1e-12


def test_i_power_exact():
    assert [per.i_power(m) for m in range(4)] == [1, 1j, -1, -1j]
    assert per.i_power(-3) == 1j


@pytest.mark.parametrize(
    "call",
    [
        lambda: per.period_poly(DELTA, S, "x"),
        lambda: per.period_poly_base(DELTA, S, "?"),
        lambda: per.period_error_estimate(DELTA, S, "bogus"),
    ],
    ids=["period_poly", "period_poly_base", "period_error_estimate"],
)
def test_unknown_sign_is_rejected(call):
    with pytest.raises(ValueError, match="sign"):
        call()


def test_both_signs_share_one_cocycle(monkeypatch):
    f = qf.delta_q(43)  # a truncation length no other test uses: nothing cached
    built = []
    base = per.period_poly_base

    def counted(*args):
        built.append(args)
        return base(*args)

    monkeypatch.setattr(per, "period_poly_base", counted)
    g = complete_row(5, 3)
    plus = per.period_poly(f, g, "+")
    minus = per.period_poly(f, g, "-")
    assert np.array_equal(minus.coeffs, np.conj(plus.coeffs))
    table = per.reduced_periods(f, 5)
    _, _, lut = reduced_classes(5)
    assert np.array_equal(table.periods[lut[5, 3]], plus.coeffs)
    assert len(built) == 1


@pytest.mark.parametrize("f", [DELTA, qf.cusp_basis(16, 120)[0]], ids=["delta", "s16"])
def test_table_rows_equal_their_euclid_chains(f):
    # each class built from its parent row is bitwise the full chain of its
    # representative, at every level up to c = 80: a row of the table's one
    # batched slash is the same bits as the row of the chain's own call
    table = per.reduced_periods(f, 80)
    for (c, d), r in zip(_class_rows(80), table.periods):
        g = S if (c, d) == (1, 0) else complete_row(c, d)
        assert np.array_equal(r, per.period_poly(f, g).coeffs)
