import cmath
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miint import checks
from miint.errors import PrecisionError
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
    euclid_chain,
    mobius,
    reduced_classes,
    slash_rows,
)

DELTA = qf.delta_q(120)
DELTA_FINE = qf.delta_q(200)


def _class_rows(C):
    """The reduced classes (c, d0) up to C, in the order of the period table."""
    c0, d0, _ = reduced_classes(C)
    return list(zip(c0.tolist(), d0.tolist()))


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


def _eichler_F_mp(f, z, dps=40):
    """X coefficients of the Eichler integral of the truncated q-series at
    `dps` digits, each primitive by the recurrence of `_primitive_row`."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        m, zz = f.k - 2, mp.mpc(z.real, z.imag)
        moments = [mp.mpc(0)] * (m + 1)
        for n in range(1, f.N + 1):
            c, e = 1 / (2j * mp.pi * n), mp.exp(2j * mp.pi * n * zz)
            if abs(e) < mp.mpf(10) ** -(dps + 30):
                break  # the rest is negligible at dps digits, as |a(n)| <= 2 n^8 here
            prim, zp = e * c, mp.mpc(1)
            for t in range(m + 1):
                if t:
                    zp *= zz
                    prim = e * zp * c - t * c * prim
                moments[t] += f.coeffs[n] * prim
        coeffs = [math.comb(m, t) * (-1) ** (m - t) * moments[t] for t in range(m + 1)]
        return np.array([complex(c) for c in coeffs[::-1]])


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_eichler_F_matches_40_digit_values(form):
    # the kernel in the basis X - z, shifted to X, keeps every coefficient
    # within a few eps of the largest, also at |x| up to 3.4
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    for z in (0.3 + 1.2j, 2j, -0.45 + 0.9j, 3.4 + 1.1j):
        ref = _eichler_F_mp(f, z)
        got = per.eichler_F(f, z)
        assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_eichler_F_matches_the_per_frequency_rows(form):
    # the X^(m-t) coefficient is binom(m, t) (-1)^(m-t) sum_n a(n) I_t(n; z),
    # here summed exactly over the scalar recurrence's rows; the kernel and
    # the arrays it reads are cached read-only
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    m = f.k - 2
    eps = np.finfo(float).eps
    assert per._eichler_kernel(f) is per._eichler_kernel(f)
    for table in (per._eichler_kernel(f), per._ray_primitives(f.N, m), qf.coeff_array(f)):
        assert not table.flags.writeable
    for z in (1j, 0.5 + 2j, 0.3 + 1.2j):
        rows = np.array([_primitive_row(n, m, z) * complex(f.coeffs[n]) for n in range(1, f.N + 1)])
        got = per.eichler_F(f, z)[::-1]
        for t in range(m + 1):
            terms = math.comb(m, t) * (-1) ** (m - t) * rows[:, t]
            ref = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(got[t] - ref) <= 4 * eps * np.abs(terms).sum()


def test_eichler_fd_derivative():
    z, h = 1j, 1e-4
    dF = (per.eichler_F(DELTA, z + h) - per.eichler_F(DELTA, z - h)) * (1 / (2 * h))
    fz = qf.eval_form(DELTA, z)
    target = np.array(
        [math.comb(10, t) * (-1) ** t * z ** (10 - t) * fz for t in range(11)]
    )
    assert float(np.max(np.abs(dF - target))) <= 1e-6


def test_eichler_vanishes_at_cusp():
    assert np.abs(per.eichler_F(DELTA, 20j)).max() <= 1e-40


def test_eichler_minus_is_conjugate():
    Fp = per.eichler_F(DELTA, 2j, "+")
    Fm = per.eichler_F(DELTA, 2j, "-")
    assert np.array_equal(Fm, np.conj(Fp))


def test_eichler_requires_cusp_form():
    with pytest.raises(ValueError):
        per.eichler_F(qf.eisenstein_q(4, 40), 2j)


def test_period_base_trivial_elements():
    assert np.abs(per.period_poly_base(DELTA, T, 1j)).max() <= 1e-12
    assert np.abs(per.period_poly_base(DELTA, IDENTITY, 1j)).max() <= 1e-12


def test_period_base_point_independence():
    r1 = per.period_poly_base(DELTA, S, 1j)
    r2 = per.period_poly_base(DELTA, S, 0.5 + 2j)
    assert np.abs(r1 - r2).max() / np.abs(r1).max() <= 1e-9


def test_period_base_is_the_inline_formula_bit_for_bit():
    # through act_minus_one at weight (0, 0), r(g) keeps the bits of
    # F(g z0)|g - F(z0); the grid's points whose image lies below the
    # q-series floor are rejected by both
    forms = [DELTA, qf.cusp_basis(16)[0], *qf.cusp_basis(24)]
    gs = [S, T * S, S * T * S, GroupElement(2, 1, 5, 3), GroupElement(5, 2, 7, 3)]
    cases = 0
    for f in forms:
        for g in gs:
            for z0 in (1j, 0.5 + 2j, 0.3 + 1.1j):
                try:
                    inline = act_poly(per.eichler_F(f, mobius(g, z0)), g, f.k) - per.eichler_F(f, z0)
                except PrecisionError:
                    with pytest.raises(PrecisionError):
                        per.period_poly_base(f, g, z0)
                    continue
                assert per.period_poly_base(f, g, z0).tobytes() == inline.tobytes()
                cases += 1
    assert cases == 36


def test_period_cocycle_vs_base_route():
    worst = 0.0
    for c, d in [(1, 0), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, 2), (3, -2)]:
        g = complete_row(c, d)
        rb = per.period_poly_base(DELTA_FINE, g, 1j)
        rc = per.period_poly(DELTA_FINE, g, "+")
        worst = max(worst, np.abs(rb - rc).max() / max(1.0, np.abs(rb).max()))
    assert worst <= 1e-9


def test_period_relations():
    rS = per.period_poly(DELTA, S)
    scale = np.abs(rS).max()
    assert np.abs(act_poly(rS, S, 12) + rS).max() / scale <= 1e-9
    st = S * T
    assert np.abs(per.period_poly(DELTA, st * st * st)).max() / scale <= 1e-8
    assert np.abs(per.period_poly(DELTA, S * S)).max() / scale <= 1e-9


def test_delta_period_rational_structure():
    # Kohnen-Zagier: the even and odd parts of r_Delta(S) are constant multiples
    # of (36/691)(X^10 - 1) - X^2 (X^2 - 1)^3 and 4X^9 - 25X^7 + 42X^5 - 25X^3 + 4X
    r = per.period_poly(qf.delta_q(), S)
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
    rS = per.period_poly(DELTA, S)
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
    rS = per.period_poly(f, S)
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
        scale = max(1.0, np.abs(lhs).max(), np.abs(part).max())
        worst = max(worst, np.abs(lhs - rhs).max() / scale)
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
    scale = max(1.0, np.abs(lhs).max(), np.abs(part).max())
    assert np.abs(lhs - rhs).max() <= 1e-8 * scale


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
        assert np.array_equal(rm, np.conj(rp))


def test_twisted_L_dual_route():
    worst = 0.0
    for s in range(1, 12):
        a = per.twisted_L(DELTA, s, 0, 1)
        b = per._lambdas_by_extraction(DELTA, 0, 1)[s - 1]
        worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-7


def test_twisted_L_general_twists_dual_route():
    for s in range(1, 12):
        for p, q in [(1, 2), (1, 3), (2, 3)]:
            a = per.twisted_L(DELTA, s, p, q)
            b = per._lambdas_by_extraction(DELTA, p % q, q)[s - 1]
            assert abs(a - b) / abs(b) <= 1e-7


def _scalar_anywhere(f, z):
    """The scalar route to f(z): reduce z into the fundamental domain point
    by point, then Horner over the exact coefficients."""
    factor = 1.0 + 0j
    for _ in range(10_000):
        z = z - round(z.real)
        if abs(z) >= 1 - 1e-15:
            break
        factor *= z ** (-f.k)
        z = -1 / z
    q = cmath.exp(2j * math.pi * z)
    acc = 0j
    for c in f.coeffs[::-1]:
        acc = acc * q + complex(c)
    return factor * acc


def _scalar_lambdas(f, ss, p, q):
    """Lambda_f(s, p/q) for every s in ss by the per-node scalar quadrature:
    one scalar evaluation per Gauss-Legendre node of each geometric panel
    over [1e-5/q^2, 1], plus the tail over [1, inf) term by term through the
    incomplete gamma Gamma(s, u) = (s-1)! e^-u sum_{t<s} u^t/t!."""
    x0 = p / q
    out = dict.fromkeys(ss, 0j)
    for n in range(1, f.N + 1):
        u, an = 2 * math.pi * n, complex(f.coeffs[n]) * cmath.exp(2j * math.pi * n * x0)
        for s in ss:
            acc, term = 0.0, 1.0
            for t in range(s):
                if t:
                    term *= u / t
                acc += term
            out[s] += an * math.factorial(s - 1) * math.exp(-u) * acc / u**s
    nodes, weights = np.polynomial.legendre.leggauss(24)
    lo = 1e-5 / (q * q)
    while lo < 1.0:
        hi = min(1.0, 2.0 * lo)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for xi, wi in zip(nodes, weights):
            x = mid + half * xi
            fx = _scalar_anywhere(f, complex(x0, x))
            for s in ss:
                out[s] += wi * half * fx * x ** (s - 1)
        lo = hi
    return out


@pytest.mark.parametrize("form", ["delta", "s16"])
@pytest.mark.parametrize("p, q", [(0, 1), (1, 3), (2, 5), (-1, 7)])
def test_series_L_values_match_the_scalar_quadrature(monkeypatch, form, p, q):
    # every s in 1..k-1; the array route evaluates the form in one call over
    # all nodes of all panels
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    ss = list(range(1, f.k))
    ref = _scalar_lambdas(f, ss, p % q, q)
    calls, anywhere = [], per.eval_form_anywhere
    monkeypatch.setattr(per, "eval_form_anywhere", lambda g, z: calls.append(z) or anywhere(g, z))
    for s in ss:
        got = per.twisted_L(f, s, p, q)
        assert abs(got - ref[s]) <= 1e-13 * abs(ref[s])
    assert len(calls) == len(ss)


@pytest.mark.parametrize("form", ["delta", "s16"])
@pytest.mark.parametrize("p, q", [(0, 1), (2, 5), (6, 7)])
def test_a_twist_s_values_come_from_one_pass(form, p, q):
    # entry s - 1 of a twist's vector has the same bits however many s the
    # pass covers, and twisted_L returns that entry
    f = DELTA if form == "delta" else qf.cusp_basis(16)[0]
    longest = per._lambdas_by_integral(f, p, q, 40)
    assert longest.shape == (40,)
    assert np.array_equal(per._lambdas_by_integral(f, p, q, f.k - 1), longest[: f.k - 1])
    for s in range(1, 41):  # twisted_L reads the last entry of the pass with n = s
        assert per.twisted_L(f, s, p, q) == longest[s - 1]


def test_twisted_L_periodicity_exact():
    assert per.twisted_L(DELTA, 7, 1, 3) == per.twisted_L(DELTA, 7, 4, 3)


def test_twisted_L_conjugation_symmetry():
    a = per.twisted_L(DELTA, 7, 1, 3)
    b = per.twisted_L(DELTA, 7, -1, 3)
    assert abs(a.conjugate() - b) / abs(a) <= 1e-13


def test_twisted_L_series_range_enforced():
    # the vertical-line integral converges for every s >= 1, below the
    # Dirichlet series' range too: at s = 3 it agrees with extraction
    series = per.twisted_L(DELTA, 3, 0, 1)
    extract = per._lambdas_by_extraction(DELTA, 0, 1)[2]
    assert abs(series - extract) <= 1e-13 * abs(extract)
    with pytest.raises(ValueError):
        per.twisted_L(DELTA, 7, 2, 4)  # gcd != 1
    for method in ("series", "extract", "auto"):  # the integral is the one route
        with pytest.raises(TypeError):
            per.twisted_L(DELTA, 3, 0, 1, method=method)


def test_twisted_L_rejects_a_non_cusp_form():
    # the constant term a(0) of E_4 has no place in the Dirichlet series,
    # by the integral or by the extraction reference
    e4 = qf.eisenstein_q(4)
    for route in (lambda: per.twisted_L(e4, 5, 0, 1), lambda: per._lambdas_by_extraction(e4, 0, 1)):
        with pytest.raises(ValueError, match="cusp form"):
            route()


def test_lambda_table_and_reconstruction():
    table = per.reduced_periods(DELTA, 2)
    worst = 0.0
    for c, d in [(1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (2, -1), (2, 3)]:
        g = complete_row(c, d)
        direct = per.period_poly(DELTA, g)
        rebuilt = per.period_from_Lvalues(DELTA, g, table)
        worst = max(worst, np.abs(direct - rebuilt).max() / max(1.0, np.abs(direct).max()))
    assert worst <= 1e-6
    assert np.abs(per.period_from_Lvalues(DELTA, complete_row(2, 1), table)).max() > 0


def test_period_from_Lvalues_parabolic():
    table = per.reduced_periods(DELTA, 1)
    assert np.abs(per.period_from_Lvalues(DELTA, T, table)).max() == 0.0
    assert np.abs(per.period_from_Lvalues(DELTA, IDENTITY, table)).max() == 0.0


def test_lambda_table_incomplete_raises():
    table = per.reduced_periods(DELTA, 2)
    for g in (complete_row(5, 1), complete_row(3, -1), GroupElement(-1, 0, -5, -1)):
        with pytest.raises(KeyError, match="does not cover"):
            per.period_from_Lvalues(DELTA, g, table)


def test_period_from_Lvalues_every_class_to_c_12():
    # each class's column of the table, shifted back to monomials, against
    # the Euclid-chain period of its matrix, relative to its largest
    # coefficient; g and -g read the same class with the same bits
    for f in (DELTA, qf.cusp_basis(16)[0]):
        table = per.reduced_periods(f, 12)
        gs = [complete_row(c, d0) for c, d0 in _class_rows(12)]
        for g, direct in zip(gs, per.period_polys(f, gs)):
            rebuilt = per.period_from_Lvalues(f, g, table)
            assert np.abs(rebuilt - direct).max() <= 1e-14 * np.abs(direct).max()
            minus_g = GroupElement(*(-x for x in g.entries))
            assert per.period_from_Lvalues(f, minus_g, table).tobytes() == rebuilt.tobytes()


def test_lambda_table_vs_integral_route():
    # every class with c <= 6 at every s = 1..k-1 against the vertical-line
    # integral, which shares with the table's Euclid-chain walk only the
    # form's coefficients; relative to each class's largest value
    for f in (DELTA, qf.cusp_basis(16)[0]):
        vals = per.reduced_periods(f, 6).values
        for i, (c, d0) in enumerate(_class_rows(6)):
            direct = per._lambdas_by_integral(f, -d0 % c, c, f.k - 1)
            assert np.abs(vals[:, i] - direct).max() <= 1e-12 * np.abs(direct).max()


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
    lams = per._lambdas_by_extraction(DELTA, 0, 1)
    for s in range(1, 12):
        a, b = lams[s - 1], lams[12 - s - 1]
        assert abs(a - b) / abs(a) <= 1e-12


def test_i_power_exact():
    assert [per.i_power(m) for m in range(4)] == [1, 1j, -1, -1j]
    assert per.i_power(-3) == 1j


@pytest.mark.parametrize(
    "call",
    [
        lambda: per.period_poly(DELTA, S, "x"),
        lambda: per.eichler_F(DELTA, 2j, "?"),
    ],
    ids=["period_poly", "eichler_F"],
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
    assert np.array_equal(minus, np.conj(plus))
    table = per.reduced_periods(f, 5)
    _, _, lut = reduced_classes(5)
    assert np.array_equal(table.periods[lut[5, 3]], plus)
    assert len(built) == 1


@pytest.mark.parametrize("f", [DELTA, qf.cusp_basis(16, 120)[0]], ids=["delta", "s16"])
def test_table_rows_equal_their_euclid_chains(f):
    # each class built from its parent row is bitwise the full chain of its
    # representative, at every level up to c = 80: a row of the table's one
    # batched slash is the same bits as the row of the chain's own call
    table = per.reduced_periods(f, 80)
    for (c, d), r in zip(_class_rows(80), table.periods):
        g = S if (c, d) == (1, 0) else complete_row(c, d)
        assert np.array_equal(r, per.period_poly(f, g))


def _chain_sum(f, g, sign):
    """The single-element route: g's Euclid chain slashed in its own
    `slash_rows` call, its rows summed innermost first from zero, conjugated
    for '-'."""
    chain = np.array([h for _, h in euclid_chain(g)], dtype=np.float64).reshape(-1, 4)
    acc = np.zeros(f.k - 1, dtype=np.complex128)
    for row in slash_rows(per._anchor(f), *chain.T)[::-1]:
        acc = acc + row
    return np.conj(acc) if sign == "-" else acc


@pytest.mark.parametrize("sign", "+-")
def test_a_batch_of_period_polynomials_is_each_element_alone_bitwise(sign):
    # the cocycle suite's 150 elements (g d, g and d of 50 random word pairs)
    # and four with short or empty chains, as uint64 bit patterns, so that the
    # signs of zeros count
    rng = random.Random(checks.SEED)
    pairs = [(checks._random_word(rng, 8), checks._random_word(rng, 8)) for _ in range(50)]
    gs = [h for g, d in pairs for h in (g * d, g, d)] + [IDENTITY, T, T_pow(5), S]
    batch = per.period_polys(DELTA, gs, sign)
    assert len(batch) == len(gs)
    for g, P in zip(gs, batch):
        ref = _chain_sum(DELTA, g, sign).view(np.uint64)
        assert P.view(np.uint64).tolist() == ref.tolist()
        assert per.period_poly(DELTA, g, sign).view(np.uint64).tolist() == ref.tolist()
    # a batch of empty chains only ('-' conjugates the zeros too), and an
    # empty batch
    empty = [IDENTITY, T_pow(-3)]
    for g, P in zip(empty, per.period_polys(DELTA, empty, sign)):
        ref = _chain_sum(DELTA, g, sign).view(np.uint64)
        assert P.view(np.uint64).tolist() == ref.tolist()
        assert not P.any()
    assert per.period_polys(DELTA, [], sign) == []


def test_the_cocycle_suite_slashes_once(monkeypatch):
    # every period polynomial of the suite comes from one batched call
    calls = []
    slash = per.slash_rows

    def counted(*args):
        calls.append(args)
        return slash(*args)

    monkeypatch.setattr(per, "slash_rows", counted)
    results = checks.suite_cocycle()
    assert all(res.passed for res in results)
    assert len(calls) == 1


# each case: the integer call, and the same call with one argument a float;
# a float hashes as its integer, so the rule must come before any cache: the
# float call fails the same way cold (arguments no other test uses) and once
# the integer call has cached its key
_INTEGER_RULE = {
    "eisenstein_q-k": (lambda: qf.eisenstein_q(4, 17), lambda: qf.eisenstein_q(4.0, 17)),
    "eisenstein_q-N": (lambda: qf.eisenstein_q(6, 19), lambda: qf.eisenstein_q(6, 19.0)),
    "delta_q": (lambda: qf.delta_q(23), lambda: qf.delta_q(23.0)),
    "cusp_basis-k": (lambda: qf.cusp_basis(16, 29), lambda: qf.cusp_basis(16.0, 29)),
    "cusp_basis-N": (lambda: qf.cusp_basis(20, 31), lambda: qf.cusp_basis(20, 31.0)),
    "twisted_L-s": (lambda: per.twisted_L(DELTA, 3, 1, 3), lambda: per.twisted_L(DELTA, 3.0, 1, 3)),
    "twisted_L-p": (lambda: per.twisted_L(DELTA, 3, 1, 3), lambda: per.twisted_L(DELTA, 3, 1.0, 3)),
    "twisted_L-q": (lambda: per.twisted_L(DELTA, 3, 1, 3), lambda: per.twisted_L(DELTA, 3, 1, 3.0)),
    "reduced_periods": (lambda: per.reduced_periods(DELTA, 3), lambda: per.reduced_periods(DELTA, 3.0)),
}


@pytest.mark.parametrize("case", list(_INTEGER_RULE))
def test_the_integer_rule_comes_before_any_cache(case):
    integer, floating = _INTEGER_RULE[case]
    for _ in ("cold", "after the integer call"):
        with pytest.raises(ValueError, match="integers"):
            floating()
        integer()
