import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from miint import group
from miint.group import (
    BiWeight,
    GroupElement,
    IDENTITY,
    INFINITY,
    PolyC,
    S,
    T,
    T_pow,
    act_poly,
    act_poly_matrix,
    act_rs,
    act_tensor,
    binomial_matrix,
    complete_row,
    cosets,
    enumerate_cosets,
    jfactor,
    mobius,
    reduced_classes,
    slash_rows,
    taylor_shift,
    word_decompose,
    word_to_matrix,
)


def random_word(rng, max_len=6):
    g = IDENTITY
    for _ in range(rng.randint(1, max_len)):
        g = g * rng.choice((S, T, T.inv()))
    return g


def test_determinant_enforced():
    with pytest.raises(ValueError):
        GroupElement(1, 1, 1, 1)


def test_composition_and_inverse_exact():
    rng = random.Random(1)
    for _ in range(30):
        g = random_word(rng)
        assert (g * g.inv()).entries == IDENTITY.entries
        h = random_word(rng)
        gh = g * h
        assert gh.a * gh.d - gh.b * gh.c == 1


def test_mobius_fixed_points():
    assert mobius(S, 1j) == 1j
    assert mobius(T, INFINITY) is INFINITY
    assert mobius(S.inv(), INFINITY) == Fraction(0)


def test_mobius_preserves_upper_half_plane():
    rng = random.Random(2)
    for _ in range(50):
        g = random_word(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        assert mobius(g, z).imag > 0


def test_mobius_rational_boundary():
    g = complete_row(2, 1)
    assert mobius(g, INFINITY) == Fraction(g.a, 2)
    # pole of the fractional-linear map goes to infinity
    assert mobius(S, Fraction(0)) is INFINITY


def test_jfactor_trivial_values():
    assert jfactor(T, 0.3 + 1j) == 1
    assert jfactor(S, 1j) == 1j


def test_jfactor_cocycle_identity():
    rng = random.Random(3)
    worst = 0.0
    for _ in range(100):
        g, d = random_word(rng), random_word(rng)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.5))
        lhs = jfactor(g * d, z)
        rhs = jfactor(g, mobius(d, z)) * jfactor(d, z)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-12


def test_act_rs_identity_and_parity():
    w = BiWeight(4, 2)
    assert act_rs(3 + 1j, IDENTITY, 2j, w) == 3 + 1j
    neg = GroupElement(-1, 0, 0, -1)
    # (-1)^(r+s) = 1 by the parity invariant
    assert abs(act_rs(3 + 1j, neg, 2j, w) - (3 + 1j)) < 1e-15


def test_act_rs_rejects_real_z():
    with pytest.raises(ValueError):
        act_rs(1.0, S, 1.0 + 0j, BiWeight(2, 2))


def test_biweight_parity_enforced():
    with pytest.raises(ValueError):
        BiWeight(3, 2)
    assert BiWeight(-1, 3).r == -1  # nonpositive entries allowed


def test_act_poly_constant_weight_two():
    one = PolyC([1.0])
    rng = random.Random(4)
    for _ in range(10):
        g = random_word(rng)
        out = act_poly(one, g, 2)
        assert abs(out.coeffs[0] - 1.0) < 1e-15


def _expand_exact(a, b, c, d, m):
    """Columns j = 0..m: ascending integer coefficients of (aX+b)^j (cX+d)^(m-j)."""

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    cols = []
    for j in range(m + 1):
        col = [1]
        for factor in [[b, a]] * j + [[d, c]] * (m - j):
            col = mul(col, factor)
        cols.append(col)
    return cols


entry = st.integers(-100, 100)
# words in S and T-powers; the empty word is the identity
words = st.lists(st.one_of(st.just(S), st.integers(-50, 50).map(T_pow)), max_size=12).map(
    lambda letters: functools.reduce(GroupElement.__mul__, letters, IDENTITY)
)
properties = settings(derandomize=True, database=None, deadline=None)


@properties
@given(entry, entry, entry, entry, st.sampled_from((2, 10, 14)))
def test_binomial_matrix_matches_exact_expansion(a, b, c, d, m):
    # any integer entries, not only determinant 1
    M = binomial_matrix(a, b, c, d, m)
    for j, col in enumerate(_expand_exact(a, b, c, d, m)):
        err = max(abs(complex(M[i, j]) - col[i]) for i in range(m + 1))
        assert err <= 1e-13 * max(abs(x) for x in col)


@settings(properties, max_examples=50)
@given(
    st.lists(st.tuples(entry, entry, entry, entry), min_size=2, max_size=3),
    st.sampled_from((2, 10, 14)),
    st.integers(0, 2**32 - 1),
)
def test_slash_rows_match_exact_expansion(mats, m, seed):
    # any integer entries, not only determinant 1, and integer real and
    # imaginary parts, so the exact slash is an integer expansion; each
    # coefficient lies within 4 m eps of the sum of the magnitudes of its
    # exact terms, and each row of the batch is the bits of a single call
    rng = np.random.default_rng(seed)
    re, im = rng.integers(-1000, 1001, (2, m + 1)).tolist()
    P = np.array(re) + 1j * np.array(im)
    rows = slash_rows(P, *np.array(mats).T)
    eps = np.finfo(float).eps
    for (a, b, c, d), row in zip(mats, rows):
        cols = _expand_exact(a, b, c, d, m)
        mags = _expand_exact(abs(a), abs(b), abs(c), abs(d), m)
        for got, coef in ((row.real, re), (row.imag, im)):
            for i in range(m + 1):
                exact = sum(x * col[i] for x, col in zip(coef, cols))
                size = sum(abs(x) * col[i] for x, col in zip(coef, mags))
                assert abs(got[i] - exact) <= 4 * m * eps * size
        assert slash_rows(P, a, b, c, d)[0].tobytes() == row.tobytes()


@properties
@given(words, words, st.sampled_from((4, 12, 16)), st.integers(0, 2**32 - 1))
def test_act_poly_right_action_composition(g, h, k, seed):
    # residual relative to the intermediate scale amplified by the action
    rng = np.random.default_rng(seed)
    P = PolyC(rng.uniform(-1, 1, k - 1) + 1j * rng.uniform(-1, 1, k - 1))
    mid = act_poly(P, g, k)
    lhs = act_poly(mid, h, k)
    rhs = act_poly(P, g * h, k)
    hmax = max(abs(e) for e in h.entries)
    scale = max(1.0, rhs.norm_inf(), mid.norm_inf() * float(hmax) ** (k - 2))
    assert (lhs - rhs).norm_inf() <= 1e-12 * scale


def test_act_poly_pointwise_oracle():
    # P = (X - z)^(k-2) acted by g, checked at k-1 complex sample points
    # off the real axis (the formal variable may be evaluated anywhere,
    # and this keeps clear of the pole of gX)
    k = 12
    z = 0.7 + 1.3j
    coeffs = [math.comb(k - 2, t) * (-z) ** (k - 2 - t) for t in range(k - 1)]
    P = PolyC(coeffs)
    rng = random.Random(6)
    samples = [1.1 * np.exp(2j * np.pi * t / (k - 1)) + 0.37j for t in range(k - 1)]
    for _ in range(5):
        g = random_word(rng)
        acted = act_poly(P, g, k)
        coeff_scale = acted.norm_inf()
        for x in samples:
            den = g.c * x + g.d
            gx = (g.a * x + g.b) / den
            direct = P(gx) * den ** (k - 2)
            scale = max(1.0, abs(direct), coeff_scale * abs(x) ** (k - 2))
            assert abs(acted(x) - direct) / scale <= 1e-10


def test_act_poly_degree_overflow():
    with pytest.raises(ValueError):
        act_poly(PolyC([1, 2, 3]), S, 2)


def test_act_poly_matrix_antihomomorphism():
    k = 8
    g, d = S * T, T.inv() * S
    M1 = act_poly_matrix(g, k)
    M2 = act_poly_matrix(d, k)
    M12 = act_poly_matrix(g * d, k)
    assert np.allclose(M2 @ M1, M12, rtol=1e-12, atol=1e-12)


def test_act_tensor_identity_and_composition():
    k = 12
    w = BiWeight(10, 10)
    rng = random.Random(7)
    base = PolyC([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(k - 1)])
    F = lambda z: base * (1.0 / complex(z))
    assert (act_tensor(F, IDENTITY, w, k)(2j) - F(2j)).norm_inf() < 1e-15
    for _ in range(3):
        g, d = random_word(rng, 4), random_word(rng, 4)
        lhs = act_tensor(act_tensor(F, g, w, k), d, w, k)(2j)
        rhs = act_tensor(F, g * d, w, k)(2j)
        scale = max(1.0, rhs.norm_inf())
        assert (lhs - rhs).norm_inf() / scale <= 1e-10


def brute_coprime_count(C, D):
    return sum(
        1
        for c in range(1, C + 1)
        for d in range(-D, D + 1)
        if math.gcd(c, abs(d)) == 1
    )


def test_enumerate_cosets_counts():
    assert len(enumerate_cosets(1, 1)) == 4  # identity + (1,-1),(1,0),(1,1)
    assert len(enumerate_cosets(2, 2)) == 8  # identity + 7
    for C, D in ((3, 5), (5, 7), (10, 10)):
        assert len(enumerate_cosets(C, D)) == brute_coprime_count(C, D) + 1


def test_enumerate_cosets_rows_and_order():
    table = cosets(3, 4)
    # every coset lies in the outer c-shells (C <= 8) and the band covers
    # every d but 0: the block "band and shells" in ascending c, ascending
    # |d|, positive sign first, then the block "shells only", (1, 0)
    order = list(zip(table.cs.tolist(), table.ds.tolist()))
    assert table.cuts == (0, 0, len(order) - 1)
    assert order[:5] == [(1, 1), (1, -1), (1, 2), (1, -2), (1, 3)]
    assert order[-1] == (1, 0)
    assert [(g.c, g.d) for g in enumerate_cosets(3, 4)[1:]] == order
    for g in enumerate_cosets(3, 4)[1:]:
        assert g.a * g.d - g.b * g.c == 1
        assert g.c > 0


def _coset_rows_oracle(C, D):
    """The coset rows in ascending c, ascending |d|, positive d first, one
    `math.gcd` per (c, d)."""
    rows = []
    for c in range(1, C + 1):
        for ad in range(0, D + 1):
            for d in (ad,) if ad == 0 else (ad, -ad):
                if math.gcd(c, abs(d)) == 1:
                    rows.append((c, d))
    return rows


def _tail_block(C, D, c, d):
    """The tail block of the coset (c, d): 0 in neither the outer c-shells nor
    the outer |d| band, 1 in the band only, 2 in both, 3 in the shells only."""
    shell = c > C - max(1, min(8, C))
    band = abs(d) > D - min(max(2 * C, 8), D)
    return {(False, False): 0, (False, True): 1, (True, True): 2, (True, False): 3}[shell, band]


@properties
@given(st.integers(1, 12), st.integers(1, 40))
@example(12, 3)  # D < C - 1: the classes (c, d0) with d0 > D have no coset
def test_coset_table_matches_the_brute_force_rows(C, D):
    c0, d0, lut = reduced_classes(C)
    classes = [(c, d) for c in range(1, C + 1) for d in range(c) if math.gcd(c, d) == 1]
    assert list(zip(c0.tolist(), d0.tolist())) == classes
    assert lut[c0, d0].tolist() == list(range(len(classes)))
    assert (lut >= 0).sum() == len(classes)
    table = cosets(C, D)
    # the table's layout: the brute-force rows stably sorted by tail block
    rows = sorted(_coset_rows_oracle(C, D), key=lambda row: _tail_block(C, D, *row))
    assert list(zip(table.cs.tolist(), table.ds.tolist())) == rows
    assert np.array_equal(c0[table.cls], table.cs)
    assert np.array_equal(d0[table.cls] + table.n * table.cs, table.ds)
    a, b = table.tops
    assert list(zip(a.tolist(), b.tolist())) == [complete_row(c, d).entries[:2] for c, d in rows]


@pytest.mark.parametrize(
    "C, D", [(1, 10), (3, 5), (8, 16), (8, 80), (12, 3), (20, 30), (40, 400), (80, 800)]
)
def test_coset_table_lays_out_the_tail_blocks(C, D):
    # four contiguous blocks, each in ascending c, ascending |d|, positive d
    # first: neither outer c-shell nor outer |d| band, band only, band and
    # shell, shell only; D <= 2C is a band that covers every d but 0
    table = cosets(C, D)
    rows = list(zip(table.cs.tolist(), table.ds.tolist()))
    oracle = _coset_rows_oracle(C, D)
    assert len(rows) == len(set(rows)) == len(oracle) == brute_coprime_count(C, D)
    assert set(rows) == set(oracle)
    shells, band = max(1, min(8, C)), min(max(2 * C, 8), D)
    assert (table.shells, table.band) == (shells, band)
    blocks = [_tail_block(C, D, *row) for row in oracle]
    edges = (0, *table.cuts, len(rows))
    for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
        assert rows[lo:hi] == [row for row, blk in zip(oracle, blocks) if blk == b]
    n = len(rows)
    assert np.flatnonzero(np.abs(table.ds) > D - band).tolist() == list(
        range(table.cuts[0], table.cuts[2])
    )
    assert np.flatnonzero(table.cs > C - shells).tolist() == list(range(table.cuts[1], n))


@properties
@given(st.integers(1, 10**6), st.integers(-(10**6), 10**6))
def test_complete_row_has_det_one_and_a_reduced_mod_c(c, d):
    assume(math.gcd(c, d) == 1)
    g = complete_row(c, d)
    assert (g.c, g.d) == (c, d)
    assert g.a * g.d - g.b * g.c == 1
    assert 0 <= g.a < c


def test_complete_row_rejects_what_has_no_completion():
    assert complete_row(1, 0) == S
    for c, d in ((0, 1), (-3, 1), (4, 2)):
        with pytest.raises(ValueError):
            complete_row(c, d)


def test_word_decompose_trivials():
    assert word_decompose(IDENTITY) == []
    assert word_decompose(S) == [("S", 1)]
    assert word_decompose(T_pow(5)) == [("T", 5)]


@properties
@given(words)
def test_word_decompose_reassembly(g):
    m = word_to_matrix(word_decompose(g))
    assert m.entries == g.entries or m.entries == tuple(-x for x in g.entries)


def test_polyc_conjugation_and_eval():
    P = PolyC([1 + 2j, 3 - 1j, 0.5j])
    Q = P.conjugate()
    assert np.array_equal(Q.coeffs, np.conj(P.coeffs))
    x = 0.7
    assert abs(P(x).conjugate() - Q(x)) < 1e-15  # X treated as real


def test_polyc_shift_roundtrip():
    P = PolyC([1.0, -2.0, 3.0, 0.25])
    a = 0.3 - 0.7j
    Q = P.shift(a).shift(-a)
    assert (Q - P).norm_inf() < 1e-13


def _shift_exact(p, a):
    """Coefficients of p(X + a) for exact rational p and a."""
    return [sum(math.comb(e, t) * a ** (e - t) * p[e] for e in range(t, len(p))) for t in range(len(p))]


def test_taylor_shift_matches_exact_fraction_expansion():
    # one (K, n) batch, each column shifted by its own integer or rational;
    # every coefficient lies within 4 K eps of the sum of the magnitudes of
    # its exact terms, the shift's own condition number
    K = 15
    rng = np.random.default_rng(5)
    P = rng.uniform(-1, 1, (K, 6)) + 1j * rng.uniform(-1, 1, (K, 6))
    shifts = np.array([0, 1, -7, 800, -3 / 7, 5 / 11])
    got = taylor_shift(P.copy(), shifts)
    eps = np.finfo(float).eps
    for col, a in enumerate(shifts):
        a = Fraction(float(a))
        for part in ("real", "imag"):
            p = [Fraction(x) for x in getattr(P[:, col], part).tolist()]
            exact = _shift_exact(p, a)
            size = _shift_exact([abs(x) for x in p], abs(a))
            for t in range(K):
                err = abs(getattr(got[t, col], part) - float(exact[t]))
                assert err <= 4 * K * eps * float(size[t])


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_blocked_taylor_shift_is_bitwise_the_plain_division(dtype):
    # three full column blocks and a ragged tail, shifts of both signs: the
    # same bits as synthetic division over the whole table at once
    K, width = 15, 3 * group._SHIFT_BLOCK + 123
    rng = np.random.default_rng(7)
    P = rng.uniform(-1, 1, (K, width)) + 1j * rng.uniform(-1, 1, (K, width))
    shifts = rng.integers(-800, 801, width).astype(dtype)
    if dtype is np.float64:
        shifts /= rng.integers(1, 81, width)
    assert (shifts < 0).any() and (shifts > 0).any()
    plain = P.copy()
    for i in range(K - 1):
        for j in range(K - 2, i - 1, -1):
            plain[j] += shifts * plain[j + 1]
    assert taylor_shift(P, shifts) is P
    assert P.tobytes() == plain.tobytes()
