import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from miint import group
from miint.group import (
    BiWeight,
    GroupElement,
    IDENTITY,
    S,
    T,
    T_pow,
    act_poly,
    act_poly_matrix,
    act_tensor,
    automorphy,
    binomial_matrix,
    binomials,
    complete_row,
    cosets,
    enumerate_cosets,
    mobius,
    reduced_classes,
    shift_matrix,
    slash_rows,
    taylor_shift,
    word_decompose,
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
    rho = complex(-0.5, math.sqrt(3) / 2)  # fixed by S T = (0 -1; 1 1)
    assert abs(mobius(S * T, rho) - rho) <= 1e-15
    assert mobius(T_pow(-3), 0.25 + 2j) == -2.75 + 2j


def test_mobius_preserves_upper_half_plane():
    rng = random.Random(2)
    for _ in range(50):
        g = random_word(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        assert mobius(g, z).imag > 0


def test_jfactor_trivial_values():
    # j(T, z) = 1 and j(S, z) = z
    assert automorphy(T, 0.3 + 1j, BiWeight(4, 2)) == 1
    assert automorphy(S, 2j, BiWeight(-2, 0)) == (2j) ** 2


def test_jfactor_cocycle_identity():
    rng = random.Random(3)
    w = BiWeight(3, 1)
    worst = 0.0
    for _ in range(100):
        g, d = random_word(rng), random_word(rng)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.5))
        lhs = automorphy(g * d, z, w)
        rhs = automorphy(g, mobius(d, z), w) * automorphy(d, z, w)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-12


def test_act_rs_identity_and_parity():
    w = BiWeight(4, 2)
    assert automorphy(IDENTITY, 2j, w) == 1
    # (-1)^(r+s) = 1 by the parity invariant
    assert automorphy(GroupElement(-1, 0, 0, -1), 2j, w) == 1


def test_act_rs_rejects_real_z():
    for z in (1.0 + 0j, 2.0):
        with pytest.raises(ValueError):
            automorphy(S, z, BiWeight(2, 2))


def test_automorphy_rejects_lower_half_plane_and_nan():
    for z in (1 - 2j, float("nan"), complex(float("nan"), 1.0)):
        with pytest.raises(ValueError):
            automorphy(S, z, BiWeight(2, 2))


def test_biweight_parity_enforced():
    with pytest.raises(ValueError):
        BiWeight(3, 2)
    assert BiWeight(-1, 3).r == -1  # nonpositive entries allowed


def test_act_poly_constant_weight_two():
    one = np.array([1.0 + 0j])
    rng = random.Random(4)
    for _ in range(10):
        g = random_word(rng)
        out = act_poly(one, g, 2)
        assert abs(out[0] - 1.0) < 1e-15


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


def _dense_l_sum(a, b, c, d, m):
    """The l-sum of `binomial_matrix` over the full [i, j, l] cube: every
    term the product ((a^l b^(j-l)) c^(i-l)) d^(m-j-i+l) times its binomial
    coefficients, the powers' 0th where the term is out of range, so the
    coefficient 0 makes it +0."""
    i, j, l = np.ogrid[: m + 1, : m + 1, : m + 1]
    live = (l <= j) & (l <= i) & (i - l <= m - j)
    exps = np.where(live, np.stack(np.broadcast_arrays(l, j - l, i - l, m - j - i + l)), 0)
    table = binomials(m)
    coef = np.where(live, table[j, l] * table[m - j, np.clip(i - l, 0, m)], 0.0)
    steps = np.array([[1, a], [1, b], [1, c], [1, d]], dtype=np.complex128)
    pows = np.cumprod(np.repeat(steps, [1, m], axis=1), axis=1)
    return (coef * pows[np.arange(4).reshape(4, 1, 1, 1), exps].prod(axis=0)).sum(axis=-1)


@pytest.mark.parametrize("m", [0, 1, 2, 10, 14, 22])
def test_binomial_matrix_sums_only_its_nonzero_terms_bitwise(m):
    # against the dense cube, as uint64 bit patterns, so that the signs of
    # zeros count: the basis change of coeff_decompose on and off the axis,
    # the basis of the coefficients, integer matrices with zero entries
    rng = np.random.default_rng(m)
    args = [(0, -1, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (3, -2, 0, 5)]
    for x in (0.0, -0.0, 0.3, -1.7):
        z = complex(x, 1.37)
        args += [(-z.conjugate(), z, -1, 1), (1, -z, 1, -z.conjugate())]
    args += [tuple(rng.integers(-9, 10, 4).tolist()) for _ in range(8)]
    args += [tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(8)]
    for a, b, c, d in args:
        got = binomial_matrix(a, b, c, d, m)
        assert got.view(np.uint64).tolist() == _dense_l_sum(a, b, c, d, m).view(np.uint64).tolist()


@pytest.mark.parametrize("m", [0, 2, 10, 14])
def test_shift_matrix_is_the_binomial_matrix_of_the_shift(m):
    # (X - z)^j = sum_i C(j, i) (-z)^(j-i) X^i, the same bits as binomial_matrix
    for z in (0.3 + 1.5j, 1j, -2.7 + 0.4j, 11.5 + 0.05j):
        assert np.array_equal(shift_matrix(z, m), binomial_matrix(1, -z, 0, 1, m))


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
    P = rng.uniform(-1, 1, k - 1) + 1j * rng.uniform(-1, 1, k - 1)
    mid = act_poly(P, g, k)
    lhs = act_poly(mid, h, k)
    rhs = act_poly(P, g * h, k)
    hmax = max(abs(e) for e in h.entries)
    scale = max(1.0, np.abs(rhs).max(), np.abs(mid).max() * float(hmax) ** (k - 2))
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_act_poly_pointwise_oracle():
    # P = (X - z)^(k-2) acted by g, checked at k-1 complex sample points
    # off the real axis (the formal variable may be evaluated anywhere,
    # and this keeps clear of the pole of gX)
    k = 12
    z = 0.7 + 1.3j
    coeffs = [math.comb(k - 2, t) * (-z) ** (k - 2 - t) for t in range(k - 1)]
    P = np.array(coeffs, dtype=np.complex128)
    rng = random.Random(6)
    samples = [1.1 * np.exp(2j * np.pi * t / (k - 1)) + 0.37j for t in range(k - 1)]
    for _ in range(5):
        g = random_word(rng)
        acted = act_poly(P, g, k)
        coeff_scale = np.abs(acted).max()
        for x in samples:
            den = g.c * x + g.d
            gx = (g.a * x + g.b) / den
            direct = polyval(gx, P) * den ** (k - 2)
            scale = max(1.0, abs(direct), coeff_scale * abs(x) ** (k - 2))
            assert abs(polyval(x, acted) - direct) / scale <= 1e-10


def test_act_poly_degree_overflow():
    with pytest.raises(ValueError):
        act_poly(np.array([1, 2, 3], dtype=np.complex128), S, 2)


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
    base = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(k - 1)])
    F = lambda z: base * (1.0 / complex(z))
    assert np.abs(act_tensor(F, IDENTITY, w, k)(2j) - F(2j)).max() < 1e-15
    for _ in range(3):
        g, d = random_word(rng, 4), random_word(rng, 4)
        lhs = act_tensor(act_tensor(F, g, w, k), d, w, k)(2j)
        rhs = act_tensor(F, g * d, w, k)(2j)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() / scale <= 1e-10


_SLASH_CASES = [(S, 2j), (T * S, 0.3 + 1.1j), (GroupElement(2, 1, 5, 3), 0.5 + 2j)]


def test_act_tensor_with_no_weights_is_the_automorphy_factor_times_F():
    F = lambda z: complex(z) ** 3 - 2j / complex(z)
    for w in (BiWeight(7, 7), BiWeight(11, 9), BiWeight(0, 0)):
        for g, z in _SLASH_CASES:
            got = act_tensor(F, g, w)(z)
            assert np.asarray(got).tobytes() == np.asarray(automorphy(g, z, w) * F(mobius(g, z))).tobytes()


def test_act_minus_one_is_the_slash_less_F():
    base = np.arange(1, 12) * (1 - 0.5j)
    F = lambda z: base / complex(z)
    for g, z in _SLASH_CASES:
        image = group.act_minus_one(F, g, BiWeight(10, 10), 12)(z)
        assert image.tobytes() == (act_tensor(F, g, BiWeight(10, 10), 12)(z) - F(z)).tobytes()


def test_act_tensor_takes_at_most_two_weights_of_the_right_lengths():
    F = lambda z: np.ones((11, 11, 11), dtype=np.complex128)
    with pytest.raises(ValueError, match="at most two"):
        act_tensor(F, S, BiWeight(10, 10), 12, 12, 12)
    with pytest.raises(ValueError, match="at most two"):
        group.act_minus_one(F, S, BiWeight(10, 10), 12, 12, 12)
    for length in (10, 12):
        with pytest.raises(ValueError, match="need 11 polynomial coefficients"):
            act_tensor(lambda z: np.ones(length), S, BiWeight(10, 10), 12)(2j)
    with pytest.raises(ValueError, match="need 11 polynomial coefficients"):
        act_tensor(F, S, BiWeight(10, 10), 12)(2j)  # an array of three axes
    with pytest.raises(ValueError):  # the second axis holds 10 coefficients, not 15
        act_tensor(lambda z: np.ones((11, 10)), S, BiWeight(10, 10), 12, 16)(2j)


# each group builder, its integer call, and the same call with a float: a
# float hashes as its integer, so the rule comes before the cache, cold
# (arguments no other test uses) and once the integer call has cached its key
_INTEGER_RULE = {
    "cosets-C": (lambda: cosets(5, 53), lambda: cosets(5.0, 53)),
    "cosets-D": (lambda: cosets(6, 61), lambda: cosets(6, 61.0)),
    "reduced_classes": (lambda: reduced_classes(17), lambda: reduced_classes(17.0)),
    "class_tops": (lambda: group.class_tops(19), lambda: group.class_tops(19.0)),
    "enumerate_cosets": (lambda: enumerate_cosets(4, 40), lambda: enumerate_cosets(4.0, 40)),
}


@pytest.mark.parametrize("case", list(_INTEGER_RULE))
def test_the_group_builders_take_integers_before_their_caches(case):
    integer, floating = _INTEGER_RULE[case]
    for _ in ("cold", "after the integer call"):
        with pytest.raises(ValueError, match="integers"):
            floating()
        integer()


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
    # d >= 0, then the block "shells only", (1, 0), its own mirror
    order = list(zip(table.cs.tolist(), table.ds.tolist()))
    assert table.cuts == (0, 0, len(order) - 1)
    assert order[:3] == [(1, 1), (1, 2), (1, 3)]
    assert order[-1] == (1, 0)
    # each row followed by its mirror (c, -d): ascending |d|, positive first
    full = [row for c, d in order for row in ([(c, d), (c, -d)] if d else [(c, d)])]
    assert full[:5] == [(1, 1), (1, -1), (1, 2), (1, -2), (1, 3)]
    elements = enumerate_cosets(3, 4)[1:]
    assert [(g.c, g.d) for g in elements] == full
    for g in elements:
        assert g.a * g.d - g.b * g.c == 1
        assert g.c > 0
    # a mirror is -eps g eps, eps = diag(-1, 1): top row (-a, b)
    for g, h in zip(elements, elements[1:]):
        if h.d < 0:
            assert h.entries == (-g.a, g.b, g.c, -g.d)


def _coset_rows_oracle(C, D):
    """The coset rows with d >= 0 in ascending c, ascending d, one
    `math.gcd` per (c, d)."""
    return [(c, d) for c in range(1, C + 1) for d in range(D + 1) if math.gcd(c, d) == 1]


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
    assert [row for row in rows if row[1] == 0] == [(1, 0)]
    assert (table.n >= 0).all()
    assert np.array_equal(c0[table.cls], table.cs)
    assert np.array_equal(d0[table.cls] + table.n * table.cs, table.ds)
    a, b = table.tops
    assert list(zip(a.tolist(), b.tolist())) == [complete_row(c, d).entries[:2] for c, d in rows]


@pytest.mark.parametrize(
    "C, D", [(1, 10), (3, 5), (8, 16), (8, 80), (12, 3), (20, 30), (40, 400), (80, 800)]
)
def test_coset_table_lays_out_the_tail_blocks(C, D):
    # four contiguous blocks, each in ascending c, ascending d >= 0: neither
    # outer c-shell nor outer |d| band, band only, band and shell, shell
    # only; D <= 2C is a band that covers every d but 0.  The rows and their
    # mirrors (c, -d), d > 0, are every coset
    table = cosets(C, D)
    rows = list(zip(table.cs.tolist(), table.ds.tolist()))
    oracle = _coset_rows_oracle(C, D)
    assert len(rows) == len(set(rows)) == len(oracle)
    assert 2 * len(rows) - 1 == brute_coprime_count(C, D)
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


@pytest.mark.parametrize("C", [1, 2, 3, 40, 80])
def test_class_tops_are_the_completed_rows(C):
    # the one extended Euclid over every class against a `complete_row`
    # call per class
    c0, d0, _ = reduced_classes(C)
    a0, b0 = group.class_tops(C)
    rows = [complete_row(c, d).entries[:2] for c, d in zip(c0.tolist(), d0.tolist())]
    assert list(zip(a0.tolist(), b0.tolist())) == rows
    assert a0.dtype == b0.dtype == np.int64
    assert not (a0.flags.writeable or b0.flags.writeable)


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
    word = word_decompose(g)
    m = math.prod((S if kind == "S" else T_pow(n) for kind, n in word), start=IDENTITY)
    assert m.entries == g.entries or m.entries == tuple(-x for x in g.entries)


def test_taylor_shift_complex_roundtrip():
    P = np.array([1.0, -2.0, 3.0, 0.25], dtype=np.complex128)
    a = 0.3 - 0.7j
    Q = taylor_shift(taylor_shift(P.copy(), a), -a)
    assert np.abs(Q - P).max() < 1e-13


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


def _cached_arrays():
    """Every array that a cached builder of the package returns, by the
    builder's name, at small sizes."""
    from miint import iterated, periods, qforms, raseries, vvdim

    f, t, w = qforms.delta_q(40), raseries.TruncationParams(4, 40), BiWeight(10, 10)
    table, reduced = cosets(4, 40), periods.reduced_periods(f, 4)
    key = raseries._point_key(0.3 + 1.2j)
    return {
        "binomials": [binomials(6)],
        "_binomial_terms": list(group._binomial_terms(6)),
        "_shift_terms": list(group._shift_terms(6)),
        "reduced_classes": list(reduced_classes(4)),
        "class_tops": list(group.class_tops(4)),
        "cosets": [table.cs, table.ds, table.cls, table.n],
        "tops": list(table.tops),
        "coeff_array": [qforms.coeff_array(f)],
        "_ray_primitives": [periods._ray_primitives(8, 4)],
        "_eichler_kernel": [periods._eichler_kernel(f)],
        "_anchor": [periods._anchor(f)],
        "_reduced_periods": [reduced.periods],
        "values": [reduced.values],
        "_gauss_legendre": list(periods._gauss_legendre(24)),
        "_lambda_scale": [periods._lambda_scale(12)],
        "_period_tables": list(raseries._period_tables(f, 4, 40)),
        "_mirror_signs": [raseries._mirror_signs(11)],
        "_closed_form_alpha": [raseries._closed_form_alpha(12)],
        "_point_value": [
            raseries._point_value(raseries._psi_sum, t, key, f, w, False)[0],
            raseries._point_value(raseries._phi_sum, t, key, f, w, True)[0],
            raseries._point_value(raseries._second_order_sum, t, key, 1, f, 16, False)[0],
            raseries._point_value(raseries._closed_form_plus, t, key, f, w),
            raseries.closed_form_phi(f, w, "-", 0.3 + 1.2j, t),
        ],
        "_depth3_kernel": [iterated._depth3_kernel(f, f)],
        "st": [vvdim.rho_matrices(12).st],
    }


#: the cached builders that return no array of their own
_NO_ARRAYS = {"_eisenstein_q", "_delta_q", "_growth", "rho_matrices"}


def test_every_cached_array_is_read_only():
    # a cached array is shared by every caller, so writing to it raises
    import re
    from pathlib import Path

    source = "\n".join(p.read_text() for p in Path(group.__file__).parent.glob("*.py"))
    cached = re.findall(r"@(?:lru_cache\(.*\)|cached_property)\n\s*def (\w+)", source)
    cached += re.findall(r"^(\w+) = lru_cache\(", source, re.M)
    arrays = _cached_arrays()
    assert set(cached) == set(arrays) | _NO_ARRAYS
    for name, arrs in arrays.items():
        for arr in arrs:
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]
    with pytest.raises(ValueError):
        cosets(40, 400).n[5] += 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: GroupElement(1.5, 0, 0, 2 / 3),  # the determinant rounds to 1.0
        lambda: GroupElement(1.0, 0, 0, 1),
        lambda: T_pow(1.5),
        lambda: T_pow(2.0),
    ],
    ids=["fractions", "float-one", "T_pow-fraction", "T_pow-float"],
)
def test_a_group_element_has_integer_entries(make):
    with pytest.raises(ValueError, match="integers"):
        make()


@pytest.mark.parametrize(
    "value, ok",
    [(3, True), (True, True), (np.int64(3), True), (3.0, False), (np.float64(3.0), False)],
    ids=["int", "bool", "int64", "float", "float64"],
)
def test_check_integers_takes_every_integral_kind(value, ok):
    # a plain int takes a fast path before the numbers.Integral check
    if ok:
        assert group.check_integers(a=1, v=value) is None
    else:
        with pytest.raises(ValueError, match="v must be integers"):
            group.check_integers(a=1, v=value)


def test_a_group_element_accepts_numpy_integers():
    g = GroupElement(*np.array([2, 1, 1, 1]))
    assert g * g.inv() == IDENTITY
