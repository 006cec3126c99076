import math

import numpy as np
import pytest

from miint import vvdim


def test_rho_matrices_weight_four():
    rep = vvdim.rho_matrices(4)
    assert rep.matS == ((0, 0, 1), (0, -1, 0), (1, 0, 0))
    assert rep.matT == ((1, -1, 1), (0, 1, -2), (0, 0, 1))


def test_rho_matrices_match_the_binomial_definition():
    # the Pascal-row recurrence gives the tuples of the closed forms
    for k1 in range(4, 41, 2):
        rep, n = vvdim.rho_matrices(k1), k1 - 1
        assert rep.matS == tuple(
            tuple((-1) ** i if j == k1 - 2 - i else 0 for j in range(n)) for i in range(n)
        )
        assert rep.matT == tuple(
            tuple((-1) ** (i + j) * math.comb(j, i) for j in range(n)) for i in range(n)
        )
        assert all(type(e) is int for row in rep.matS + rep.matT for e in row)


def test_rho_matrices_parity_guard():
    with pytest.raises(ValueError):
        vvdim.rho_matrices(5)
    with pytest.raises(ValueError):
        vvdim.rho_matrices(2)


def test_representation_relations_exact():
    for k1 in range(4, 41, 2):
        assert vvdim.check_relations(vvdim.rho_matrices(k1))


def test_trace_identities_exact():
    for k1 in range(4, 41, 2):
        tr = vvdim.trace_ST(k1)
        assert tr == vvdim.legendre3(k1 - 1)
        assert tr == vvdim.trace_ST_squared(k1)
        assert tr == vvdim.legendre_seq(k1 - 2)[-1]  # sum_i (-1)^i binom(i, k1-2-i)


def _object_products(rep):
    """Relations and both traces by plain object-dtype matrix products."""
    s, t = np.array(rep.matS, dtype=object), np.array(rep.matT, dtype=object)
    eye = np.identity(rep.k1 - 1, dtype=object)
    st = s @ t
    relations = np.array_equal(s @ s, eye) and np.array_equal(st @ st @ st, eye)
    return relations, int(np.trace(st)), int(np.trace(st @ st))


def _routes(monkeypatch, rep):
    """check_relations and both traces of `rep`, served as rho_matrices(k1)."""
    monkeypatch.setattr(vvdim, "rho_matrices", lambda k1: rep)
    k1 = rep.k1
    return vvdim.check_relations(rep), vvdim.trace_ST(k1), vvdim.trace_ST_squared(k1)


def _with_entry(mat, i, j, value):
    rows = [list(r) for r in mat]
    rows[i][j] = value
    return tuple(map(tuple, rows))


def test_gathers_equal_the_object_products():
    for k1 in range(4, 41, 2):
        rep = vvdim.rho_matrices(k1)
        assert rep is vvdim.rho_matrices(k1)
        got = (vvdim.check_relations(rep), vvdim.trace_ST(k1), vvdim.trace_ST_squared(k1))
        tr = vvdim.legendre3(k1 - 1)
        assert got == _object_products(rep) == (True, tr, tr)


@pytest.mark.parametrize("k1", [4, 10, 16])
def test_a_seeded_defect_in_rho_is_caught(monkeypatch, k1):
    # one flipped sign in each row of rho(S), one changed entry in each row
    # of rho(T): both routes agree, and the relations or the traces fail
    rep, n = vvdim.rho_matrices(k1), k1 - 1
    S, T = rep.matS, rep.matT
    bad = [vvdim.RhoRep(k1, _with_entry(S, i, n - 1 - i, -S[i][n - 1 - i]), T) for i in range(n)]
    bad += [vvdim.RhoRep(k1, S, _with_entry(T, i, 7 * i % n, T[i][7 * i % n] + 1)) for i in range(n)]
    for defect in bad:
        relations, tr, tr2 = got = _routes(monkeypatch, defect)
        assert got == _object_products(defect)
        assert not relations or tr != vvdim.legendre3(k1 - 1) or tr != tr2


def test_the_residue_moduli_are_distinct_primes_below_2_28():
    primes = vvdim._PRIMES
    assert len(set(primes)) == len(primes) and max(primes) < 2**28
    for p in primes:
        assert all(p % q for q in range(2, math.isqrt(p) + 1))


@pytest.mark.parametrize("k1", [10, 40])
def test_a_shift_by_the_moduli_is_caught(monkeypatch, k1):
    # a rho(T) entry shifted by one modulus, by the product of the moduli the
    # clean relations read, and by the product of them all agrees with the
    # clean one modulo those, yet its larger entries call for more moduli (or
    # for the cube in Python ints) and the relations fail
    rep, n = vvdim.rho_matrices(k1), k1 - 1
    st = vvdim._times_S(rep.matS, np.array(rep.matT, dtype=object))
    bound = 2 * (n * n * max(map(abs, st.flat)) ** 3 + 1)
    used = next(j for j in range(1, 25) if math.prod(vvdim._PRIMES[:j]) > bound)
    assert used < len(vvdim._PRIMES)
    for shift in (vvdim._PRIMES[0], math.prod(vvdim._PRIMES[:used]), math.prod(vvdim._PRIMES)):
        for i, j in ((0, 0), (n // 2, n - 1)):
            bad = vvdim.RhoRep(k1, rep.matS, _with_entry(rep.matT, i, j, rep.matT[i][j] + shift))
            assert not vvdim.check_relations(bad)
            assert not _object_products(bad)[0]


def test_the_cube_reads_as_many_primes_as_its_bound_needs():
    # U (ST) U^-1, U = I + c E_{0,n-1}, keeps (ST)^3 = I with entries up to
    # about c^2 M: from one prime up to all 24, and past them the exact cube
    st = vvdim.rho_matrices(10).st
    n = len(st)
    for c in (1, 2**20, 2**60, 2**100, 2**108, 2**200):
        u, u_inv = (np.identity(n, dtype=int).astype(object) for _ in range(2))
        u[0, n - 1], u_inv[0, n - 1] = c, -c
        a = u @ st @ u_inv
        assert vvdim._cube_is_identity(a)
        a[1, 1] += 1
        assert not vvdim._cube_is_identity(a)


def test_relations_hold_past_the_int64_size():
    # n = 65 > 64: the cube is formed in Python ints
    assert vvdim.check_relations(vvdim.rho_matrices(66))


def test_a_malformed_rho_S_fails_the_relations(monkeypatch):
    # rho(S) must hold one entry +-1 per row for its products to be gathers
    rep = vvdim.rho_matrices(12)
    two_in_row_0 = _with_entry(rep.matS, 0, 0, 1)
    for S in [
        _with_entry(rep.matS, 0, 10, 2),
        two_in_row_0,
        _with_entry(rep.matS, 5, 5, 0),
        _with_entry(two_in_row_0, 5, 5, 0),  # n nonzero entries, none in row 5
    ]:
        bad = vvdim.RhoRep(12, S, rep.matT)
        assert not vvdim.check_relations(bad)
        monkeypatch.setattr(vvdim, "rho_matrices", lambda k1: bad)
        with pytest.raises(ValueError, match="one entry"):
            vvdim.trace_ST_squared(12)


def test_trace_examples():
    assert vvdim.trace_ST(12) == -1
    assert vvdim.trace_ST(4) == 0


def test_legendre_sequence_three_routes():
    direct = vvdim.legendre_seq(100)
    rec = vvdim.legendre_seq_recurrence(100)
    closed = vvdim.legendre_seq_closed(100)
    assert direct == rec == closed
    assert direct[0] == 1 and direct[1] == -1
    for n in range(2, 101):
        assert direct[n] + direct[n - 1] + direct[n - 2] == 0


def test_xi_identity():
    res = vvdim.xi_identity_residuals(40)
    for k, (lhs, rhs) in res.items():
        assert abs(lhs - rhs) <= 1e-12
        assert abs(lhs.imag) <= 1e-12
    assert res[4][1] == 0
    assert res[6][1] == 1


def test_classical_dimension_oracle():
    assert vvdim.dim_modular(0) == 1
    assert vvdim.dim_modular(2) == 0
    assert vvdim.dim_modular(12) == 2
    assert vvdim.dim_modular(14) == 1
    assert vvdim.dim_cusp(12) == 1
    assert vvdim.dim_cusp(14) == 0
    assert vvdim.dim_cusp(26) == 1
    assert vvdim.dim_cusp(13) == 0


def test_dimension_formula_values():
    assert vvdim.dim_Mk_rho(16, 12) == 19
    assert vvdim.dim_Mk_rho(14, 12) == 18
    assert vvdim.dim_M2c(16, 12) == 23
    assert vvdim.dim_M2c(14, 12) == 20
    # vanishing cusp factor at k1 = 14
    assert vvdim.dim_M2c(16, 14) == vvdim.dim_Mk_rho(16, 14)


def test_dimension_formula_integrality_scan():
    for k in range(6, 41, 2):
        for k1 in range(4, k, 2):
            val = vvdim.dim_Mk_rho(k, k1)
            assert isinstance(val, int) and val >= 0


def test_dimension_monotone_in_k():
    # soft structural check: nondecreasing in k at fixed k1
    for k1 in (4, 8, 12):
        vals = [vvdim.dim_Mk_rho(k, k1) for k in range(k1 + 2, 41, 2)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_dimension_preconditions():
    with pytest.raises(ValueError):
        vvdim.dim_Mk_rho(12, 12)
    with pytest.raises(ValueError):
        vvdim.dim_Mk_rho(16, 2)
    with pytest.raises(ValueError):
        vvdim.dim_Mk_rho(15, 12)


def test_the_integrality_line_names_the_range_it_scans(monkeypatch):
    from miint import checks

    pairs = []
    dim = vvdim.dim_Mk_rho
    monkeypatch.setattr(vvdim, "dim_Mk_rho", lambda k, k1: pairs.append((k, k1)) or dim(k, k1))
    (line,) = [r for r in checks.suite_vvdim_dims() if "integral" in r.name]
    # the literal lines read (16, 12) and (14, 12); the ends come from the scan
    assert min(k1 for _, k1 in pairs) == 4 and max(k for k, _ in pairs) == 40
    assert line.name == "dim_Mk_rho integral over 4 <= k1 < k <= 40"
