import pytest

from miint import vvdim


def test_rho_matrices_weight_four():
    rep = vvdim.rho_matrices(4)
    assert rep.matS == ((0, 0, 1), (0, -1, 0), (1, 0, 0))
    assert rep.matT == ((1, -1, 1), (0, 1, -2), (0, 0, 1))


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
        assert tr == vvdim.trace_ST_sum_formula(k1)


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
