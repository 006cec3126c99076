import argparse
import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miint import checks, cli
from miint import periods as per
from miint import qforms as qf
from miint import raseries as ra
from miint.group import IDENTITY, S, T, T_pow


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_subcommand(capsys):
    code, out, _ = run_cli(capsys, "dim", "--k", "16", "--k1", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_Mk_rho"] == 19
    assert payload["dim_M2c"] == 23
    assert payload["config"]["C"] == 40


def test_dim_table_csv(capsys):
    code, out, _ = run_cli(capsys, "dim", "--table", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,k1,dim_Mk_rho,dim_M2c"
    assert len(lines) > 3


def test_period_matches_library(capsys):
    code, out, _ = run_cli(capsys, "period", "--form", "delta", "--gamma", "S")
    assert code == 0
    payload = json.loads(out)
    coeffs = [complex(re, im) for re, im in payload["coeffs"]]
    direct = per.period_poly(qf.delta_q(120), S)
    assert np.allclose(coeffs, direct, rtol=0, atol=1e-15)
    assert len(coeffs) == 11


def test_gamma_parsing(capsys):
    code, out, _ = run_cli(capsys, "period", "--gamma", "S*T*S")
    assert code == 0
    payload = json.loads(out)
    st = S * T * S
    assert payload["gamma"] == list(st.entries)
    code, out, _ = run_cli(capsys, "period", "--gamma", "0,-1,1,2")
    assert code == 0


@pytest.mark.parametrize("gamma", ["-I", "-1,0,0,-1", "-2,1,-5,2"])
def test_a_gamma_that_starts_with_a_minus_parses_in_both_spellings(capsys, gamma):
    # argparse would take the value of '--gamma -I' for a flag
    code, out, err = run_cli(capsys, "period", "--gamma", gamma)
    assert (code, err) == (0, "")
    assert run_cli(capsys, "period", f"--gamma={gamma}") == (code, out, err)
    assert run_cli(capsys, "period", "--gam", gamma) == (code, out, err)
    assert json.loads(out)["gamma"] == list(cli.parse_gamma(gamma).entries)


def test_period_slashes_once(capsys, monkeypatch):
    # the error estimate reads the polynomial the command computed
    calls = []
    slash = per.slash_rows
    monkeypatch.setattr(per, "slash_rows", lambda *args: calls.append(args) or slash(*args))
    code, _, _ = run_cli(capsys, "period", "--form", "s16", "--gamma", "S*T^-2*S")
    assert code == 0
    assert len(calls) == 1


# nonempty words over S and T-powers, in word_decompose's letter format
letters = st.lists(
    st.one_of(st.just(("S", 1)), st.tuples(st.just("T"), st.integers(-50, 50))),
    min_size=1,
    max_size=12,
)


@settings(derandomize=True, database=None, deadline=None)
@given(letters)
def test_parse_gamma_round_trip(word):
    # the word written as S*T^n*..., and its matrix written as a,b,c,d
    g = math.prod((S if kind == "S" else T_pow(n) for kind, n in word), start=IDENTITY)
    assert cli.parse_gamma("*".join("S" if kind == "S" else f"T^{n}" for kind, n in word)) == g
    assert cli.parse_gamma(",".join(str(e) for e in g.entries)) == g


def test_lvalue_has_no_method(capsys):
    # the integral is the one route at every s: no route to echo or choose
    for s in ("7", "3"):
        code, out, _ = run_cli(capsys, "lvalue", "--s", s)
        assert code == 0
        assert "method" not in json.loads(out)
    for method in ("extract", "series"):
        code, out, err = run_cli(capsys, "lvalue", "--s", "3", "--method", method)
        assert (code, out) == (1, "")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("form", ["delta", "s16"])
def test_lvalue_auto_reports_the_route_twisted_L_takes(capsys, form):
    # the integral at every s; below k its error estimate is the distance to
    # the extraction reference
    f = cli.resolve_form(form, 120)
    for s in range(1, 14):
        payload = json.loads(run_cli(capsys, "lvalue", "--form", form, "--s", str(s))[1])
        val = per.twisted_L(f, s, 0, 1)
        assert payload["value"] == [val.real, val.imag]
        if s <= f.k - 1:
            extract = per._lambdas_by_extraction(f, 0, 1)[s - 1]
            assert payload["error_estimate"] == abs(val - extract)
        else:
            assert payload["error_estimate"] is None


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the case
def test_lvalue_precision_exit(capsys):
    # Lambda_Delta(s, 0) ~ Gamma(s) (2 pi)^-s leaves float64 at s = 261, and
    # the pass stops there, so s = 100000 fails as fast
    for s in ("262", "100000"):
        code, out, err = run_cli(capsys, "lvalue", "--s", s)
        assert code == 2
        assert out == ""
        assert "precision" in err and "Traceback" not in err


def _dirichlet_oracle(f, s):
    """Gamma(s) (2 pi)^-s sum_n a(n) n^-s to 30 digits over the form's own
    coefficients: Lambda_f(s, 0), every term exact but the last rounding."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        total = mpmath.fsum(int(a) * mpmath.mpf(n) ** -s for n, a in enumerate(f.coeffs) if n and a)
        return float(mpmath.gamma(s) * (2 * mpmath.pi) ** -s * total)


@pytest.mark.parametrize(
    "form, s", [("delta", 169), ("delta", 200), ("delta", 260), ("s24.1", 300)]
)
def test_lvalue_far_past_extraction_matches_the_dirichlet_sum(capsys, form, s):
    # the tail's recurrence T_(s+1) = (s T_s + e^-u) / u reaches every s whose
    # value float64 holds; s24.1 has a(1) = 0, so its value is finite past
    # where the m = 1 tail term alone leaves float64
    payload = _payload(capsys, "lvalue", "--form", form, "--s", str(s))
    oracle = _dirichlet_oracle(cli.resolve_form(form, 120), s)
    assert payload["value"][1] == 0.0
    assert abs(payload["value"][0] - oracle) <= 1e-13 * abs(oracle)


def test_lvalue_at_a_large_s_matches_the_gamma_oracle(capsys):
    # Lambda_Delta(s, 0) = Gamma(s) (2 pi)^-s (1 - 24 2^-s + ...), and
    # 252 3^-s is below the last bit at s = 120
    payload = _payload(capsys, "lvalue", "--s", "120")
    oracle = math.factorial(119) / (2 * math.pi) ** 120 * (1 - 24 * 2.0**-120)
    assert payload["error_estimate"] is None
    assert abs(complex(*payload["value"]) - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize(
    "form, s, p, q",
    [("delta", 12, 0, 1), ("delta", 20, 0, 1), ("s16", 20, 1, 3)],
    ids=["lvalue --s 12", "lvalue --s 20", "lvalue --form s16 --s 20 --p 1 --q 3"],
)
def test_lvalue_past_extraction_has_no_error_estimate(capsys, form, s, p, q):
    # extraction covers s in 1..k-1, so the series value has no second route
    argv = ["lvalue", "--form", form, "--s", str(s), "--p", str(p), "--q", str(q)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["error_estimate"] is None
    val = per.twisted_L(cli.resolve_form(form, 120), s, p, q)
    assert payload["value"] == [val.real, val.imag]


def test_usage_error_exit(capsys):
    code, _, err = run_cli(capsys, "period", "--gamma", "Q")
    assert code == 1
    assert cli.main(["nonsense-command"]) == 1


def test_eval_and_eisenstein(capsys):
    code, out, _ = run_cli(capsys, "eval", "--form", "e4", "--z", "0", "2")
    assert code == 0
    val = json.loads(out)["value"]
    direct = qf.eval_form(qf.eisenstein_q(4, 120), 2j)
    assert abs(complex(*val) - direct) <= 1e-12
    code, out, _ = run_cli(capsys, "eisenstein", "--r", "8", "--s", "8", "--z", "0", "2")
    payload = json.loads(out)
    assert payload["weights"] == [8, 8]
    assert "tail" in payload
    assert payload["trunc"] == {"C": 40, "D": 400}  # E_{r,s} does not read N


def test_forms_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "forms", "--kind", "delta", "--N", "8", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[1] == "delta,0,0"
    assert rows[2] == "delta,1,1"
    code, out, _ = run_cli(capsys, "forms", "--kind", "cusp-basis", "--weight", "16", "--N", "12")
    payload = json.loads(out)
    assert payload["forms"]["s16.0"]["weight"] == 16


@pytest.mark.parametrize("weight", ["10", "14"])
def test_an_empty_cusp_basis_prints_the_csv_header_alone(capsys, weight):
    # S_10 = S_14 = 0: no rows, where the JSON form prints "forms": {}
    code, out, _ = run_cli(capsys, "forms", "--kind", "cusp-basis", "--weight", weight, "--format", "csv")
    assert (code, out) == (0, "form,n,a_n\r\n")


def test_csv_tables_keep_their_bytes(capsys):
    # the header row is each command's own field names, in the order of its
    # rows' keys: the same bytes as a header read off the first row
    assert run_cli(capsys, "dim", "--format", "csv") == (0, "k,k1,dim_Mk_rho,dim_M2c\r\n16,12,19,23\r\n", "")
    code, out, _ = run_cli(capsys, "forms", "--kind", "cusp-basis", "--weight", "24", "--format", "csv")
    assert code == 0 and out.count("\r\n") == 243
    digest = "e80b6d72211ac8459b4e919046db5593eb0c427384032b005eef72a1a03b7187"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_fourier_evaluates_each_sample_point_once(capsys, monkeypatch):
    # the l = 1 and l = 2 modes read the same M + 1 = 97 points at each of
    # y = 1 and y = 1.5, for phi and for psi; the point cache sums each
    # series once at the 49 of them with x >= 0 (the other 48 read their
    # mirrors), so a second mode and a revisit sum no coset
    visits = {"phi": [], "psi": []}
    sums = {"phi": [], "psi": []}
    for name, private, key in (("phi", "_phi_sum", "phi"), ("psi_series", "_psi_sum", "psi")):
        fn, kernel = getattr(ra, name), getattr(ra, private)
        monkeypatch.setattr(ra, name, lambda *a, fn=fn, k=key: visits[k].append(a[3]) or fn(*a))
        monkeypatch.setattr(ra, private, lambda *a, fn=kernel, k=key: sums[k].append(a[1]) or fn(*a))
    code, _, _ = run_cli(capsys, "check", "fourier")
    assert code == 0
    for key in visits:
        assert len(visits[key]) == 388 and len(set(visits[key])) == 194
        assert len(sums[key]) == 98 == len(set(sums[key]))
        assert all(z.real >= 0 for z in sums[key])


def test_check_vvdim_exit_zero(capsys):
    code, out, err = run_cli(capsys, "check", "vvdim")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "[PASS]" in err


def test_the_check_choices_are_the_suites():
    # the parser lists the suites without importing them
    assert cli.SUITE_NAMES == tuple(sorted(checks.SUITES))


def test_raising_suite_is_a_check_failure(capsys, monkeypatch):
    def seeded():
        raise ValueError("seeded defect")

    monkeypatch.setitem(checks.SUITES, "vvdim", seeded)
    code, out, err = run_cli(capsys, "check", "vvdim")
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    assert "ValueError: seeded defect" in payload["results"][0]["name"]
    # the traceback follows the FAIL line on stderr, and ends at the defect
    line, trace = err.split("\n", 1)
    assert line.startswith("[FAIL]")
    assert trace.startswith("Traceback") and trace.endswith("ValueError: seeded defect\n")


def test_a_raising_suite_prints_valid_json(capsys, monkeypatch):
    # RFC 8259 has no Infinity: the raised suite's infinite residual is null
    def seeded():
        raise ValueError("seeded defect")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setitem(checks.SUITES, "vvdim", seeded)
    code, out, err = run_cli(capsys, "check", "vvdim")
    assert code == 3
    (result,) = json.loads(out, parse_constant=reject)["results"]
    assert result["residual"] is None and result["passed"] is False
    assert "residual inf" in err


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "eisenstein", "--r", "10", "--s", "10", "--z", "0.5", "2")
    ra._point_value.cache_clear()  # the second run sums the series again
    _, out2, _ = run_cli(capsys, "eisenstein", "--r", "10", "--s", "10", "--z", "0.5", "2")
    assert out1 == out2


def test_config_file_and_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("C=20\nD=200\nR=8\nS=8\n# comment\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "eisenstein", "--z", "0", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["C"] == 20
    assert payload["weights"] == [8, 8]
    # CLI flags win over the file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "eisenstein", "--z", "0", "2", "--C", "25", "--D", "250")
    assert json.loads(out)["config"]["C"] == 25
    # env var supplies the default path
    monkeypatch.setenv("MIINT_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "eisenstein", "--z", "0", "2")
    assert json.loads(out)["config"]["D"] == 200


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("WIDGETS=3\n")
    from miint.config import RunConfig

    with pytest.raises(ValueError):
        RunConfig().apply_file(str(cfg))


def test_iterated_subcommand(capsys):
    code, out, _ = run_cli(capsys, "iterated", "--depth", "2", "--forms", "delta", "--z", "0", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == [2, 12]
    assert payload["parabolic_residual"] <= 1e-9
    assert len(payload["coeffs"]) == 11


@pytest.mark.parametrize(
    "args",
    [
        ("--depth", "1"),
        ("--depth", "2", "--forms", "s16", "--z", "0.3", "1.1"),
        ("--depth", "3", "--forms", "delta,s16", "--z", "0.3", "1.1"),
    ],
    ids=["depth1", "depth2", "depth3"],
)
def test_iterated_prints_the_coefficient_array_as_re_im_pairs(capsys, args):
    from miint import iterated as it

    code, out, _ = run_cli(capsys, "iterated", *args)
    assert code == 0
    payload = json.loads(out)
    cfg = payload["config"]
    names = args[3].split(",") if "--forms" in args else []
    forms = tuple(cli.resolve_form(n, cfg["N"]) for n in names)
    v = it.iterated_F(it.IteratedIntegrand(forms), complex(cfg["z_re"], cfg["z_im"]))
    pairs = np.array(payload["coeffs"])
    assert pairs.shape == np.atleast_1d(v).shape + (2,)
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], np.atleast_1d(v))
    if "--forms" not in args:
        assert '"coeffs": [[1.0, 0.0]]' in out


def test_phi_subcommand_single_coefficient(capsys):
    code, out, _ = run_cli(capsys, "phi", "--j", "0", "--z", "0", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["j"] == 0
    assert "tail" in payload and "coefficient" in payload


def test_fourier_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--form", "delta", "--l", "1", "--y", "1.0")
    assert code == 0
    payload = json.loads(out)
    import math

    assert abs(complex(*payload["value"]) - math.exp(-2 * math.pi)) <= 1e-10


def test_fourier_samples_each_point_once(capsys, monkeypatch):
    # the M/2 error-estimate pass reads the even nodes of the M pass again:
    # M + 1 = 129 distinct points, and M/2 + 1 = 65 more visits
    calls = []
    eval_form = qf.eval_form

    def counted(f, z):
        calls.append(z)
        return eval_form(f, z)

    monkeypatch.setattr(qf, "eval_form", counted)
    code, _, _ = run_cli(capsys, "fourier", "--form", "delta", "--l", "1", "--M", "128")
    assert code == 0
    assert len(set(calls)) == 129 and len(calls) == 129 + 65


@pytest.mark.parametrize("M", [64, 65, 100, 127, 128, 129, 255])
def test_fourier_error_estimate_needs_a_coarse_pass_of_64_nodes(capsys, monkeypatch, M):
    # the M // 2 pass reads the even nodes of the M pass again, M/2 + 1
    # visits; below M = 128 it would have fewer than 64 nodes, and for odd M
    # its nodes are not among the fine ones, so there is none and the
    # estimate is null
    calls = []
    eval_form = qf.eval_form

    def counted(f, z):
        calls.append(z)
        return eval_form(f, z)

    monkeypatch.setattr(qf, "eval_form", counted)
    payload = _payload(capsys, "fourier", "--form", "delta", "--l", "1", "--M", str(M))
    assert len(set(calls)) == M + 1
    if M < 128 or M % 2:
        assert payload["error_estimate"] is None
        assert len(calls) == M + 1
    else:
        assert 0.0 <= payload["error_estimate"] <= 1e-10
        assert len(calls) == M + 1 + M // 2 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--z", "0", "-1"],
        ["lvalue", "--s", "7", "--p", "2", "--q", "4"],
        ["lvalue", "--s", "0"],
        ["phi", "--j", "11"],
        ["phi", "--j", "-1"],
        ["eisenstein", "--z", "nan", "2"],
        ["eval", "--z", "nan", "2"],
        ["eval", "--z", "0", "inf"],
        ["fourier", "--l", "1", "--y", "nan"],
        ["fourier", "--l", "1", "--y", "-1"],
        ["phi", "--form", "s12.5"],
        ["phi", "--form", "s16.-1"],
        ["iterated", "--depth", "3", "--forms", "delta"],
        ["fourier", "--psi", "--i", "20", "--l", "1"],
        ["iterated", "--depth", "2", "--forms", "delta,s16,e4", "--z", "0", "2"],
        ["fourier", "--i", "99", "--l", "1", "--M", "64"],
        # fourier reads these only for a psi coefficient, dim reads --k/--k1
        # only without --table
        ["fourier", "--l", "1", "--C", "20"],
        ["fourier", "--l", "1", "--D", "200"],
        ["fourier", "--l", "1", "--r", "8"],
        ["fourier", "--l", "1", "--s", "8"],
        ["dim", "--table", "10", "--k", "16"],
        ["dim", "--table", "10", "--k1", "12"],
        # forms reads --weight only for the eisenstein and cusp-basis kinds
        ["forms", "--weight", "16", "--N", "3"],
        ["forms", "--kind", "delta", "--weight", "12"],
        # a table starts at k = 6, and --table 0 is a table, not its absence
        ["dim", "--table", "4"],
        ["dim", "--table", "0"],
        ["dim", "--table", "0", "--k", "18"],
        ["lvalue", "--form", "e4", "--s", "5"],
        # a bare --gamma, and one whose value parses as no group element
        ["period", "--gamma"],
        ["period", "--gamma", "-Q"],
        ["--config", "/nonexistent", "dim"],
        ["--N", "10", "dim"],
        ["--config=/nonexistent", "--C", "5", "dim"],
    ],
    ids=" ".join,
)
def test_invalid_input_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    if argv[:3] == ["lvalue", "--form", "e4"]:
        assert "cusp form" in err


@pytest.mark.parametrize("argv", [["--N", "10", "dim"], ["--N", "dim"], ["--M=64", "phi"]], ids=" ".join)
def test_a_flag_before_the_subcommand_is_named(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    flag = argv[0].split("=")[0]
    assert err.strip() == f"usage error: {flag} must follow the subcommand"


def test_dim_table_starts_at_weight_six(capsys):
    code, out, _ = run_cli(capsys, "dim", "--table", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,k1,dim_Mk_rho,dim_M2c", "6,4,3,3"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the case
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--z", "0", "0.01"],
        ["iterated", "--depth", "2", "--z", "0", "0.01"],
        # a coset sum that overflows float64, and phi below the q-series floor
        ["eisenstein", "--z", "0", "1e-160"],
        ["eisenstein", "--r", "11", "--s", "9", "--z", "0", "1e-16"],
        ["phi", "--z", "0", "1e-320"],
        # a Lambda value past float64, and powers of z past it above the floor
        ["lvalue", "--s", "262"],
        ["lvalue", "--s", "100000"],
        ["phi", "--z", "0", "1e31"],
        ["phi", "--form", "s16", "--r", "12", "--s", "12", "--z", "0", "1e25"],
        ["iterated", "--depth", "2", "--z", "0", "1e31"],
        ["iterated", "--depth", "3", "--z", "0", "1e31"],
        ["fourier", "--psi", "--l", "1", "--y", "1e300"],
    ],
    ids=" ".join,
)
def test_below_the_evaluation_floor_is_a_precision_failure(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _payload(capsys, *args):
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    return json.loads(out)


def test_every_global_flag_changes_output(capsys):
    eis = ("eisenstein", "--r", "2", "--s", "2", "--z", "0.5", "2")
    base = _payload(capsys, *eis)["value"]
    assert _payload(capsys, *eis, "--C", "20")["value"] != base
    assert _payload(capsys, *eis, "--D", "300")["value"] != base
    assert len(_payload(capsys, "forms", "--N", "8")["forms"]["delta"]["coeffs"]) == 9
    fourier = ("fourier", "--form", "delta", "--l", "1")
    default_m = _payload(capsys, *fourier)
    coarse_m = _payload(capsys, *fourier, "--M", "64")
    assert (coarse_m["value"], coarse_m["error_estimate"]) != (
        default_m["value"],
        default_m["error_estimate"],
    )


# the config flags each command reads; the other (command, flag) pairs are inert
CONFIG_FLAGS = ("C", "D", "N", "M", "format")
READS = {
    "forms": ("N", "format"),
    "eval": ("N",),
    "period": ("N",),
    "lvalue": ("N",),
    "eisenstein": ("C", "D"),
    "phi": ("C", "D", "N"),
    "fourier": ("C", "D", "N", "M"),
    "iterated": ("N",),
    "dim": ("format",),
    "check": (),
}
# the arguments each command needs to run at all
REQUIRED = {"lvalue": ["--s", "7"], "fourier": ["--l", "1"], "check": ["vvdim"]}
INERT = [(cmd, flag) for cmd, reads in READS.items() for flag in CONFIG_FLAGS if flag not in reads]


def _with_flag(cmd, flag, before):
    pair = [f"--{flag}", "csv" if flag == "format" else "80"]
    argv = [cmd, *REQUIRED.get(cmd, [])]
    return pair + argv if before else argv + pair


def test_inert_pairs_are_counted():
    assert len(INERT) == 34


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("cmd, flag", INERT, ids=[f"{c} --{f}" for c, f in INERT])
def test_inert_flag_is_a_usage_error(capsys, cmd, flag, before):
    code, out, err = run_cli(capsys, *_with_flag(cmd, flag, before))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:")


@pytest.mark.parametrize("cmd, flag", [(c, f) for c, reads in READS.items() for f in reads])
def test_read_flag_parses_after_its_command(cmd, flag):
    ns = cli.build_parser().parse_args(_with_flag(cmd, flag, before=False))
    assert getattr(ns, flag) == ("csv" if flag == "format" else 80)


def _subcommand_flags():
    """Every option string each subcommand's parser accepts."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sorted(o for a in p._actions for o in a.option_strings) for name, p in sub.choices.items()}


_FLAGS = _subcommand_flags()
# small integers, and the malformed values each kind of flag must reject
_VALUES = [str(i) for i in range(-2, 21)] + [
    "nan", "inf", "1e400", "abc", "", "s12.5", "T^x", "1,2,3,4", "e4,delta", "/nonexistent"
]


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(sorted(READS)))
    flags = st.sampled_from(_FLAGS[cmd] + [f"--{f}" for f in CONFIG_FLAGS])
    argv = [cmd, "vvdim"] if cmd == "check" else [cmd]
    if draw(st.booleans()):
        argv += REQUIRED.get(cmd, [])
    for _ in range(draw(st.integers(0, 4))):
        argv += [draw(flags), *draw(st.lists(st.sampled_from(_VALUES), max_size=2))]
    if draw(st.integers(0, 9)) == 0:  # now and then a flag before the command
        argv = [draw(flags), draw(st.sampled_from(_VALUES))] + argv
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    # whatever the arguments, the CLI returns an exit code and raises nothing;
    # argparse's help exits 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 0
            code = 0
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


def test_dim_csv_prints_its_one_row(capsys):
    code, out, _ = run_cli(capsys, "dim", "--k", "16", "--k1", "12", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,k1,dim_Mk_rho,dim_M2c", "16,12,19,23"]


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--tol", "1e-300"], ["--fd-h", "1e-3"]])
def test_removed_flags_are_rejected(capsys, flag):
    code, _, err = run_cli(capsys, "eisenstein", *flag)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("key", ["THREADS", "TOL", "FD_H", "FD_TOL"])
def test_config_rejects_removed_keys(tmp_path, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key}=1\n")
    from miint.config import RunConfig

    with pytest.raises(ValueError, match=f"unknown key {key}"):
        RunConfig().apply_file(str(cfg))


@pytest.mark.parametrize("content", [None, "FORMAT=xml\n"], ids=["directory", "format-xml"])
def test_unreadable_or_invalid_config_file_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path  # no content: the config path is a directory
    if content is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(content)
    code, out, err = run_cli(capsys, "--config", str(path), "dim")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:")


def test_missing_env_config_file_is_a_usage_error(capsys, monkeypatch):
    # the MIINT_CONFIG path is read like --config: a missing file is not skipped
    monkeypatch.setenv("MIINT_CONFIG", "/nonexistent")
    code, out, err = run_cli(capsys, "dim")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:") and "/nonexistent" in err


def test_config_echo_describes_the_run(capsys):
    # lvalue's --s is the L-value point, not the Eisenstein weight S
    payload = _payload(capsys, "lvalue", "--s", "7")
    assert payload["s"] == 7
    assert payload["config"]["s"] == 10
    # --z reaches the echoed z_re/z_im, and a config file's Z_RE is what runs
    payload = _payload(capsys, "phi", "--z", "0.5", "2")
    assert (payload["config"]["z_re"], payload["config"]["z_im"]) == (0.5, 2.0)


def test_config_file_point_is_used(tmp_path, capsys):
    cfg = tmp_path / "z.cfg"
    cfg.write_text("Z_RE=0.5\nZ_IM=2\n")
    from_file = _payload(capsys, "--config", str(cfg), "eisenstein")
    from_flag = _payload(capsys, "eisenstein", "--z", "0.5", "2")
    assert from_file == from_flag


def test_readme_cli_examples_parse():
    import pathlib
    import shlex

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    examples = [shlex.split(line.split("#", 1)[0])[1:] for line in lines if line.startswith("miint ")]
    assert len(examples) >= 20
    for argv in examples:
        cli.build_parser().parse_args(argv)
