"""Command-line surface: every computation and check suite, with reproducible
configuration and machine-readable output.

JSON goes to stdout (complex numbers as [re, im] pairs, polynomials as
ascending coefficient arrays); diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 precision/convergence failure, 3 check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import periods, qforms, raseries
from .config import FORMATS, RunConfig, load_config
from .errors import ConvergenceError, PrecisionError
from .group import BiWeight, GroupElement, S, T, T_pow
from .raseries import TruncationParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECISION = 2
EXIT_CHECK = 3

#: `sorted(checks.SUITES)`, spelled out (a test pins the two equal), so that
#: building the parser loads no suite: only `check` imports `checks`
SUITE_NAMES = (
    "classes", "cocycle", "coeffs", "dualroute", "equivariance", "fourier", "invariance",
    "keypr", "modularity", "order2", "order3", "psibar", "secondorder", "vvdim",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # '--gamma VALUE' (or an abbreviation) read as '--gamma=VALUE':
        # argparse would take a value that starts with '-', such as '-I', for a flag
        args = sys.argv[1:] if args is None else list(args)
        for i in range(len(args) - 2, -1, -1):
            if len(args[i]) > 2 and "--gamma".startswith(args[i]):
                args[i : i + 2] = [f"{args[i]}={args[i + 1]}"]
        return super().parse_known_args(args, namespace)


def _cnum(x: complex) -> list[float]:
    return [float(x.real), float(x.imag)]


def _poly(p: np.ndarray) -> list[list[float]]:
    return [_cnum(c) for c in p]


def _coeff_json(c) -> object:
    if isinstance(c, Fraction):
        return str(c)
    return int(c)


def parse_gamma(text: str) -> GroupElement:
    """Accept 'S', 'T', 'T^n', '-I', products joined by '*', or 'a,b,c,d'."""
    text = text.strip()
    if "," in text:
        a, b, c, d = (int(v) for v in text.split(","))
        return GroupElement(a, b, c, d)
    g = None
    for tok in text.split("*"):
        tok = tok.strip()
        if tok == "S":
            elem = S
        elif tok == "T":
            elem = T
        elif tok.startswith("T^"):
            elem = T_pow(int(tok[2:]))
        elif tok == "I":
            elem = GroupElement(1, 0, 0, 1)
        elif tok == "-I":
            elem = GroupElement(-1, 0, 0, -1)
        else:
            raise _UsageError(f"cannot parse group element token {tok!r}")
        g = elem if g is None else g * elem
    if g is None:
        raise _UsageError("empty group element")
    return g


def resolve_form(name: str, N: int) -> qforms.QExpansion:
    """'delta', 'e<k>' for Eisenstein, or 's<k>[.<i>]' for a cusp basis form."""
    name = name.strip().lower()
    if name == "delta":
        return qforms.delta_q(N)
    if name.startswith("e"):
        return qforms.eisenstein_q(int(name[1:]), N)
    if name.startswith("s"):
        body = name[1:]
        idx = 0
        if "." in body:
            body, idx_s = body.split(".", 1)
            idx = int(idx_s)
        basis = qforms.cusp_basis(int(body), N)
        if not basis:
            raise _UsageError(f"no cusp forms of weight {body}")
        if not 0 <= idx < len(basis):
            raise _UsageError(f"cusp form index {idx} outside 0..{len(basis) - 1} for weight {body}")
        return basis[idx]
    raise _UsageError(f"unknown form {name!r}")


def _trunc(cfg: RunConfig) -> TruncationParams:
    return TruncationParams(cfg.C, cfg.D)


def _emit(payload: dict, cfg: RunConfig) -> None:
    payload = {"config": dataclasses.asdict(cfg), **payload}
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _emit_csv(rows: list[dict], fieldnames: tuple[str, ...]) -> None:
    """A header row, then one row per dict: the header alone when there is none."""
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)


def build_parser() -> _Parser:
    # SUPPRESS keeps subparser re-parsing from clobbering a pre-command --config
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="path to a KEY=VALUE config file")

    parser = _Parser(prog="miint", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_parser(name, *int_flags, **kw):
        """A subcommand with --config and the integer config flags it reads;
        the two that read FORMAT add --format themselves."""
        p = sub.add_parser(name, parents=[common], **kw)
        for flag in int_flags:
            p.add_argument(f"--{flag}", type=int)
        return p

    p = add_parser("forms", "N", help="dump exact q-expansion coefficients")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--kind", choices=("eisenstein", "delta", "cusp-basis"), default="delta")
    p.add_argument("--weight", type=int, default=None, help="weight (default 12), not with delta")

    p = add_parser("eval", "N", help="evaluate a form at a point")
    p.add_argument("--form", default=None)
    p.add_argument("--z", nargs=2, type=float, metavar=("RE", "IM"), default=None)

    p = add_parser("period", "N", help="period polynomial r(gamma; X)")
    p.add_argument("--form", default=None)
    p.add_argument("--gamma", default="S")
    p.add_argument("--sign", choices=("+", "-"), default="+")

    p = add_parser("lvalue", "N", help="twisted completed L-value")
    p.add_argument("--form", default=None)
    # its own dest: S in the config is the Eisenstein weight, not this point
    p.add_argument("--s", type=int, required=True, dest="lvalue_s", metavar="S")
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--q", type=int, default=1)

    p = add_parser("eisenstein", "C", "D", help="real-analytic Eisenstein series value")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--z", nargs=2, type=float, metavar=("RE", "IM"), default=None)

    p = add_parser("phi", "C", "D", "N", help="invariant series coefficients")
    p.add_argument("--form", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--z", nargs=2, type=float, metavar=("RE", "IM"), default=None)
    p.add_argument("--j", type=int, default=None, help="single basis coefficient")

    p = add_parser("fourier", "C", "D", "N", "M", help="Fourier mode of a form or psi coefficient")
    p.add_argument("--form", default=None)
    p.add_argument("--psi", action="store_true", help="use a psi basis coefficient")
    p.add_argument("--i", type=int, default=None, help="psi basis index (with --psi)")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--y", type=float, default=1.0)

    p = add_parser("iterated", "N", help="iterated Eichler integral coefficients")
    p.add_argument("--depth", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--forms", default=None, help="comma-separated, e.g. delta,delta")
    p.add_argument("--z", nargs=2, type=float, metavar=("RE", "IM"), default=None)

    p = add_parser("dim", help="dimension formulas")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--table", type=int, default=None, help="emit table up to kmax")

    p = add_parser("check", help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    return parser


def _only_with(ns, flags: tuple[str, ...], mode: str) -> None:
    """Reject the given ones among `flags`: the command reads them only `mode`."""
    given = [f"--{flag}" for flag in flags if getattr(ns, flag) is not None]
    if given:
        raise _UsageError(f"{', '.join(given)}: read only {mode}")


def _cmd_forms(ns, cfg: RunConfig) -> int:
    weight = 12 if ns.weight is None else ns.weight
    if ns.kind == "delta":
        _only_with(ns, ("weight",), "with --kind eisenstein or cusp-basis")
        forms = [("delta", qforms.delta_q(cfg.N))]
    elif ns.kind == "eisenstein":
        forms = [(f"e{weight}", qforms.eisenstein_q(weight, cfg.N))]
    else:
        forms = [(f"s{weight}.{i}", f) for i, f in enumerate(qforms.cusp_basis(weight, cfg.N))]
    if cfg.format == "csv":
        rows = []
        for name, f in forms:
            for n, c in enumerate(f.coeffs):
                rows.append({"form": name, "n": n, "a_n": str(c)})
        _emit_csv(rows, ("form", "n", "a_n"))
        return EXIT_OK
    payload = {
        "forms": {
            name: {"weight": f.k, "coeffs": [_coeff_json(c) for c in f.coeffs]}
            for name, f in forms
        }
    }
    _emit(payload, cfg)
    return EXIT_OK


def _cmd_eval(ns, cfg: RunConfig) -> int:
    f = resolve_form(cfg.form, cfg.N)
    z = cfg.z
    val = qforms.eval_form(f, z)
    _emit(
        {
            "value": _cnum(val),
            "tail": qforms.eval_tail_bound(f, z.imag),
            "z": _cnum(z),
        },
        cfg,
    )
    return EXIT_OK


def _cmd_period(ns, cfg: RunConfig) -> int:
    f = resolve_form(cfg.form, cfg.N)
    g = parse_gamma(ns.gamma)
    poly = periods.period_poly(f, g, ns.sign)
    _emit(
        {
            "gamma": list(g.entries),
            "sign": ns.sign,
            "coeffs": _poly(poly),
            "error_estimate": periods.period_error_estimate(f, g, poly),
        },
        cfg,
    )
    return EXIT_OK


def _cmd_lvalue(ns, cfg: RunConfig) -> int:
    f = resolve_form(cfg.form, cfg.N)
    s, p, q = ns.lvalue_s, ns.p, ns.q
    val = periods.twisted_L(f, s, p, q)
    err = None  # the distance to the extraction reference, which covers s in 1..k-1
    if s <= f.k - 1:
        err = abs(val - periods._lambdas_by_extraction(f, p % q, q)[s - 1])
    _emit({"value": _cnum(val), "s": s, "twist": [p, q], "error_estimate": err}, cfg)
    return EXIT_OK


def _cmd_eisenstein(ns, cfg: RunConfig) -> int:
    w = BiWeight(cfg.r, cfg.s)
    sv = raseries.eisenstein_rs(w, cfg.z, _trunc(cfg))
    _emit(
        {
            "weights": [w.r, w.s],
            "value": _cnum(sv.value),
            "tail": sv.tail_estimate,
            "trunc": {"C": cfg.C, "D": cfg.D},
        },
        cfg,
    )
    return EXIT_OK


def _cmd_phi(ns, cfg: RunConfig) -> int:
    f = resolve_form(cfg.form, cfg.N)
    w = BiWeight(cfg.r, cfg.s)
    z = cfg.z
    if ns.j is not None and not 0 <= ns.j <= f.k - 2:
        raise _UsageError(f"--j must lie in 0..{f.k - 2}")
    sv = raseries.phi(f, w, ns.sign, z, _trunc(cfg))
    payload = {
        "weights": [w.r, w.s],
        "sign": ns.sign,
        "tail": sv.tail_estimate,
        "trunc": {"C": cfg.C, "D": cfg.D, "N": cfg.N},
    }
    if ns.j is not None:
        cv = raseries.phi_coefficients(f, w, ns.sign, z, _trunc(cfg))
        coefficient = _cnum(complex(cv.value[ns.j]))
        payload.update(j=ns.j, coefficient=coefficient, error_estimate=cv.tail_estimate)
    else:
        payload["coeffs"] = _poly(sv.value)
    _emit(payload, cfg)
    return EXIT_OK


def _cmd_fourier(ns, cfg: RunConfig) -> int:
    if not ns.psi:
        _only_with(ns, ("i", "C", "D", "r", "s"), "with --psi, for a psi coefficient")
    t = _trunc(cfg)
    f = resolve_form(cfg.form, cfg.N)
    i = None  # the psi basis index, null for a form's own mode
    if ns.psi:
        i = 0 if ns.i is None else ns.i
        if not 0 <= i <= f.k - 2:
            raise _UsageError(f"--i must lie in 0..{f.k - 2}")
        w = BiWeight(cfg.r, cfg.s)
        fn = lambda z: complex(raseries.phi_coefficients(f, w, "+", z, t, psi=True).value[i])
    else:
        fn = lambda z: qforms.eval_form(f, z)
    modes = raseries.fourier_modes(fn, ns.y, cfg.M)
    # the M/2 nodes are the even ones, and mode l on them is off by |mode l + M/2|
    err = abs(modes[(ns.l + cfg.M // 2) % cfg.M]) if cfg.M % 2 == 0 else None
    val = complex(modes[ns.l % cfg.M])
    _emit(
        {"psi": ns.psi, "i": i, "l": ns.l, "y": ns.y, "value": _cnum(val), "M": cfg.M,
         "error_estimate": err},
        cfg,
    )
    return EXIT_OK


def _cmd_iterated(ns, cfg: RunConfig) -> int:
    from . import iterated

    names = ["delta"] * (ns.depth - 1) if ns.forms is None else ns.forms.split(",")
    if len(names) != ns.depth - 1:
        raise _UsageError(
            f"--depth {ns.depth} needs exactly {ns.depth - 1} comma-separated --forms, "
            f"got {len(names)}"
        )
    forms = tuple(resolve_form(n, cfg.N) for n in names)
    data = iterated.IteratedIntegrand(forms)
    z = cfg.z
    v = np.atleast_1d(iterated.iterated_F(data, z))
    t_res = iterated.parabolic_residual(data, z)
    _emit(
        {
            "depth": ns.depth,
            "forms": names,
            "weights": list(data.weights),
            "coeffs": np.stack([v.real, v.imag], -1).tolist(),
            "parabolic_residual": t_res,
            # the scale the residual is read against: max |coefficient| of the value
            "parabolic_scale": float(np.abs(v).max()),
        },
        cfg,
    )
    return EXIT_OK


def _cmd_dim(ns, cfg: RunConfig) -> int:
    from . import vvdim

    table = ns.table is not None
    if table:
        _only_with(ns, ("k", "k1"), "without --table")
        if ns.table < 6:
            raise _UsageError(f"--table needs kmax >= 6, got {ns.table}")
        pairs = [(k, k1) for k in range(6, ns.table + 1, 2) for k1 in range(4, k, 2)]
    else:
        pairs = [(16 if ns.k is None else ns.k, 12 if ns.k1 is None else ns.k1)]
    rows = [
        {"k": k, "k1": k1, "dim_Mk_rho": vvdim.dim_Mk_rho(k, k1), "dim_M2c": vvdim.dim_M2c(k, k1)}
        for k, k1 in pairs
    ]
    if cfg.format == "csv":
        _emit_csv(rows, ("k", "k1", "dim_Mk_rho", "dim_M2c"))
    elif table:
        _emit({"table": rows}, cfg)
    else:
        _emit(rows[0], cfg)
    return EXIT_OK


def _cmd_check(ns, cfg: RunConfig) -> int:
    from . import checks

    results = checks.run_suite(ns.suite)
    for res in results:
        print(res.line(), file=sys.stderr)
        if "traceback" in res.details:  # a suite that raised
            print(res.details["traceback"], end="", file=sys.stderr)
    payload = {
        "suite": ns.suite,
        "passed": all(r.passed for r in results),
        "results": [
            # JSON has no Infinity or NaN: a non-finite residual (a suite
            # that raised reports inf) is null
            {
                "name": r.name,
                "passed": r.passed,
                "residual": r.residual if math.isfinite(r.residual) else None,
                "tolerance": r.tolerance,
            }
            for r in results
        ],
    }
    _emit(payload, cfg)
    return EXIT_OK if payload["passed"] else EXIT_CHECK


_DISPATCH = {
    "forms": _cmd_forms,
    "eval": _cmd_eval,
    "period": _cmd_period,
    "lvalue": _cmd_lvalue,
    "eisenstein": _cmd_eisenstein,
    "phi": _cmd_phi,
    "fourier": _cmd_fourier,
    "iterated": _cmd_iterated,
    "dim": _cmd_dim,
    "check": _cmd_check,
}


def _flag_before_command(argv: list[str]) -> str | None:
    """The first flag before the subcommand other than --config and help:
    the top-level parser knows no other, and would take the flag's value
    for the command name."""
    args = iter(argv)
    for tok in args:
        if not tok.startswith("-"):
            return None
        name = tok.split("=", 1)[0]
        if name == "--config":
            if "=" not in tok:
                next(args, None)
        elif name not in ("-h", "--help"):
            return name
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        flag = _flag_before_command(argv)
        if flag is not None:
            raise _UsageError(f"{flag} must follow the subcommand")
        ns = parser.parse_args(argv)
        try:
            cfg = load_config(getattr(ns, "config", None), ns)
        except OSError as exc:  # a config file that cannot be read
            raise _UsageError(f"cannot read config file: {exc}") from exc
        return _DISPATCH[ns.cmd](ns, cfg)
    except (PrecisionError, ConvergenceError) as exc:
        # caught before ValueError, which ConvergenceError subclasses
        print(f"precision/convergence failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (_UsageError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
