"""miint benchmark: one command, three seeded closed-loop workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (one caller each, at most one child process at a time):

  sweep   warm multi-point Fourier sampling at C=40, D=400: each op is one
          point evaluation (phi or psi_series, then coeff_decompose) made
          when fourier_coefficient calls the benchmark's closure.
  cold    one fresh process per op: import, build the form, eisenstein_rs,
          psi_series and phi at one z, then closed_form_phi_j for every j.
  verify  one fresh process per pass of every check suite but 'fourier'.

The harness draws every input from --seed, runs the worker (worker.py, the
only caller of miint) in child processes, checks outputs outside the timed
regions, prints a human summary with sample counts, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
taken from spans, and the spans are written to .bench_trace/.  Times are
scaled to a reference machine speed (see tracing.SpeedClock); the summary
also shows them as measured, in brackets.  See perfbench/README.md for the
definitions and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import (
    REFERENCE_S,
    balanced_mean,
    balanced_median,
    by_case,
    calibrate,
    now,
    percentile,
    self_times,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "cold", "verify")
FORMS = {"delta": 12, "s16": 16}  # form name -> weight k
SETUP_REPEATS = 5
COLD_C = (40, 80)
# Sweep samples per mode: the smallest fourier_coefficient accepts.  A
# point's cost does not depend on it, and a larger or seeded M would make
# the sweep's first round longer than the benchmark's run budget allows.
SWEEP_M = 64
SUITES = (
    "vvdim", "cocycle", "dualroute", "invariance", "keypr", "coeffs",
    "equivariance", "order2", "order3", "psibar", "secondorder",
)
DEADLINE_S = 170.0
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MiB"}


class ChildFailed(Exception):
    pass


class Runner:
    """Spawns worker children one at a time and keeps what they report."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spans: list[dict] = []

    def child(self, spec: dict) -> dict | None:
        """Run one worker job; return its result, or None if it was lost."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        timeout = self.deadline - now()
        before = calibrate()
        spawned = now()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(dict(spec, spawned=spawned, calib_before=before)),
                capture_output=True, text=True,
                env=env, cwd=ROOT, timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            self._lost(spec, "timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self._lost(spec, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors += out["errors"]
        if out["spans"]:
            self.spans.append({"job": spec["mode"], "spawned": spawned, "spans": out["spans"]})
        return out

    def _lost(self, spec: dict, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{spec['mode']} child {why}")

    def setup_times(self, workload: str) -> tuple["Samples", list[float]]:
        """Set up SETUP_REPEATS fresh processes; (seconds to ready, rss)."""
        times, rss = Samples(), []
        for _ in range(SETUP_REPEATS):
            out = self.child({"mode": "setup", "workload": workload})
            if out and "ready" in out:
                times.add("setup", *out["ready"])
                rss.append(out["rss_mb"])
        return times, rss


def draw_weights(rng: random.Random, k: int) -> tuple[int, int]:
    """(r, s) with r + s even and r + s > k, not far from the diagonal."""
    total = k + 2 * rng.choice((2, 3, 4))
    r = total // 2 + rng.randint(-2, 2)
    return r, total - r


def sweep_inputs(rng: random.Random, rounds: int) -> dict:
    """Rounds over the four (form, series) cases in a seeded order.

    A round asks every case for mode l = 1 and right after for l = 2, at
    the case's own seeded weights, y and coefficient index, so each
    (function, y) is asked twice in a row, on the same sample points.  The
    first round always runs, so every case and both modes are measured in
    every run.

    The '-' sign costs about 12% more per point (psi_series conjugates the
    period table), so each round gives each form and each series one case
    of each sign; the seed draws which of the two such assignments is used.
    Every mode takes M = SWEEP_M samples, so a round always makes the
    same number of point evaluations (528).
    """
    modes, checks, probes = [], [], []
    for n in range(rounds):
        cases = [(form, kind) for form in FORMS for kind in ("phi", "psi_series")]
        flip = rng.random() < 0.5
        rng.shuffle(cases)
        params = []
        for form, kind in cases:
            k = FORMS[form]
            r, s = draw_weights(rng, k)
            plus = (form == "delta") == (kind == "phi")
            p = dict(case=f"{kind}@{form}", form=form, kind=kind, r=r, s=s,
                     sign="+" if plus != flip else "-", y=rng.uniform(1.0, 2.0),
                     M=SWEEP_M, i=rng.randrange(k - 1))
            params.append(p)
            if n == 0:
                for _ in range(2):
                    x = rng.randrange(p["M"]) / p["M"]
                    checks.append(dict(p, x=x))
                probes.append(dict(p, x=rng.random()))
        modes += [dict(p, l=l) for p in params for l in (1, 2)]
    return {"modes": modes, "min_modes": len(FORMS) * 2 * 2, "checks": checks, "probes": probes}


def cold_cycle(rng: random.Random) -> list[dict]:
    """Every (form, C) case once, in a seeded order, at seeded weights and z.

    The sign stays '+': with '-', psi_series copies the period table, and a
    seeded sign would make the peak memory of a run depend on the seed.
    """
    cases = [(form, C) for form in FORMS for C in COLD_C]
    rng.shuffle(cases)
    jobs = []
    for form, C in cases:
        r, s = draw_weights(rng, FORMS[form])
        jobs.append(dict(mode="cold", form=form, C=C, r=r, s=s, sign="+",
                         x=rng.uniform(-0.5, 0.5), y=rng.uniform(1.0, 2.0)))
    return jobs


def worst_margin(outs: list[dict]) -> tuple[float, str, int]:
    """Largest residual / tolerance over the checks the children made."""
    ratios = [c[1] / c[2] for out in outs for c in out["checks"]]
    return max(ratios), "ratio", len(ratios)


class Samples:
    """Times per case, kept as measured and scaled to the reference speed."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    def add(self, case: str, raw: float, scaled: float) -> None:
        self.raw.setdefault(case, []).append(raw)
        self.scaled.setdefault(case, []).append(scaled)

    def count(self) -> int:
        return sum(map(len, self.raw.values()))

    def all_scaled(self) -> list[float]:
        return [v for vs in self.scaled.values() for v in vs]


def summary(setup: Samples, ops: Samples, rss: float) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled to the reference speed and as measured."""
    if not setup.count():
        raise ChildFailed("no set-up completed")

    def figures(setup_times: dict, op_times: dict) -> dict:
        return {
            "setup_s": statistics.median(setup_times["setup"]),
            "ops_per_s": 1.0 / balanced_mean(op_times),
            "op_p50_s": balanced_median(op_times),
            "peak_rss_mb": rss,
        }

    return figures(setup.scaled, ops.scaled), figures(setup.raw, ops.raw)


def scaled_spans(out: dict) -> list[list]:
    """A child's spans with their times scaled by the child's speed factor."""
    f = out["factor"]
    return [[name, start * f, end * f, parent] for name, start, end, parent in out["spans"]]


def run_sweep(runner: Runner, rng: random.Random, seconds: int, full: bool, trace: bool) -> dict:
    setup, rss = runner.setup_times("sweep") if full else (Samples(), [])
    spec = sweep_inputs(rng, rounds=max(2, seconds // 10 + 1))
    out = runner.child(dict(spec, mode="sweep", workload="sweep", seconds=seconds, trace=trace))
    if not out or not out["points"]:
        raise ChildFailed("sweep worker returned no points")
    ops, modes = Samples(), Samples()
    for case, raw, scaled in out["points"]:
        ops.add(case, raw, scaled)
    for case, raw, scaled, _ in out["modes"]:
        modes.add("mode", raw, scaled)
    points = ops.all_scaled()
    res = {
        "e2e": summary(setup, ops, max(rss + [out["rss_mb"]])) if full else ({}, {}),
        "n": {"setup_s": setup.count(), "ops": ops.count(), "modes": modes.count(), "procs": len(rss) + 1},
        "extra": {
            "op_p90_s": (percentile(points, 90), "s", len(points)),
            "mode_p50_s": (statistics.median(modes.scaled["mode"]), "s", modes.count()),
            "worst_margin": worst_margin([out]),
        },
        "calib": [out["calib"]],
    }
    if trace:
        spans = scaled_spans(out)
        st = self_times(spans)
        roots = [i for i, s in enumerate(spans) if s[0].startswith("raseries.fourier_coefficient")]
        evals = [sum(1 for s in spans if s[3] == i and s[0] == "sweep.point") for i in roots]
        res["layers"] = {
            "raseries.phi.call_p50_s": (balanced_median(by_case(spans, "raseries.phi")), "s"),
            "raseries.psi_series.call_p50_s": (balanced_median(by_case(spans, "raseries.psi_series")), "s"),
            "raseries.coeff_decompose.call_p50_s": (balanced_median(by_case(spans, "raseries.coeff_decompose")), "s"),
            "raseries.fourier_coefficient.self_s": (statistics.median(st[i] for i in roots), "s"),
            "raseries.fourier_coefficient.evals_per_mode": (statistics.fmean(evals), "count"),
            "raseries.eisenstein_rs.call_p50_s": (balanced_median(by_case(spans, "raseries.eisenstein_rs")), "s"),
            "periods.eichler_F.call_p50_s": (balanced_median(by_case(spans, "periods.eichler_F")), "s"),
            "sweep.mode_p50_s": (statistics.median(modes.scaled["mode"]), "s"),
        }
    return res


def run_cold(runner: Runner, rng: random.Random, seconds: int, full: bool, trace: bool) -> dict:
    setup, rss = runner.setup_times("cold") if full else (Samples(), [])
    start = now()
    ops, first = Samples(), Samples()
    outs = []
    while True:
        cycle_start = now()
        for job in cold_cycle(rng):
            out = runner.child(dict(job, trace=trace))
            if not out or "done" not in out:
                continue
            case = f"{job['form']}@C{job['C']}"
            ops.add(case, *out["done"])
            first.add(case, *out["first_value"])
            rss.append(out["rss_mb"])
            outs.append((case, out))
        cycle = now() - cycle_start
        if now() - start + cycle > seconds:
            break
    if len(ops.raw) < len(FORMS) * len(COLD_C):
        raise ChildFailed("some cold cases produced no op time")
    res = {
        "e2e": summary(setup, ops, max(rss)) if full else ({}, {}),
        "n": {"setup_s": setup.count(), "ops": ops.count(), "procs": len(rss)},
        "extra": {
            "first_value_p50_s": (balanced_median(first.scaled), "s", first.count()),
            "worst_margin": worst_margin([out for _, out in outs]),
        },
        "calib": [out["calib"] for _, out in outs],
    }
    if trace:
        layer: dict[str, dict[str, list[float]]] = {}
        for case, out in outs:
            spans = scaled_spans(out)
            cf = [s[2] - s[1] for s in spans if s[0] == "raseries.closed_form_phi_j"]
            per_op = {s[0]: s[2] - s[1] for s in spans if s[0] != "raseries.closed_form_phi_j"}
            per_op["raseries.closed_form_phi_j.first_s"] = cf[0]
            per_op["raseries.closed_form_phi_j.rest_s"] = sum(cf[1:])
            for name, d in per_op.items():
                layer.setdefault(name, {}).setdefault(case, []).append(d)
        names = {
            "qforms.form_build_s": "qforms.form_build",
            "group.enumerate_cosets_s": "group.enumerate_cosets",
            "raseries.eisenstein_rs.first_s": "raseries.eisenstein_rs",
            "raseries.psi_series.first_s": "raseries.psi_series",
            "raseries.phi.first_s": "raseries.phi",
            "raseries.closed_form_phi_j.first_s": "raseries.closed_form_phi_j.first_s",
            "raseries.closed_form_phi_j.rest_s": "raseries.closed_form_phi_j.rest_s",
        }
        res["layers"] = {m: (balanced_median(layer[s]), "s") for m, s in names.items()}
        res["layers"]["cold.first_value_p50_s"] = (balanced_median(first.scaled), "s")
    return res


def run_verify(runner: Runner, rng: random.Random, seconds: int, full: bool, trace: bool) -> dict:
    setup, rss = runner.setup_times("verify") if full else (Samples(), [])
    start = now()
    passes, outs = Samples(), []
    while True:
        order = list(SUITES)
        rng.shuffle(order)
        out = runner.child({"mode": "verify", "order": order, "trace": trace})
        if out and "done" in out:
            passes.add("pass", *out["done"])
            rss.append(out["rss_mb"])
            outs.append(out)
        if not outs or now() - start + statistics.fmean(passes.raw["pass"]) > seconds:
            break
    if not outs:
        raise ChildFailed("no verify pass completed")
    margins = {name: max(o["margins"][name] for o in outs) for name in SUITES}
    pass_wall = statistics.median(passes.scaled["pass"])
    res = {
        "e2e": summary(setup, passes, max(rss)) if full else ({}, {}),
        "n": {"setup_s": setup.count(), "ops": passes.count(), "procs": len(rss)},
        "extra": {
            "pass_wall_s": (pass_wall, "s", passes.count()),
            "worst_margin": (max(margins.values()), "ratio", len(margins)),
        },
        "calib": [o["calib"] for o in outs],
    }
    if trace:
        suite_s: dict[str, list[float]] = {}
        for o in outs:
            for name, start_t, end_t, _ in scaled_spans(o):
                if name.startswith("checks."):
                    suite_s.setdefault(name, []).append(end_t - start_t)
        res["layers"] = {f"{name}.s": (statistics.median(v), "s") for name, v in sorted(suite_s.items())}
        res["layers"].update({f"checks.{n}.margin": (m, "ratio") for n, m in sorted(margins.items())})
        res["layers"]["verify.pass_wall_s"] = (pass_wall, "s")
        res["layers"]["verify.worst_margin"] = (max(margins.values()), "ratio")
    return res


BLOCKS = {"sweep": run_sweep, "cold": run_cold, "verify": run_verify}


def report(workload: str, res: dict, file=sys.stdout) -> None:
    n = res["n"]
    scaled, raw = res["e2e"]
    print(f"{workload}: {n['ops']} ops" + (f", {n['modes']} modes" if "modes" in n else "")
          + f"; times scaled to the reference speed (as measured in brackets)", file=file)
    for name, value in scaled.items():
        count = {"setup_s": n["setup_s"], "peak_rss_mb": n["procs"]}.get(name, n["ops"])
        print(f"  {name:<18} {value:12.6g} {E2E_UNITS[name]:<5} (n={count}) [{raw[name]:.6g}]", file=file)
    for name, (value, unit, count) in res["extra"].items():
        shown = "not reported: fewer than 10 samples beyond it" if value is None else f"{value:12.6g} {unit:<5}"
        print(f"  {name:<18} {shown} (n={count})", file=file)
    print(f"  {'calibration_s':<18} {statistics.median(res['calib']):12.6g} s     "
          f"(n={len(res['calib'])}; reference {REFERENCE_S} s)", file=file)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "miint" / "__init__.py").is_file():
        print(f"miint sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(now() + DEADLINE_S)
    trace = bool(args.trace)
    # A traced run also runs the smallest complete unit of the other
    # workloads, so every per-layer metric has a value in every traced run.
    order = [args.workload] + ([w for w in WORKLOADS if w != args.workload] if trace else [])
    results = {}
    for w in order:
        full = w == args.workload
        rng = random.Random(f"{w}:{args.seed}")
        try:
            results[w] = BLOCKS[w](runner, rng, args.seconds if full else 0, full, trace)
        except ChildFailed as exc:
            runner.errors.append(str(exc))
            print("\n".join(runner.errors), file=sys.stderr)
            return 1
    own = results[args.workload]
    report(args.workload, own)
    print(f"  {'failed_share':<18} {runner.failed / max(runner.attempted, 1):12.6g} ratio "
          f"(failed {runner.failed} of {runner.attempted})")
    for err in runner.errors:
        print(f"  error: {err}", file=sys.stderr)

    if trace:
        metrics = {}
        for res in results.values():
            metrics.update({k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()})
        metrics.update({f"traced.{k}": {"value": v, "unit": E2E_UNITS[k]} for k, v in own["e2e"][0].items()})
        calib = [c for res in results.values() for c in res["calib"]]
        metrics["machine.calibration_s"] = {"value": statistics.median(calib), "unit": "s"}
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "children": runner.spans}))
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in own["e2e"][0].items()}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
