"""Child process of the benchmark, and its only caller of miint.

Reads one JSON job from stdin, runs it against the public miint API
(names exported by `miint/__init__.py`, plus `miint.checks.run_suite`) and
prints one JSON line with its timings, samples, check results and, when
traced, its spans.  Timings run from the moment the harness spawned us (the
monotonic clock is system-wide, see `tracing.now`) and come as [as measured,
scaled to the reference speed] pairs (see `tracing.SpeedClock`).

Cold state comes only from being a fresh process: nothing here clears a
cache or touches a private name.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import traceback

from tracing import SpeedClock, Tracer, now

SWEEP_C, SWEEP_D = 40, 400
SPLIT_S = 1.0  # calibrate at most about once per second of timed work


def build_form(miint, name: str):
    if name == "delta":
        return miint.delta_q()
    if name == "s16":
        return miint.cusp_basis(16)[0]
    raise ValueError(f"unknown form {name!r}")


def finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


class Job:
    """One job's inputs, tracer and result record."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.tracer = Tracer(bool(spec.get("trace")))
        # Timed from the moment the harness spawned us.
        self.clock = SpeedClock(spec["spawned"], spec["calib_before"], self.tracer)
        self.out: dict = {"attempted": 0, "failed": 0, "checks": [], "errors": []}

    def check(self, name: str, residual: float, tol: float) -> None:
        """Record one correctness check; it counts as an attempted op."""
        ok = math.isfinite(residual) and residual <= tol
        self.out["checks"].append([name, residual, tol, ok])
        self.out["attempted"] += 1
        self.out["failed"] += not ok


def setup(job: Job):
    """Import miint; for the sweep, also build both forms and warm their
    coset data and period tables with one evaluation each."""
    import miint

    forms = {}
    if job.spec["workload"] == "sweep":
        t = miint.TruncationParams(C=SWEEP_C, D=SWEEP_D)
        for name in ("delta", "s16"):
            f = forms[name] = build_form(miint, name)
            w = miint.BiWeight(f.k // 2 + 4, f.k // 2 + 4)
            miint.phi(f, w, "+", 2j, t)
    elif job.spec["workload"] == "verify":
        import miint.checks  # noqa: F401  (the verify pass needs it)
    return miint, forms


def run_setup(job: Job) -> None:
    setup(job)
    job.out["ready"] = job.clock.split()
    job.out["attempted"] += 1


def run_sweep(job: Job) -> None:
    """Warm Fourier sampling: fourier_coefficient drives a closure that
    evaluates phi or psi_series and decomposes the result."""
    miint, forms = setup(job)
    spec, tr = job.spec, job.tracer
    t = miint.TruncationParams(C=SWEEP_C, D=SWEEP_D)
    series = {"phi": miint.phi, "psi_series": miint.psi_series}
    clock = job.clock
    clock.split()  # set-up is not part of the loop's first segment
    points, modes, values = [], [], []
    deadline = now() + spec["seconds"]
    per_case: dict[str, list[float]] = {}
    for index, m in enumerate(spec["modes"]):
        case, f = m["case"], forms[m["form"]]
        w = miint.BiWeight(m["r"], m["s"])
        # A case's l = 2 mode always follows its l = 1 mode; a new pair
        # starts only while both modes fit in the time left.
        recent = per_case.get(case) or [timer.raw for _, timer in points]
        if index >= spec["min_modes"] and m["l"] == 1 and recent:
            if now() + 2 * (m["M"] + 2) * sum(recent) / len(recent) > deadline:
                break
        evaluate = series[m["kind"]]
        times = per_case.setdefault(case, [])
        mode_points = []

        def fn(z, m=m, f=f, w=w, evaluate=evaluate, times=times, mode_points=mode_points):
            clock.split_after(SPLIT_S)  # calibrate between points only
            timer = clock.timer()
            with tr.span("sweep.point"):
                with tr.span(f"raseries.{m['kind']}@{m['form']}"):
                    val = evaluate(f, w, m["sign"], z, t).value
                with tr.span(f"raseries.coeff_decompose@{m['form']}"):
                    coeff = complex(miint.coeff_decompose(val, z, f.k)[m["i"]])
            timer.stop()
            times.append(timer.raw)
            mode_points.append((m["case"], timer))
            values.append(coeff)
            return coeff

        mode_timer = clock.timer()
        try:
            with tr.span(f"raseries.fourier_coefficient@{case}"):
                mode_value = miint.fourier_coefficient(fn, m["l"], m["y"], m["M"])
        except (ArithmeticError, ValueError, miint.PrecisionError) as exc:
            mode_timer.stop()
            job.out["errors"].append(f"mode {index}: {type(exc).__name__}: {exc}")
            job.out["attempted"] += 1
            job.out["failed"] += 1
            continue
        mode_timer.stop()
        modes.append((case, mode_timer, len(mode_points)))
        values.append(complex(mode_value))
        points.extend(mode_points)
    clock.split()  # completes the scaled times of the last segment
    job.out["points"] = [[case, *timer.pair()] for case, timer in points]
    job.out["modes"] = [[case, *timer.pair(), evals] for case, timer, evals in modes]

    # Checks, outside the timed region.
    bad = sum(not finite(v) for v in values)
    job.out["attempted"] += len(points)
    job.out["failed"] += bad
    if bad:
        job.out["errors"].append(f"{bad} non-finite values")
    S = miint.S
    for c in spec["checks"]:
        f = forms[c["form"]]
        w = miint.BiWeight(c["r"], c["s"])
        z = complex(c["x"], c["y"])
        sign = c["sign"]
        if c["kind"] == "phi":
            sv = miint.phi(f, w, sign, z, t)
            acted = miint.act_tensor(lambda u: miint.phi(f, w, sign, u, t).value, S, w, f.k)(z)
            residual = (acted - sv.value).norm_inf()
            job.check(f"phi{sign} S-invariance at {z}", residual, max(4 * sv.tail_estimate, 1e-5))
        else:
            sv = miint.psi_series(f, w, sign, z, t)
            ev = miint.eisenstein_rs(w, z, t)
            image = miint.act_tensor(
                lambda u: miint.psi_series(f, w, sign, u, t).value, S, w, f.k
            )(z) - sv.value
            predicted = miint.period_poly(f, S, sign) * (-ev.value)
            residual = (image - predicted).norm_inf()
            tol = max(2 * sv.tail_estimate + abs(ev.tail_estimate), 1e-5)
            job.check(f"psi{sign}.(S-1) + r(S) E = 0 at {z}", residual, tol)

    # Layer probes, outside the timed region.
    if tr.enabled:
        for p in spec["probes"]:
            f = forms[p["form"]]
            z = complex(p["x"], p["y"])
            with tr.span(f"raseries.eisenstein_rs@{p['form']}"):
                miint.eisenstein_rs(miint.BiWeight(p["r"], p["s"]), z, t)
            with tr.span(f"periods.eichler_F@{p['form']}"):
                miint.eichler_F(f, z, p["sign"])


def run_cold(job: Job) -> None:
    """First values in a fresh process: the timed op ends after the last
    closed-form coefficient."""
    spec, tr = job.spec, job.tracer
    import miint

    t = miint.TruncationParams(C=spec["C"], D=10 * spec["C"])
    with tr.span("qforms.form_build"):
        f = build_form(miint, spec["form"])
    w = miint.BiWeight(spec["r"], spec["s"])
    z = complex(spec["x"], spec["y"])
    sign = spec["sign"]
    with tr.span("raseries.eisenstein_rs"):
        miint.eisenstein_rs(w, z, t)
    with tr.span("raseries.psi_series"):
        miint.psi_series(f, w, sign, z, t)
    with tr.span("raseries.phi"):
        phiv = miint.phi(f, w, sign, z, t)
    job.out["first_value"] = job.clock.split()
    closed = []
    for j in range(f.k - 1):
        with tr.span("raseries.closed_form_phi_j"):
            closed.append(miint.closed_form_phi_j(f, w, sign, j, z, t))
        job.clock.split_after(SPLIT_S)
    job.out["done"] = job.clock.split()
    job.out["attempted"] += 1

    # Check, outside the timed region: closed forms against the decomposition.
    vec = miint.coeff_decompose(phiv.value, z, f.k)
    residual = max(abs(vec[j] - c) / max(1.0, abs(c)) for j, c in enumerate(closed))
    if not all(map(finite, closed)):
        residual = math.inf
    job.check(f"closed form vs decomposition, {spec['form']} C={spec['C']}", residual,
              max(phiv.tail_estimate, 1e-5))
    if tr.enabled:
        with tr.span("group.enumerate_cosets"):
            miint.enumerate_cosets(spec["C"], 10 * spec["C"])


def run_verify(job: Job) -> None:
    """One verification pass: every suite in the given order."""
    spec, tr = job.spec, job.tracer
    from miint.checks import run_suite

    margins = {}
    any_failed = False
    for name in spec["order"]:
        with tr.span(f"checks.{name}"):
            results = run_suite(name)
        margins[name] = max(
            (r.residual / r.tolerance if r.tolerance else (0.0 if r.residual == 0 else math.inf))
            for r in results
        )
        failed = [r.line() for r in results if not r.passed]
        job.out["errors"].extend(failed)
        any_failed = any_failed or bool(failed)
        job.clock.split_after(SPLIT_S)
    job.out["done"] = job.clock.split()
    job.out["attempted"] += 1
    job.out["failed"] += any_failed
    job.out["margins"] = margins


RUNNERS = {"setup": run_setup, "sweep": run_sweep, "cold": run_cold, "verify": run_verify}


def main() -> int:
    job = Job(json.load(sys.stdin))
    try:
        RUNNERS[job.spec["mode"]](job)
    except Exception:  # the harness counts it as a failed op
        traceback.print_exc()
        job.out["errors"].append(traceback.format_exc(limit=1))
        job.out["attempted"] += 1
        job.out["failed"] += 1
    job.out["calib"] = job.clock.cal
    job.out["factor"] = job.clock.factor()
    job.out["spans"] = job.tracer.spans
    job.out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(job.out, default=str))
    return 1 if job.out["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
