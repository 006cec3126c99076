"""Run the benchmark over many seeds and write one baseline file.

    python3 perfbench/collect.py --seeds 1-10 --traced-seeds 1 \
        --out perfbench/baseline/set1.json [--compare perfbench/baseline/set0.json]

For every workload and seed it runs run.py untraced (workloads interleaved
seed by seed), then traced on --traced-seeds.  It records each run's
metrics, and per end-to-end metric the median, the quartiles and their
distance as a share of the median (the spread the bounds in BENCHMARK.json
are held against).  Tracing overhead is the traced run's end-to-end figures
against the untraced medians.  With --compare, it also prints how far each
median moved from the other file's.  The file records the environment,
the git commit when there is one, and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    # The summary lines give each end-to-end figure as measured in brackets.
    raw = {m.group(1): float(m.group(2)) for line in lines[:-1]
           if (m := re.match(r"\s+(\w+)\s.*\[([-+.\deE]+)\]$", line))}
    return {"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "as_measured": raw}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    keep = ("name", "version", "openblas configuration")  # not the build paths
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numpy_blas": {k: v for k, v in deps["blas"].items() if k in keep},
        "numpy_lapack": {k: v for k, v in deps["lapack"].items() if k in keep},
        "machine": platform.machine(),
        "git_commit": commit,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="1")
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds, traced_seeds = seed_list(args.seeds), seed_list(args.traced_seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, seconds, 0))
            print(f"{w} seed {seed}: {runs[w][-1]['metrics']}", file=sys.stderr)
    traced = {w: [run_once(w, s, seconds, 1) for s in traced_seeds] for w in workloads}

    summary: dict = {}
    for w in workloads:
        summary[w] = {"failed": sum(r["failed"] for r in runs[w]),
                      "attempted": sum(r["attempted"] for r in runs[w])}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name] for r in runs[w]])
            s["bound"] = bound
            if all(name in r["as_measured"] for r in runs[w]):
                s["as_measured"] = spread([r["as_measured"][name] for r in runs[w]])
            if traced[w]:
                traced_med = statistics.median(t["metrics"][f"traced.{name}"] for t in traced[w])
                s["trace_overhead"] = traced_med / s["median"] - 1.0
            summary[w][name] = s

    doc = {"environment": environment(), "run_seconds": seconds, "seeds": seeds,
           "traced_seeds": traced_seeds, "summary": summary, "runs": runs, "traced_runs": traced}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    other = json.loads(Path(args.compare).read_text())["summary"] if args.compare else {}
    print(f"{'workload':<8} {'metric':<12} {'median':>12} {'spread':>8} {'bound':>6} "
          f"{'overhead':>9} {'vs other':>9} {'measured spread':>16}")
    for w in workloads:
        for name in bounds:
            s = summary[w][name]
            moved = ""
            if w in other:
                moved = f"{s['median'] / other[w][name]['median'] - 1:+9.3f}"
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <- spread above bound/3"
            overhead = f"{s['trace_overhead']:+9.3f}" if "trace_overhead" in s else f"{'-':>9}"
            measured = f"{s['as_measured']['spread']:16.3f}" if "as_measured" in s else ""
            print(f"{w:<8} {name:<12} {s['median']:12.6g} {s['spread']:8.3f} {s['bound']:6.2f} "
                  f"{overhead} {moved:>9} {measured:>16}{flag}")
        print(f"{w:<8} failed {summary[w]['failed']} of {summary[w]['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
