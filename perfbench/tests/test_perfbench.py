"""Self-tests of the benchmark: span arithmetic, the percentile rule, and
that the benchmark sources stay on miint's public API.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from tracing import Tracer, balanced_median, by_case, percentile, self_times  # noqa: E402

ALLOWED_CHECKS = {"run_suite"}


def test_self_time_subtracts_children():
    spans = [
        ["mode", 0.0, 10.0, None],
        ["point", 1.0, 3.0, 0],
        ["point", 4.0, 7.5, 0],
        ["phi", 1.5, 2.5, 1],
    ]
    assert self_times(spans) == pytest.approx([4.5, 1.0, 3.5, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        ["parent", 0.0, 10.0, None],
        ["a", 2.0, 6.0, 0],
        ["b", 4.0, 8.0, 0],
        ["c", 9.0, 12.0, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting_and_is_inert_when_disabled():
    tr = Tracer(True)
    with tr.span("outer"):
        with tr.span("inner@x"):
            pass
    assert [s[0] for s in tr.spans] == ["outer", "inner@x"]
    assert tr.spans[1][3] == 0 and tr.spans[0][3] is None
    assert tr.spans[0][1] <= tr.spans[1][1] <= tr.spans[1][2] <= tr.spans[0][2]
    assert list(by_case(tr.spans, "inner")) == ["x"]
    off = Tracer(False)
    with off.span("outer"):
        pass
    assert off.spans == []


def test_speed_clock_scales_each_segment_and_skips_calibrations(monkeypatch):
    t_now = [0.0]
    calibrations = iter([0.030, 0.010])

    def fake_calibrate():
        t_now[0] += 0.5  # calibrating takes time that no timer counts
        return next(calibrations)

    monkeypatch.setattr(tracing, "now", lambda: t_now[0])
    monkeypatch.setattr(tracing, "calibrate", fake_calibrate)
    ref = tracing.REFERENCE_S
    clock = tracing.SpeedClock(0.0, ref)
    t_now[0] = 1.0
    timer = clock.timer()
    t_now[0] = 2.0
    clock.split()  # segment 0..2 at factor ref / mean(ref, 0.030); resumes at 2.5
    t_now[0] = 3.5
    timer.stop()
    t_now[0] = 4.5
    total = clock.split()  # segment 2.5..4.5 at factor ref / mean(0.030, 0.010)
    f1, f2 = ref / ((ref + 0.030) / 2), ref / ((0.030 + 0.010) / 2)
    assert timer.pair() == pytest.approx([2.0, 1.0 * f1 + 1.0 * f2])
    assert total == pytest.approx([4.0, 2.0 * f1 + 2.0 * f2])
    assert clock.factor() == pytest.approx(total[1] / total[0])


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([float(i) for i in range(99)], 90) is None
    p90 = percentile([float(i) for i in range(100)], 90)
    assert p90 is not None and 88.0 <= p90 <= 90.0
    assert percentile([1.0] * 19, 50) is None
    assert percentile([1.0] * 20, 50) == 1.0


def test_balanced_median_ignores_the_mix_of_cases():
    even = {"a": [1.0] * 10, "b": [3.0] * 10}
    skewed = {"a": [1.0] * 90, "b": [3.0] * 10}
    assert balanced_median(even) == balanced_median(skewed) == 2.0


# ---------------------------------------------------------- public API only


def exported_names() -> set[str]:
    """Names bound by miint/__init__.py, read without importing it."""
    tree = ast.parse((ROOT / "src" / "miint" / "__init__.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def violations(source: str, exported: set[str]) -> list[str]:
    """Uses of miint beyond its exported names and checks.run_suite, plus
    any private name, cache clearing or a `threads` argument."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [f"import {a.name}" for a in node.names
                    if a.name.startswith("miint") and a.name not in ("miint", "miint.checks")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("miint"):
            allowed = {"miint": exported, "miint.checks": ALLOWED_CHECKS}.get(node.module, set())
            out += [f"from {node.module} import {a.name}" for a in node.names if a.name not in allowed]
        elif isinstance(node, ast.Attribute):
            if node.attr in ("cache_clear", "cache_parameters"):
                out.append(f".{node.attr}")
            base = node.value
            if isinstance(base, ast.Name) and base.id == "miint":
                if node.attr != "checks" and (node.attr not in exported or node.attr.startswith("_")):
                    out.append(f"miint.{node.attr}")
            elif (isinstance(base, ast.Attribute) and base.attr == "checks"
                  and isinstance(base.value, ast.Name) and base.value.id == "miint"
                  and node.attr not in ALLOWED_CHECKS):
                out.append(f"miint.checks.{node.attr}")
        elif isinstance(node, ast.keyword) and node.arg == "threads":
            out.append("threads=")
    return out


def benchmark_sources() -> list[Path]:
    return sorted(p for p in BENCH.rglob("*.py") if "tests" not in p.relative_to(BENCH).parts)


def test_scanner_catches_private_and_internal_use():
    exported = exported_names()
    bad = (
        "import miint\n"
        "import miint.raseries\n"
        "from miint.raseries import _period_table\n"
        "from miint.checks import SUITES\n"
        "miint.raseries._coset_data(40, 400)\n"
        "miint._private\n"
        "miint.checks.SUITES\n"
        "miint.phi.cache_clear()\n"
        "miint.psi_series(1, 2, threads=2)\n"
    )
    assert sorted(violations(bad, exported)) == sorted([
        "import miint.raseries",
        "from miint.raseries import _period_table",
        "from miint.checks import SUITES",
        "miint.raseries",
        "miint._private",
        "miint.checks.SUITES",
        ".cache_clear",
        "threads=",
    ])
    good = "import miint\nimport miint.checks\nmiint.phi\nmiint.checks.run_suite('vvdim')\n"
    assert violations(good, exported) == []


def test_benchmark_uses_only_public_miint_api():
    exported = exported_names()
    sources = benchmark_sources()
    assert any(p.name == "worker.py" for p in sources)
    found = {str(p.relative_to(BENCH)): violations(p.read_text(), exported) for p in sources}
    assert not any(found.values()), found
