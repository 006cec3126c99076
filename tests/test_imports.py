"""The package's import structure: `import miint` loads the series modules
only, and binds the other modules' names on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import miint

LAZY = ("maass", "iterated", "vvdim")


def _loaded_by(module: str) -> set[str]:
    """The miint modules that importing `module` loads in a fresh interpreter
    that finds the same miint as this one."""
    path = [str(Path(miint.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith('miint.')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_import_miint_loads_only_the_series_modules():
    loaded = _loaded_by("miint")
    assert not loaded & {f"miint.{m}" for m in (*LAZY, "checks", "cli")}
    assert {"miint.group", "miint.qforms", "miint.periods", "miint.raseries"} <= loaded


def test_the_cli_loads_the_suites_only_to_run_them():
    assert not _loaded_by("miint.cli") & {f"miint.{m}" for m in (*LAZY, "checks")}


def test_lazy_names_are_the_submodules_own_objects():
    for module, names in miint._LAZY.items():
        sub = getattr(miint, module)
        assert sub is sys.modules[f"miint.{module}"]
        for name in names:
            assert getattr(miint, name) is getattr(sub, name)
    assert miint.iterated_F is miint.iterated.iterated_F


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        miint.no_such_name
