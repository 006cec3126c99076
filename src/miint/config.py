"""Run configuration: defaults, key-value config files, CLI override order.

A config file is plain KEY=VALUE lines ('#' comments allowed); its keys are
the upper-cased field names of `RunConfig`.  Values given on the command line
always win.  The effective configuration is embedded in every output object
so a run can be reproduced exactly.  The numerical defaults are not repeated
here: C and D come from `TruncationParams`, N from `qforms.DEFAULT_N` and M
from `raseries.DEFAULT_M`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .qforms import DEFAULT_N
from .raseries import DEFAULT_M, TruncationParams

ENV_CONFIG = "MIINT_CONFIG"
#: output formats, for `--format` and the FORMAT key alike
FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    C: int = TruncationParams.C
    D: int = TruncationParams.D
    N: int = DEFAULT_N
    M: int = DEFAULT_M
    form: str = "delta"
    r: int = 10
    s: int = 10
    z_re: float = 0.0
    z_im: float = 2.0
    format: str = "json"

    @property
    def z(self) -> complex:
        return complex(self.z_re, self.z_im)

    def apply_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected KEY=VALUE")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.upper()
                if key not in _KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key}")
                name, typ = _KEYS[key]
                if name == "format" and val not in FORMATS:
                    raise ValueError(f"{path}:{lineno}: FORMAT must be one of {FORMATS}, got {val!r}")
                setattr(self, name, typ(val))

    def apply_overrides(self, ns) -> None:
        """Copy explicitly-set CLI attributes (flags win over file values);
        `--z RE IM` sets z_re and z_im."""
        for f in fields(self):
            cli_val = getattr(ns, f.name, None)
            if cli_val is not None:
                setattr(self, f.name, cli_val)
        if getattr(ns, "z", None) is not None:
            self.z_re, self.z_im = ns.z


#: config-file key -> (RunConfig attribute, value type)
_KEYS = {f.name.upper(): (f.name, type(f.default)) for f in fields(RunConfig)}


def load_config(path: str | None, ns=None) -> RunConfig:
    """Defaults, then env-var config path, then explicit path, then flags.
    A named file that cannot be read raises OSError, from either source."""
    cfg = RunConfig()
    env_path = os.environ.get(ENV_CONFIG)
    if env_path:
        cfg.apply_file(env_path)
    if path:
        cfg.apply_file(path)
    if ns is not None:
        cfg.apply_overrides(ns)
    return cfg
