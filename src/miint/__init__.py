"""miint: modular iterated integrals toolkit for SL2(Z).

Exact q-expansions, real-analytic Eisenstein series, Eichler integrals and
period polynomials, additively twisted L-values, second-order series and
their invariant coefficient vectors, iterated Eichler integrals up to depth
three, Maass-operator identity checks, and exact dimension formulas for the
associated vector-valued spaces.
"""

import importlib

from .errors import ConvergenceError, PrecisionError
from .group import (
    BiWeight,
    GroupElement,
    IDENTITY,
    S,
    T,
    T_pow,
    act_poly,
    act_tensor,
    enumerate_cosets,
    mobius,
    word_decompose,
)
from .qforms import QExpansion, cusp_basis, delta_q, eisenstein_q, eval_form
from .periods import (
    eichler_F,
    period_from_Lvalues,
    period_poly,
    period_poly_base,
    period_polys,
    twisted_L,
)
from .raseries import (
    SeriesValue,
    TruncationParams,
    coeff_decompose,
    closed_form_phi,
    closed_form_phi_j,
    eisenstein_rs,
    fourier_coefficient,
    phi,
    poincare,
    psi_series,
    second_order_G,
)

__version__ = "0.1.0"

#: submodules that no series value reads, and their names: bound on first use
_LAZY = {
    "maass": ("maass_d", "maass_dbar"),
    "iterated": ("IteratedIntegrand", "iterated_F", "order_check"),
    "vvdim": ("dim_M2c", "dim_Mk_rho", "rho_matrices", "trace_ST"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name: str):  # PEP 562: only a name not yet bound comes here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
    value = globals()[name] = module if name in _LAZY else getattr(module, name)
    return value
