"""Deterministic compensated summation.

All coset sums in this package reduce term arrays in a fixed order
(ascending c, then ascending |d|, then sign) through `math.fsum`, which is
exactly rounded and therefore reproducible across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np


def fsum_real(values) -> float:
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)


def fsum_complex(values: np.ndarray) -> complex:
    """Exactly-rounded sum of a complex array (real and imaginary parts)."""
    arr = np.asarray(values, dtype=np.complex128)
    return complex(fsum_real(arr.real), fsum_real(arr.imag))
