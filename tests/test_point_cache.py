"""The point cache of the coset series (`raseries._point_value`): a hit is
bitwise a fresh call, a point is keyed by its bits, a call that raises
caches nothing, and no caller can write into it."""

import math
import sys
import threading

import numpy as np
import pytest

from miint import qforms as qf
from miint import raseries as ra
from miint.errors import ConvergenceError, PrecisionError
from miint.group import BiWeight

DELTA = qf.delta_q(120)
T40 = ra.TruncationParams()
W = BiWeight(11, 9)  # r != s: complex weights
CACHE = ra._point_value

# each public series at a point, and its private sum afresh (its miss path)
_SERIES = {
    "eisenstein_rs": (
        lambda z: ra.eisenstein_rs(W, z, T40),
        lambda z: ra._eisenstein_sum(T40, z, W),
    ),
    "poincare": (
        lambda z: ra.poincare(1, 12, z, T40),
        lambda z: ra._poincare_sum(T40, z, 1, 12),
    ),
    **{
        f"{name}{sign}": (
            lambda z, series=series, sign=sign: series(DELTA, W, sign, z, T40),
            lambda z, fresh=fresh, sign=sign: fresh(T40, z, DELTA, W, sign == "-"),
        )
        for name, series, fresh in (
            ("psi_series", ra.psi_series, ra._psi_sum),
            ("phi", ra.phi, ra._phi_sum),
        )
        for sign in "+-"
    },
    **{
        f"second_order_G{sign}": (
            lambda z, sign=sign: ra.second_order_G(1, DELTA, 16, z, T40, sign),
            lambda z, sign=sign: ra._second_order_sum(T40, z, 1, DELTA, 16, sign == "-"),
        )
        for sign in "+-"
    },
}


def _bits(value, tail):
    value = value.coeffs if hasattr(value, "coeffs") else np.complex128(value)
    return value.tobytes(), tail


@pytest.mark.parametrize("name", sorted(_SERIES))
def test_a_hit_is_bitwise_the_fresh_value_and_tail(name):
    series, fresh = _SERIES[name]
    for z in (0.3 + 1.4j, complex(0.0, 1.2), complex(-0.0, 1.2)):
        first = series(z)
        info = CACHE.cache_info()
        second = series(z)
        after = CACHE.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)
        want = _bits(*fresh(z))
        assert _bits(first.value, first.tail_estimate) == want
        assert _bits(second.value, second.tail_estimate) == want


def test_signed_zeros_of_x_are_separate_entries():
    for z in (complex(0.0, 1.3), complex(-0.0, 1.3)):
        size = CACHE.cache_info().currsize
        ra.phi(DELTA, W, "+", z, T40)
        assert CACHE.cache_info().currsize == size + 1
    # the closed form's keys are bits too: its '+' array and the E it reads
    for z in (complex(0.0, 1.3), complex(-0.0, 1.3)):
        size = CACHE.cache_info().currsize
        ra.closed_form_phi(DELTA, W, "+", z, T40)
        assert CACHE.cache_info().currsize == size + 2


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ra.phi(DELTA, W, "+", -1j, T40), ValueError),
        (lambda: ra.psi_series(DELTA, W, "+", complex(math.nan, 1.0), T40), ValueError),
        (lambda: ra.phi(DELTA, BiWeight(6, 6), "+", 2j, T40), ConvergenceError),
        (lambda: ra.eisenstein_rs(BiWeight(1, 1), 2j, T40), ConvergenceError),
        (lambda: ra.second_order_G(1, DELTA, 12, 2j, T40), ConvergenceError),
        (lambda: ra.poincare(1, 12, 3.0 + 2j, ra.TruncationParams(40, 100)), ValueError),
        (lambda: ra.psi_series(DELTA, W, "x", 2j, T40), ValueError),
        (lambda: ra.closed_form_phi(DELTA, W, "x", 2j, T40), ValueError),
        (lambda: ra.phi(DELTA, W, "+", 1e-3j, T40), PrecisionError),
        # a miss whose coset sum overflows float64
        (lambda: ra.eisenstein_rs(BiWeight(10, 10), 1e-160j, T40), PrecisionError),
    ],
)
def test_a_call_that_raises_caches_nothing(call, error):
    # with the valid points of each series cached first, so a lookup that
    # came before the validation would find them
    for series, _ in _SERIES.values():
        series(2j)
    ra.closed_form_phi(DELTA, W, "+", 2j, T40)
    size = CACHE.cache_info().currsize
    for _ in range(2):
        with pytest.raises(error):
            call()
        assert CACHE.cache_info().currsize == size


def test_writing_into_a_returned_value_leaves_the_cache_unchanged():
    for name in ("psi_series-", "phi+", "second_order_G+"):
        series, _ = _SERIES[name]
        first = series(0.3 + 1.4j)
        want = _bits(first.value, first.tail_estimate)
        first.value.coeffs[:] = 0.0
        again = series(0.3 + 1.4j)
        assert _bits(again.value, again.tail_estimate) == want
        assert again.value is not first.value
    for sign in "+-":
        vec = ra.closed_form_phi(DELTA, W, sign, 0.3 + 1.4j, T40)
        with pytest.raises(ValueError):
            vec[0] = 0.0


def test_the_minus_closed_form_reads_the_plus_entry_of_the_swapped_weights():
    z = 0.3 + 1.4j
    plus = ra.closed_form_phi(DELTA, W.swapped(), "+", z, T40)
    misses = CACHE.cache_info().misses
    minus = ra.closed_form_phi(DELTA, W, "-", z, T40)
    assert CACHE.cache_info().misses == misses
    assert minus.tobytes() == plus[::-1].conj().tobytes()
    assert not minus.flags.writeable


def test_the_cache_holds_at_most_its_bound():
    t = ra.TruncationParams(2, 40)  # a small rectangle: many cheap misses
    for i in range(2 * ra._POINT_CACHE):
        ra.eisenstein_rs(W, complex(i / (2 * ra._POINT_CACHE), 1.5), t)
        assert CACHE.cache_info().currsize <= ra._POINT_CACHE
    assert CACHE.cache_info().currsize == ra._POINT_CACHE


def test_a_second_fourier_mode_at_the_same_nodes_sums_no_coset(monkeypatch):
    calls = []
    coset_sum = ra._coset_sum

    def counted(*args, **kwargs):
        calls.append(args[1])
        return coset_sum(*args, **kwargs)

    monkeypatch.setattr(ra, "_coset_sum", counted)

    def fn(z):
        return complex(ra.coeff_decompose(ra.phi(DELTA, W, "+", z, T40).value, z, DELTA.k)[4])

    modes = [ra.fourier_coefficient(fn, l, 1.25, M=64) for l in (1, 2)]
    # 65 distinct points (the probe at x = 1 and the 64 nodes), E and psi at each
    assert len(calls) == 130
    CACHE.cache_clear()
    assert ra.fourier_coefficient(fn, 2, 1.25, M=64) == modes[1]
    assert len(calls) == 260


def test_threads_share_the_cache_and_read_fresh_bits():
    # three threads walk one grid of phi and psi points at once, switched
    # often, so misses race and each thread reads values another inserted:
    # every value and tail is bitwise the one summed alone
    grid = [(series, complex(x / 5, 1.3)) for x in range(5) for series in (ra.phi, ra.psi_series)]

    def alone(series, z):
        CACHE.cache_clear()
        sv = series(DELTA, W, "-", z, T40)
        return _bits(sv.value, sv.tail_estimate)

    want = [alone(series, z) for series, z in grid]
    CACHE.cache_clear()
    barrier, got = threading.Barrier(3, timeout=60), [[], [], []]

    def run(i):
        barrier.wait()
        for series, z in grid[i:] + grid[:i]:
            sv = series(DELTA, W, "-", z, T40)
            got[i].append(_bits(sv.value, sv.tail_estimate))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(3):
        assert got[i] == want[i:] + want[:i]
    assert CACHE.cache_info().currsize == len(grid)
