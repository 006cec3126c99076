"""The point cache of the coset series (`raseries._point_value`): a hit is
bitwise a fresh call, a point is keyed by its bits, a call that raises
caches nothing, and no caller can write into it."""

import math
import struct
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from miint import qforms as qf
from miint import raseries as ra
from miint.errors import ConvergenceError, PrecisionError
from miint.group import BiWeight, binomial_matrix

DELTA = qf.delta_q(120)
T40 = ra.TruncationParams()
W = BiWeight(11, 9)  # r != s: complex weights
CACHE = ra._point_value

# each public series at a point, and its private sum afresh (its miss
# path); a series with weights takes them as w, and the Poincare series and
# G, whose weights are fixed, ignore it
_SERIES = {
    "eisenstein_rs": (
        lambda z, w=W: ra.eisenstein_rs(w, z, T40),
        lambda z, w=W: ra._eisenstein_sum(T40, z, w),
    ),
    "poincare": (
        lambda z, w=W: ra.poincare(1, 12, z, T40),
        lambda z, w=W: ra._poincare_sum(T40, z, 1, 12),
    ),
    "poincare0": (
        lambda z, w=W: ra.poincare(0, 12, z, T40),
        lambda z, w=W: ra._poincare_sum(T40, z, 0, 12),
    ),
    **{
        f"{name}{sign}": (
            lambda z, w=W, series=series, sign=sign: series(DELTA, w, sign, z, T40),
            lambda z, w=W, fresh=fresh, sign=sign: fresh(T40, z, DELTA, w, sign == "-"),
        )
        for name, series, fresh in (
            ("psi_series", ra.psi_series, ra._psi_sum),
            ("phi", ra.phi, ra._phi_sum),
        )
        for sign in "+-"
    },
    **{
        f"second_order_G{sign}": (
            lambda z, w=W, sign=sign: ra.second_order_G(1, DELTA, 16, z, T40, sign),
            lambda z, w=W, sign=sign: ra._second_order_sum(T40, z, 1, DELTA, 16, sign == "-"),
        )
        for sign in "+-"
    },
}
_WEIGHTED = ("eisenstein_rs", "psi_series+", "psi_series-", "phi+", "phi-")


def _bits(value, tail):
    return np.asarray(value, dtype=np.complex128).tobytes(), tail


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


def _record_requests(monkeypatch) -> list:
    """Every request (series, t, key, *args) made of the point cache from
    now on, in order; the cache still answers each."""
    requests = []
    monkeypatch.setattr(ra, "_point_value", lambda *args: requests.append(args) or CACHE(*args))
    return requests


def _entries_by_function(requests) -> dict:
    """The number of distinct entries that `requests` asks for, per cached
    function: the series sums, the closed form's '+' array, and the slash
    matrices of `coeff_decompose`."""
    return dict(Counter(series.__name__ for series, *_ in set(requests)))


def test_signed_zeros_of_x_are_separate_entries(monkeypatch):
    requests = _record_requests(monkeypatch)
    for z in (complex(0.0, 1.3), complex(-0.0, 1.3)):
        size = CACHE.cache_info().currsize
        ra.phi(DELTA, W, "+", z, T40)
        assert CACHE.cache_info().currsize == size + 1
    # the closed form's keys are bits too: its '+' array and the E it reads,
    # 2 series entries, and the slash matrix that decomposes its boundary term
    for z in (complex(0.0, 1.3), complex(-0.0, 1.3)):
        size = CACHE.cache_info().currsize
        requests.clear()
        ra.closed_form_phi(DELTA, W, "+", z, T40)
        assert CACHE.cache_info().currsize == size + 3
        assert _entries_by_function(requests) == {
            "_closed_form_plus": 1,
            "_eisenstein_sum": 1,
            "_slash_entry": 1,
        }


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
        # a decomposition: the set-up caches the slash matrices at 2j and
        # 0.3 + 2j for k = 12, which a float k of the same value would hash
        # onto, at 2j itself and at -0.3 + 2j through the mirror
        (lambda: ra.coeff_decompose(np.ones(11), -1j, 12), ValueError),
        (lambda: ra.coeff_decompose(np.ones(10), 2j, 12), ValueError),
        (lambda: ra.coeff_decompose(np.ones(11), 2j, 12.0), ValueError),
        (lambda: ra.coeff_decompose(np.ones(11), -0.3 + 2j, 12.0), ValueError),
        (lambda: ra.coeff_decompose(np.ones(1), 2j, True), ValueError),
        # a miss whose powers overflow float64
        (lambda: ra.coeff_decompose(np.ones(11), 1e300j, 12), PrecisionError),
    ],
)
def test_a_call_that_raises_caches_nothing(call, error):
    # with the valid points of each series cached first, so a lookup that
    # came before the validation would find them
    for series, _ in _SERIES.values():
        series(2j)
    ra.closed_form_phi(DELTA, W, "+", 2j, T40)
    ra.coeff_decompose(np.ones(11), 0.3 + 2j, 12)
    size = CACHE.cache_info().currsize
    for _ in range(2):
        with pytest.raises(error):
            call()
        assert CACHE.cache_info().currsize == size


def test_writing_into_a_returned_value_leaves_the_cache_unchanged():
    # a returned array is a read-only view, of the cached array or, left of
    # the axis, of its image: a write raises, and the next hit keeps its bits
    for name in ("psi_series-", "phi+", "second_order_G+"):
        series, _ = _SERIES[name]
        for z in (0.3 + 1.4j, -0.3 + 1.4j):
            first = series(z)
            want = _bits(first.value, first.tail_estimate)
            with pytest.raises(ValueError):
                first.value[:] = 0.0
            again = series(z)
            assert _bits(again.value, again.tail_estimate) == want
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
    # 65 points (the probe at x = 1/2 and the 64 nodes), of which the 32 at
    # x < 0 read their mirrors: 33 canonical points, E and psi at each
    assert len(calls) == 66
    assert all(z.real >= 0 for z in calls)
    CACHE.cache_clear()
    assert ra.fourier_coefficient(fn, 2, 1.25, M=64) == modes[1]
    assert len(calls) == 132


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


# the reflection: at x < 0 (not -0.0) every public coset series reads the
# entry at -conj z, whose coset sums are those at z with each coset and its
# mirror swapped: E and P_n as their conjugates, and psi, phi and G as
# -conj(.)(-X)
_MIRROR_SIGNS = (-1.0) ** np.arange(1, DELTA.k)


def _public(name, w, z):
    """The public value of `name` at z as an array or a complex128, and its tail."""
    sv = _SERIES[name][0](z, w)
    return (sv.value if np.ndim(sv.value) else np.complex128(sv.value)), sv.tail_estimate


def _image_of_mirror(name, w, z):
    """The value and tail of `name` at z read from the public value at
    -conj z: a scalar's conjugate, an array's M conj."""
    value, tail = _public(name, w, complex(-z.real, z.imag))
    return (np.conj(value) if np.ndim(value) == 0 else _MIRROR_SIGNS * value.conj()), tail


@pytest.mark.parametrize("x", [-0.5, -0.13, -1.2])
@pytest.mark.parametrize(
    "name, w",
    [(name, w) for name in _WEIGHTED for w in (BiWeight(9, 11), BiWeight(10, 10), W)]
    + [(name, W) for name in _SERIES if name not in _WEIGHTED],
    ids=str,
)
def test_a_point_left_of_the_axis_is_the_image_of_its_mirror(name, w, x):
    z = complex(x, 1.3)
    value, tail = _public(name, w, z)
    assert _bits(value, tail) == _bits(*_image_of_mirror(name, w, z))
    fresh, fresh_tail = _SERIES[name][1](z, w)
    assert tail == fresh_tail
    assert np.abs(value - fresh).max() <= tail


def test_x_minus_zero_is_not_reflected(monkeypatch):
    calls, coset_sum = [], ra._coset_sum

    def counted(*args, **kwargs):
        calls.append(args[1])
        return coset_sum(*args, **kwargs)

    monkeypatch.setattr(ra, "_coset_sum", counted)
    CACHE.cache_clear()
    z = complex(-0.0, 1.3)
    for name, (_, fresh) in _SERIES.items():
        assert _bits(*_public(name, W, z)) == _bits(*fresh(z))
    assert calls and all(math.copysign(1.0, z.real) == -1.0 for z in calls)


@pytest.mark.parametrize("name", _SERIES)
def test_a_reflected_point_reads_the_same_bits_in_any_order_and_thread(name):
    z, mirror = complex(-0.13, 1.3), complex(0.13, 1.3)

    def in_thread(*points):
        out = []
        thread = threading.Thread(target=lambda: out.extend(_public(name, W, p) for p in points))
        thread.start()
        thread.join(timeout=60)
        return out[-1]

    runs = []
    for order in ((z,), (mirror, z)):
        for run in (lambda: [_public(name, W, p) for p in order][-1], lambda: in_thread(*order)):
            CACHE.cache_clear()
            runs.append(_bits(*run()))
    CACHE.cache_clear()
    in_thread(mirror)  # the canonical point summed in another thread
    runs.append(_bits(*_public(name, W, z)))
    assert all(run == runs[0] for run in runs)


def test_cache_clear_drops_the_reflected_and_canonical_entries():
    z = complex(-0.13, 1.3)
    CACHE.cache_clear()
    ra.phi(DELTA, W, "+", z, T40)  # the entry at -conj z only
    assert CACHE.cache_info().currsize == 1
    ra.psi_series(DELTA, W, "+", z, T40)  # its own entry at -conj z
    assert CACHE.cache_info().currsize == 2
    CACHE.cache_clear()
    assert CACHE.cache_info().currsize == 0
    ra.phi(DELTA, W, "+", z, T40)
    assert CACHE.cache_info().misses == 1


def test_the_series_suites_sum_each_requested_entry_once(monkeypatch):
    # from a cleared cache, the eight suites that read coset series ask the
    # cache for 259 distinct (series, t, key, args) series entries and 203
    # slash matrices of `coeff_decompose`, 105 built by `binomial_matrix`
    # and 98 left of the axis mirrored from them, many of them more than
    # once, and each is a miss once: nothing is evicted and summed or built
    # again, so no memo in front of the cache would save a sum
    from miint import checks

    requests = _record_requests(monkeypatch)
    built = []
    monkeypatch.setattr(ra, "binomial_matrix", lambda *a: built.append(a) or binomial_matrix(*a))
    suites = ("dualroute", "invariance", "keypr", "coeffs")
    suites += ("equivariance", "psibar", "secondorder", "fourier")
    for name in suites:
        assert all(r.passed for r in checks.SUITES[name]())
    counts = _entries_by_function(requests)
    matrices = counts.pop("_slash_entry")
    assert (sum(counts.values()), matrices) == (259, 203)
    keys = [key for series, _, key, *_ in set(requests) if series is ra._slash_entry]
    left = [key for key in keys if struct.unpack("<2d", key)[0] < 0]
    slashes = [args for args in built if args[2:4] == (-1, 1)]  # not `coeff_basis`'s
    assert (len(slashes), len(left)) == (105, 98)
    assert CACHE.cache_info().misses == len(set(requests)) == 259 + 203
    assert len(requests) > 259 + 203


# the slash matrix of `coeff_decompose` depends on (z, k) only: the point
# cache holds it per point, and at x < 0 (not -0.0) its entry is built once
# from the entry at -conj z, B(-conj z) = (-1)^j conj B(z) on column j, + 0.0
_SWEEP_XS = [float(x) for x in (2.0 * np.arange(64) - 64) / 128] + [0.5]


def _slash_points(seed):
    rng = np.random.default_rng(seed)
    xs = _SWEEP_XS + rng.uniform(-3.0, 3.0, 24).tolist() + [0.0, -0.0]
    return [complex(x, y) for x, y in zip(xs, rng.uniform(0.4, 3.0, len(xs)))]


def _direct_slash(z, m):
    return binomial_matrix(-z.conjugate(), z, -1, 1, m)


@pytest.mark.parametrize("m", [0, 1, 2, 10, 14, 18, 22])
def test_a_mirrored_slash_matrix_is_bitwise_a_direct_build(m):
    # as uint64 bit patterns, so that the signs of zeros count: without the
    # + 0.0, a mirrored matrix holds -0.0 where a direct build holds +0.0
    for z in _slash_points(m):
        for u in (z, complex(-z.real, z.imag)):  # either one built first
            got = CACHE(ra._slash_entry, None, ra._point_key(u), m).view(np.uint64)
            assert got.tolist() == _direct_slash(u, m).view(np.uint64).tolist()


@pytest.mark.parametrize("k", [2, 12, 16])
def test_coeff_decompose_is_bitwise_the_direct_product(k):
    rng = np.random.default_rng(k)
    m = k - 2
    for z in _slash_points(100 + k):
        P = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
        want = _direct_slash(z, m) @ P * (z - z.conjugate()) ** -m
        for _ in range(2):  # the miss, then the hit
            assert ra.coeff_decompose(P, z, k).view(np.uint64).tolist() == (
                want.view(np.uint64).tolist()
            )


def test_a_phi_coefficient_fourier_pair_builds_each_matrix_once(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return binomial_matrix(*args)

    monkeypatch.setattr(ra, "binomial_matrix", counted)

    def fn(z):
        return complex(ra.coeff_decompose(ra.phi(DELTA, W, "+", z, T40).value, z, DELTA.k)[4])

    modes = [ra.fourier_coefficient(fn, l, 1.25, M=64) for l in (1, 2)]
    # 130 decompositions at 65 points: the 33 with x >= 0 (the probe at
    # x = 1/2 among them) build their matrices, the 32 others mirror them
    # into entries of their own, and the second mode reads them all
    assert len(built) == 33
    assert all(args[1].real >= 0 for args in built)  # built at z = args[1]
    misses = CACHE.cache_info().misses
    assert [ra.fourier_coefficient(fn, l, 1.25, M=64) for l in (1, 2)] == modes
    assert (len(built), CACHE.cache_info().misses) == (33, misses)
    # a decomposition left of the axis is the product of its own entry
    z = complex(-0.25, 1.25)
    P = ra.phi(DELTA, W, "+", z, T40).value
    B = CACHE(ra._slash_entry, None, ra._point_key(z), DELTA.k - 2)
    want = B @ P * (z - z.conjugate()) ** (2 - DELTA.k)
    assert ra.coeff_decompose(P, z, DELTA.k).tobytes() == want.tobytes()
    assert CACHE.cache_info().misses == misses


def test_the_cached_slash_matrix_is_read_only():
    # a decomposition at either sign of x caches its own matrix, and neither
    # can be written
    for z in (0.3 + 1.4j, -0.3 + 1.4j):
        ra.coeff_decompose(np.ones(15), z, 16)
        misses = CACHE.cache_info().misses
        cached = CACHE(ra._slash_entry, None, ra._point_key(z), 14)
        assert CACHE.cache_info().misses == misses
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
