"""The point cache of the coset series (`raseries._point_value`): a hit is
bitwise a fresh call, a point is keyed by its bits, a call that raises
caches nothing, and no caller can write into it.  An entry of a reflected
kind is keyed at x >= 0 or -0.0 and holds its public value at z and at
-conj z, so a warm read at either sign of x is one lookup."""

import dataclasses
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
    function: the series sums (a `_series_entry` named by the sum it
    holds), the closed form's '+' array, the slash matrices of
    `coeff_decompose` and the phi(j) of `phi_coefficients`."""
    return dict(
        Counter(
            (args[0] if kind is ra._series_entry else kind).__name__
            for kind, _, _, *args in set(requests)
        )
    )


def _coefficient_entries(requests) -> dict:
    """The number of distinct phi(j) or psi(j) entries of `phi_coefficients`
    that `requests` asks for, per series that they decompose."""
    entries = (args for series, _, _, *args in set(requests) if series is ra._coeff_sum)
    return dict(Counter(args[0].__name__ for args in entries))


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
        (lambda: ra.phi_coefficients(DELTA, W, "+", 1e-3j, T40), PrecisionError),
        (lambda: ra.phi_coefficients(DELTA, W, "x", 2j, T40, psi=True), ValueError),
        (lambda: ra.phi_coefficients(DELTA, BiWeight(6, 6), "+", 2j, T40, psi=True), ConvergenceError),
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
    # the '+' entry of the swapped weights carries the '-' array, built once
    z = 0.3 + 1.4j
    plus = ra.closed_form_phi(DELTA, W.swapped(), "+", z, T40)
    size, misses = CACHE.cache_info().currsize, CACHE.cache_info().misses
    minus = ra.closed_form_phi(DELTA, W, "-", z, T40)
    assert (CACHE.cache_info().currsize, CACHE.cache_info().misses) == (size, misses)
    assert minus.tobytes() == plus[::-1].conj().tobytes()
    assert not minus.flags.writeable
    entry = CACHE(ra._closed_form_plus, T40, ra._point_key(z), DELTA, W.swapped())
    assert entry[0] is plus and entry[1] is minus
    assert ra.closed_form_phi(DELTA, W, "-", z, T40) is minus


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


# every reflected kind read in public: each coset series, phi(j) and psi(j),
# and the slash matrix of `coeff_decompose` (its product is a fresh array)
_REFLECTED = {
    **{name: series for name, (series, _) in _SERIES.items()},
    **{
        f"phi_coefficients{sign}-{'psi' if psi else 'phi'}": (
            lambda z, sign=sign, psi=psi: ra.phi_coefficients(DELTA, W, sign, z, T40, psi=psi)
        )
        for sign in "+-"
        for psi in (False, True)
    },
    "slash matrix": lambda z: ra._reflected(ra._slash_entry, None, z, DELTA.k - 2),
}


@pytest.mark.parametrize("name", _REFLECTED)
def test_a_warm_read_at_either_sign_of_x_is_the_object_of_the_first_read(name, monkeypatch):
    # the first read at z or at -conj z builds the one entry at x >= 0, and
    # every later read at either point is a hit that adds no entry and hands
    # out the object of the first read
    requests = _record_requests(monkeypatch)
    read, right, left = _REFLECTED[name], complex(0.3, 1.4), complex(-0.3, 1.4)
    for order in ((left, right), (right, left)):
        CACHE.cache_clear()
        first = read(order[0])
        size = CACHE.cache_info().currsize
        firsts = (first, read(order[1]))
        assert CACHE.cache_info().currsize == size
        misses = CACHE.cache_info().misses
        for _ in range(2):
            for z, value in zip(order, firsts):
                assert read(z) is value
        assert (CACHE.cache_info().currsize, CACHE.cache_info().misses) == (size, misses)
    assert all(struct.unpack("<2d", key)[0] >= 0 for _, _, key, *_ in requests)


# the mirror half of an entry from its half at z: E and P_n conj, psi, phi
# and G M conj, phi(j) and psi(j) -conj (the same j)
_SCALAR = ("eisenstein_rs", "poincare", "poincare0")
_MIRROR_OF = {
    **{name: np.conj for name in _SCALAR},
    **{name: lambda v: _MIRROR_SIGNS * v.conj() for name in _SERIES if name not in _SCALAR},
    **{name: lambda v: -v.conj() for name in _REFLECTED if name.startswith("phi_coefficients")},
}


@pytest.mark.parametrize("name", _MIRROR_OF)
def test_each_mirror_half_is_read_only_and_bitwise_the_image_of_its_half_at_z(name, monkeypatch):
    read, requests = _REFLECTED[name], _record_requests(monkeypatch)
    for z in (complex(0.3, 1.4), complex(0.0, 1.4), complex(-0.0, 1.4)):
        requests.clear()
        value = read(z)
        at_z, mirror = CACHE(*requests[0])  # the read's own entry, asked for first
        assert value is at_z
        want = _MIRROR_OF[name](at_z.value)
        assert _bits(mirror.value, mirror.tail_estimate) == _bits(want, at_z.tail_estimate)
        if z.real > 0:  # at x = 0.0 the mirror, -0.0, is an entry of its own
            assert read(complex(-z.real, z.imag)) is mirror
        for half in (at_z, mirror):
            if np.ndim(half.value):
                assert not half.value.flags.writeable
                with pytest.raises(ValueError):
                    half.value[0] = 0.0


def test_a_series_value_rejects_attribute_assignment():
    # one SeriesValue is handed to every reader of its point
    for sv in (ra.phi(DELTA, W, "+", 0.3 + 1.4j, T40), ra.eisenstein_rs(W, -0.3 + 1.4j, T40)):
        for name in ("value", "tail_estimate", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sv, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del sv.value


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
    # cache for 259 distinct (series, t, key, args) series entries, 204
    # phi(j) and psi(j) entries of `phi_coefficients` (106 and 98), and 105
    # slash matrices, all at x >= 0 and built by `binomial_matrix`: every
    # phi(j) left of the axis is the image of its mirror's entry, which needs
    # no matrix at z.  Many are asked for more than once, and each is a miss
    # once: the 568 entries pass the bound of 512, but no entry is evicted
    # before its last request, so no memo in front of the cache would save
    # a sum
    from miint import checks

    requests = _record_requests(monkeypatch)
    built = []
    monkeypatch.setattr(ra, "binomial_matrix", lambda *a: built.append(a) or binomial_matrix(*a))
    suites = ("dualroute", "invariance", "keypr", "coeffs")
    suites += ("equivariance", "psibar", "secondorder", "fourier")
    for name in suites:
        assert all(r.passed for r in checks.SUITES[name]())
    counts = _entries_by_function(requests)
    matrices, coefficients = counts.pop("_slash_entry"), counts.pop("_coeff_sum")
    assert (sum(counts.values()), coefficients, matrices) == (259, 204, 105)
    assert _coefficient_entries(requests) == {"_phi_sum": 106, "_psi_sum": 98}
    keys = [key for series, _, key, *_ in set(requests) if series is ra._slash_entry]
    left = [key for key in keys if struct.unpack("<2d", key)[0] < 0]
    slashes = [args for args in built if args[2:4] == (-1, 1)]  # not `coeff_basis`'s
    assert (len(slashes), len(left)) == (105, 0)
    assert CACHE.cache_info().misses == len(set(requests)) == 259 + 204 + 105
    assert len(requests) > 259 + 204 + 105


# the slash matrix of `coeff_decompose` depends on (z, k) only: the point
# cache holds it per point with x >= 0 (or -0.0), beside its mirror built
# once from it, B(-conj z) = (-1)^j conj B(z) on column j, + 0.0
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
        for u in (z, complex(-z.real, z.imag)):  # either one read first
            got = ra._reflected(ra._slash_entry, None, u, m).view(np.uint64)
            assert got.tolist() == _direct_slash(u, m).view(np.uint64).tolist()
        # both halves of the entry at x >= 0 (or -0.0), the mirror at -conj z
        key = z if not z.real < 0 else complex(-z.real, z.imag)
        entry = CACHE(ra._slash_entry, None, ra._point_key(key), m)
        for half, u in zip(entry, (key, complex(-key.real, key.imag))):
            assert half.view(np.uint64).tolist() == _direct_slash(u, m).view(np.uint64).tolist()


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

    requests = _record_requests(monkeypatch)
    modes = [ra.fourier_coefficient(fn, l, 1.25, M=64) for l in (1, 2)]
    # 130 decompositions at 65 points: the 33 with x >= 0 (the probe at
    # x = 1/2 among them) build their matrices beside their mirrors, the 32
    # others read those mirrors, and the second mode reads them all: 33
    # series entries and 33 matrix entries, none keyed at x < 0
    assert len(built) == 33
    assert all(args[1].real >= 0 for args in built)  # built at z = args[1]
    assert _entries_by_function(requests) == {"_phi_sum": 33, "_slash_entry": 33}
    assert CACHE.cache_info().currsize == 66
    assert all(struct.unpack("<2d", key)[0] >= 0 for _, _, key, *_ in requests)
    misses = CACHE.cache_info().misses
    assert [ra.fourier_coefficient(fn, l, 1.25, M=64) for l in (1, 2)] == modes
    assert (len(built), CACHE.cache_info().misses) == (33, misses)
    # a decomposition left of the axis is the product of the mirror half of
    # the entry at -conj z
    z = complex(-0.25, 1.25)
    P = ra.phi(DELTA, W, "+", z, T40).value
    B = CACHE(ra._slash_entry, None, ra._point_key(-z.conjugate()), DELTA.k - 2)[1]
    want = B @ P * (z - z.conjugate()) ** (2 - DELTA.k)
    assert ra.coeff_decompose(P, z, DELTA.k).tobytes() == want.tobytes()
    assert CACHE.cache_info().misses == misses


def test_the_cached_slash_matrix_is_read_only():
    # a decomposition at either sign of x reads one entry at x >= 0, and
    # neither of its matrices can be written
    for z in (0.3 + 1.4j, -0.3 + 1.4j):
        ra.coeff_decompose(np.ones(15), z, 16)
        misses = CACHE.cache_info().misses
        cached = CACHE(ra._slash_entry, None, ra._point_key(0.3 + 1.4j), 14)
        assert CACHE.cache_info().misses == misses
        for B in cached:
            with pytest.raises(ValueError):
                B[0, 0] = 0.0
    assert CACHE.cache_info().currsize == 1


# `phi_coefficients`: phi(j) or psi(j) at a point as an entry of its own,
# bitwise the decomposition of the series value at x >= 0 and x = -0.0, and
# at x < 0 (not -0.0) the image -conj of the entry at -conj z, the same j
S16 = qf.cusp_basis(16)[0]
_COEFF_FORMS = {
    "delta": (DELTA, (W, BiWeight(10, 10))),
    "s16": (S16, (BiWeight(13, 11), BiWeight(9, 11))),
}
_COEFF_CASES = {
    f"{name}-({w.r},{w.s}){sign}-{'psi' if psi else 'phi'}": (form, w, sign, psi)
    for name, (form, weights) in _COEFF_FORMS.items()
    for w in weights
    for sign in "+-"
    for psi in (False, True)
}


def _uint64(values) -> list:
    return np.asarray(values).view(np.uint64).tolist()


@pytest.mark.parametrize("form, w, sign, psi", _COEFF_CASES.values(), ids=_COEFF_CASES)
def test_phi_coefficients_are_the_decomposition_and_left_of_the_axis_its_image(form, w, sign, psi):
    series = ra.psi_series if psi else ra.phi
    rng = np.random.default_rng(form.k + w.r + 2 * psi + (sign == "-"))
    for x, y in zip(rng.uniform(0.05, 1.4, 5), rng.uniform(0.6, 2.0, 5)):
        for z in (complex(x, y), complex(0.0, y), complex(-0.0, y)):
            got = ra.phi_coefficients(form, w, sign, z, T40, psi=psi)
            want = ra.coeff_decompose(series(form, w, sign, z, T40).value, z, form.k)
            assert _uint64(got.value) == _uint64(want)
        right = ra.phi_coefficients(form, w, sign, complex(x, y), T40, psi=psi)
        left = ra.phi_coefficients(form, w, sign, complex(-x, y), T40, psi=psi)
        assert _uint64(left.value) == _uint64(-right.value.conj())
        assert left.tail_estimate == right.tail_estimate
        # and the same values as the decomposition of the series' own image
        z = complex(-x, y)
        assert np.array_equal(left.value, ra.coeff_decompose(series(form, w, sign, z, T40).value, z, form.k))


def test_a_fourier_pair_of_phi_coefficients_sums_33_entries_and_reads_the_rest_as_images(monkeypatch):
    # 65 points (the probe at x = 1/2 and the 64 nodes) per series: the 33
    # with x >= 0 are entries of their own, each reading the series and the
    # slash matrix at its point, and the 32 others read their mirrors'
    # entries; phi(j) and psi(j) share the matrices, and the second mode
    # of each pair reads every entry again and misses none
    requests = _record_requests(monkeypatch)
    fns = [
        lambda z, psi=psi: complex(ra.phi_coefficients(DELTA, W, "+", z, T40, psi=psi).value[4])
        for psi in (False, True)
    ]
    modes = [ra.fourier_coefficient(fn, l, 1.25, M=64) for fn in fns for l in (1, 2)]
    assert _coefficient_entries(requests) == {"_phi_sum": 33, "_psi_sum": 33}
    assert _entries_by_function(requests) == {
        "_coeff_sum": 66,
        "_phi_sum": 33,
        "_psi_sum": 33,
        "_slash_entry": 33,
    }
    assert all(struct.unpack("<2d", key)[0] >= 0 for _, _, key, *_ in requests)
    misses = CACHE.cache_info().misses
    assert [ra.fourier_coefficient(fn, l, 1.25, M=64) for fn in fns for l in (1, 2)] == modes
    assert CACHE.cache_info().misses == misses


@pytest.mark.parametrize("psi", [False, True], ids=["phi", "psi"])
def test_a_phi_coefficient_hit_is_read_only_and_left_of_the_axis_the_image_of_its_entry(psi):
    z, mirror = complex(-0.25, 1.25), complex(0.25, 1.25)
    right = ra.phi_coefficients(DELTA, W, "-", mirror, T40, psi=psi)
    series = ra._psi_sum if psi else ra._phi_sum
    entry, image = CACHE(ra._coeff_sum, T40, ra._point_key(mirror), series, DELTA, W, True)
    assert right is entry
    misses = CACHE.cache_info().misses
    for _ in range(2):  # a hit, then a hit after the writes below failed
        left = ra.phi_coefficients(DELTA, W, "-", z, T40, psi=psi)
        assert CACHE.cache_info().misses == misses
        assert left is image
        assert (_uint64(left.value), left.tail_estimate) == (_uint64(-entry.value.conj()), entry.tail_estimate)
        for sv in (left, ra.phi_coefficients(DELTA, W, "-", mirror, T40, psi=psi)):
            with pytest.raises(ValueError):
                sv.value[0] = 0.0
    assert _uint64(entry.value) == _uint64(right.value)
