import math
import tracemalloc

import numpy as np
import pytest

from cubevar import core
from cubevar import (
    CubeFunction,
    character,
    convolve,
    fwht,
    popcounts,
)
from spectral_helpers import fourier, inverse_fourier


def rand_fn(n, rng):
    size = 1 << n
    return CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def traced_peak(call):
    """Peak bytes traced by tracemalloc while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_popcounts_matches_length():
    pc = popcounts(6)
    assert pc.dtype == np.uint8
    assert all(pc[x] == x.bit_count() for x in range(64))


def test_popcounts_built_in_its_output_alone():
    for n in range(1, 21):
        assert np.array_equal(popcounts(n), np.bitwise_count(np.arange(1 << n)))
    n = 20
    popcounts.cache_clear()
    peak = traced_peak(lambda: popcounts(n))
    assert peak <= (1 << n) + 16384             # the uint8 output; no index array


@pytest.mark.parametrize("complex_", [False, True])
def test_norm_bits_and_one_temporary(complex_):
    # |v|^p is summed CHUNK values at a time and the chunk sums are
    # combined pairwise: the bits of the whole-array expression, with one
    # chunk buffer in place of a 2^n temporary.  The root at p = 2 is
    # np.sqrt, and the scan finds an 8-point input whose sum's ** 0.5 is
    # not its np.sqrt (about 1 in 1100 uniform values with glibc's pow)
    rng = np.random.default_rng(5)
    for n in range(1, 22):
        v = rand_buffer(n, complex_, rng)
        f = CubeFunction(n, v)
        for p in (1, 2.5, 3):
            assert f.norm(p) == float((np.abs(v) ** p).sum() ** (1.0 / p))
        assert f.norm(2) == float(np.sqrt((np.abs(v) ** 2).sum()))
        assert f.norm(math.inf) == float(np.abs(v).max())
    draws = (rand_buffer(3, complex_, rng) for _ in range(100_000))
    v, total = next((v, s) for v, s in ((v, (np.abs(v) ** 2).sum()) for v in draws)
                    if s ** 0.5 != np.sqrt(s))
    assert CubeFunction(3, v).norm(2) == float(np.sqrt(total))
    n = 20
    f = CubeFunction(n, rand_buffer(n, complex_, rng))
    for p in (2, 2.5, math.inf):
        assert traced_peak(lambda: f.norm(p)) < 1 << 20
    f.values[-1] = math.nan
    assert math.isnan(f.norm(math.inf))


@pytest.mark.parametrize("p", [0, -1, 0.5, -math.inf, math.nan])
def test_norm_rejects_exponent_below_one(p):
    # (sum |v|^p)^{1/p} is a norm only for p >= 1: p = 0 used to divide by
    # zero, p = -1 to return 1/16 for a 16-point character, p = nan nan
    f = character(4, 5)
    with pytest.raises(ValueError, match=f"got {p}"):
        f.norm(p)
    assert f.norm(1) == 16.0 and f.norm(math.inf) == 1.0


def test_character_values_exact_and_temporaries_small():
    for n in (1, 4, 7):
        for y in (0, 1, (1 << n) - 1, (1 << n) // 3):
            chi = character(n, y).values
            assert chi.dtype == np.float64
            assert np.array_equal(chi, [(-1.0) ** (x & y).bit_count() for x in range(1 << n)])
    n = 16
    # the float64 output, built by doubling in place, and a few KiB
    assert traced_peak(lambda: character(n, 2**15 - 1)) <= 8 * (1 << n) + (4 << 10)


def test_values_dtype_follows_input():
    # real, integer and longdouble input is stored as float64; complex input
    # stays complex128, zero imaginary parts included
    for values in (np.arange(4), np.ones(4, dtype=np.longdouble), [0.5, 1, 2, 3]):
        assert CubeFunction(2, values).values.dtype == np.float64
    for values in (np.ones(4, dtype=np.complex64), np.ones(4, dtype=np.complex128), [1j, 0, 0, 0]):
        assert CubeFunction(2, values).values.dtype == np.complex128


def test_character_index_is_any_integer():
    for y in (np.int64(3), np.uint8(3), np.uint64(3), 3):
        assert np.array_equal(character(4, y).values, character(4, 3).values)
    for y in (2.5, 3.0, np.float64(3), "3", None):
        with pytest.raises(ValueError, match="not an integer"):
            character(4, y)
    for y in (-1, 16, np.int64(16)):
        with pytest.raises(ValueError, match="outside cube"):
            character(4, y)


def test_character_trivial_and_n1():
    assert np.allclose(character(3, 0).values, 1.0)
    assert np.allclose(character(1, 1).values, [1.0, -1.0])


def test_character_square_sums_to_size():
    n = 5
    for y in (0, 7, 31):
        chi = character(n, y).values
        assert np.isclose((chi * chi).sum(), 2**n)


def test_character_group_homomorphism():
    n = 6
    rng = np.random.default_rng(1)
    for _ in range(20):
        y1, y2 = rng.integers(0, 1 << n, size=2)
        lhs = character(n, int(y1)).values * character(n, int(y2)).values
        rhs = character(n, int(y1 ^ y2)).values
        assert np.array_equal(lhs, rhs)


def test_fourier_of_normalized_character_is_indicator():
    n = 4
    y = 0b0110
    chi = character(n, y)
    chi.values /= 2.0 ** (n / 2)
    F = fourier(chi)
    expected = np.zeros(1 << n)
    expected[y] = 1.0
    assert np.allclose(F.values, expected, atol=1e-14)


def test_fourier_delta_is_constant():
    n = 3
    F = fourier(CubeFunction(n, np.eye(1 << n)[0]))
    assert np.allclose(F.values, 2.0 ** (-n / 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fourier_matches_direct_summation(n):
    rng = np.random.default_rng(n)
    f = rand_fn(n, rng)
    F = fourier(f)
    for y in range(1 << n):
        direct = sum(
            f.values[x] * (-1) ** (x & y).bit_count() for x in range(1 << n)
        ) * 2.0 ** (-n / 2)
        assert abs(F.values[y] - direct) < 1e-12


def test_plancherel_and_involution():
    rng = np.random.default_rng(7)
    for n in (2, 6, 10, 12):
        f = rand_fn(n, rng)
        F = fourier(f)
        assert abs(F.norm(2) - f.norm(2)) <= 1e-12 * f.norm(2)
        back = inverse_fourier(F)
        assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_inverse_fourier_zero_and_basis():
    n = 3
    zero = CubeFunction(n, np.zeros(1 << n), side="spectral")
    assert np.array_equal(inverse_fourier(zero).values, np.zeros(1 << n))
    y = 0b101
    ind = np.zeros(1 << n)
    ind[y] = 1.0
    rebuilt = inverse_fourier(CubeFunction(n, ind, side="spectral"))
    assert np.allclose(rebuilt.values, character(n, y).values * 2.0 ** (-n / 2))


def test_side_errors():
    n = 2
    f = CubeFunction(n, np.eye(1 << n)[0])
    with pytest.raises(ValueError):
        inverse_fourier(f)
    with pytest.raises(ValueError):
        fourier(fourier(f))


def test_dimension_checks():
    with pytest.raises(ValueError):
        CubeFunction(3, np.zeros(4))
    with pytest.raises(ValueError):
        CubeFunction(0, np.zeros(1))


def convolve_direct(f, g):
    n = f.n
    out = np.zeros(1 << n, dtype=complex)
    for x in range(1 << n):
        out[x] = sum(f.values[x ^ y] * g.values[y] for y in range(1 << n))
    return out


def test_convolve_identity_and_uniform():
    n = 4
    rng = np.random.default_rng(3)
    f = rand_fn(n, rng)
    assert np.abs(convolve(f, CubeFunction(n, np.eye(1 << n)[0])).values - f.values).max() < 1e-12
    u = CubeFunction(n, np.full(1 << n, 2.0**-n))
    assert np.abs(convolve(u, u).values - u.values).max() < 1e-14


def test_convolve_matches_double_sum():
    rng = np.random.default_rng(11)
    for n in (3, 6):
        f, g = rand_fn(n, rng), rand_fn(n, rng)
        assert np.abs(convolve(f, g).values - convolve_direct(f, g)).max() < 1e-10


def test_convolve_dimension_mismatch():
    with pytest.raises(ValueError):
        convolve(CubeFunction(2, np.ones(4)), CubeFunction(3, np.ones(8)))


def butterfly(values):
    """Oracle: the radix-2 Walsh-Hadamard transform, in place and unnormalized."""
    size = values.shape[0]
    h = 1
    while h < size:
        b = values.reshape(-1, 2, h)
        top = b[:, 0, :].copy()
        b[:, 0, :] = top + b[:, 1, :]
        b[:, 1, :] = top - b[:, 1, :]
        h *= 2
    return values


def rand_buffer(n, complex_, rng):
    x = rng.standard_normal(1 << n)
    return x + 1j * rng.standard_normal(1 << n) if complex_ else x


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", range(1, 17))
def test_fwht_matches_butterfly(n, complex_):
    x = rand_buffer(n, complex_, np.random.default_rng(n))
    got = fwht(x.copy())
    want = butterfly(x.copy())
    tol = 4 * np.finfo(float).eps * 2 ** (n / 2) * np.linalg.norm(x)
    assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("n", [1, 3, 9, 14, 17])
def test_fwht_bit_exact_on_integers(n):
    rng = np.random.default_rng(100 + n)
    for y in (0, 1, (1 << n) - 1, int(rng.integers(1 << n))):
        chi = character(n, y).values
        expected = np.zeros(1 << n)
        expected[y] = 1 << n
        assert np.array_equal(fwht(chi.real.copy()), expected)
        assert np.array_equal(fwht(chi.copy()), expected)
    ints = rng.integers(-8, 9, size=(2, 1 << n))
    exact = butterfly(ints[0].copy()), butterfly(ints[1].copy())
    assert np.array_equal(fwht(ints[0].astype(float)), exact[0])
    assert np.array_equal(fwht(ints[0] + 1j * ints[1]), exact[0] + 1j * exact[1])


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [0, 4, 11, 14])
def test_fwht_is_in_place(n, complex_):
    rng = np.random.default_rng(n)
    base = rand_buffer(n + 1, complex_, rng)
    before = base.copy()
    x = base[: 1 << n]                      # a contiguous view into a larger buffer
    out = fwht(x)
    assert out is x
    np.testing.assert_allclose(base[: 1 << n], butterfly(before[: 1 << n].copy()),
                               rtol=0, atol=1e-12 * (1 << n))
    assert np.array_equal(base[1 << n:], before[1 << n:])


@pytest.mark.parametrize("n", [1, 5, 13, 16])
def test_fwht_involution(n):
    rng = np.random.default_rng(n)
    ints = rng.integers(-100, 101, size=1 << n) + 1j * rng.integers(-100, 101, size=1 << n)
    assert np.array_equal(fwht(fwht(ints.copy())), ints * (1 << n))
    x = rand_buffer(n, False, rng)
    back = fwht(fwht(x.copy())) / (1 << n)
    assert np.abs(back - x).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [6, 15, 18])
def test_fwht_allocates_one_scratch_buffer(n, complex_):
    # one scratch buffer of the transform's size up to FWHT_SCRATCH float64
    # values (ping-pong), of FWHT_SCRATCH values above it (slabs in place)
    x = rand_buffer(n, complex_, np.random.default_rng(n))
    fwht(x)                                 # build the cached factors first
    peak = traced_peak(lambda: fwht(x))
    scratch = min(x.nbytes, core.FWHT_SCRATCH * 8)
    assert scratch <= peak <= scratch + 16384


def record_slab_kinds(monkeypatch):
    """Wrap `core._fwht_slabs` to collect which slab shapes it yields: rows
    of the 2-D lowest factor, outer slices or column slabs of a 3-D one."""
    kinds = set()
    slabs = core._fwht_slabs

    def recording(x, limit):
        for slab in slabs(x, limit):
            kinds.add("rows" if x.ndim == 2 else
                      "outer" if slab.shape[2] == x.shape[2] else "cols")
            yield slab

    monkeypatch.setattr(core, "_fwht_slabs", recording)
    return kinds


# 128 values is the smallest scratch that keeps column slabs 8 wide: OpenBLAS
# sums H_16 @ B in another order when B has 4 columns or fewer
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", range(8, 14))
def test_fwht_slabs_match_ping_pong(n, complex_, monkeypatch):
    x = rand_buffer(n, complex_, np.random.default_rng(200 + n))
    ping_pong = fwht(x.copy())              # 2^n <= FWHT_SCRATCH values
    monkeypatch.setattr(core, "FWHT_SCRATCH", 128)
    kinds = record_slab_kinds(monkeypatch)
    slabs = fwht(x.copy())
    assert "rows" in kinds                  # the slab route ran
    assert slabs.tobytes() == ping_pong.tobytes()
    tol = 4 * np.finfo(float).eps * 2 ** (n / 2) * np.linalg.norm(x)
    assert np.abs(slabs - butterfly(x.copy())).max() <= tol


def test_fwht_slab_shapes_all_taken(monkeypatch):
    monkeypatch.setattr(core, "FWHT_SCRATCH", 128)
    kinds = record_slab_kinds(monkeypatch)
    for n in range(8, 14):
        for complex_ in (False, True):
            fwht(rand_buffer(n, complex_, np.random.default_rng(n)))
    assert kinds == {"rows", "outer", "cols"}


def test_fwht_rejects_bad_buffers():
    for size in (0, 3, 12):
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.zeros(size))
    x = np.arange(16.0)
    with pytest.raises(ValueError, match="contiguous"):
        fwht(x[::2])
    assert np.array_equal(x, np.arange(16.0))
    with pytest.raises(ValueError, match="contiguous"):
        fwht(np.zeros((4, 4)))
    for dtype in (np.int64, np.float32, np.complex64):
        with pytest.raises(ValueError, match="float64 or complex128"):
            fwht(np.zeros(8, dtype=dtype))
