import math
import tracemalloc

import numpy as np
import pytest

from cubevar import (
    CubeFunction,
    character,
    convolve,
    delta,
    fourier,
    fwht,
    inverse_fourier,
    length,
    popcounts,
)


def rand_fn(n, rng):
    size = 1 << n
    return CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def test_length():
    assert length(0) == 0
    assert length(0b1111) == 4
    assert length(0b1011) == 3
    with pytest.raises(ValueError):
        length(-1)


def test_popcounts_matches_length():
    pc = popcounts(6)
    assert pc.dtype == np.uint8
    assert all(pc[x] == length(x) for x in range(64))


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
    F = fourier(delta(n))
    assert np.allclose(F.values, 2.0 ** (-n / 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fourier_matches_direct_summation(n):
    rng = np.random.default_rng(n)
    f = rand_fn(n, rng)
    F = fourier(f)
    for y in range(1 << n):
        direct = sum(
            f.values[x] * (-1) ** length(x & y) for x in range(1 << n)
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
    f = delta(n)
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
    assert np.abs(convolve(f, delta(n)).values - f.values).max() < 1e-12
    u = CubeFunction(n, np.full(1 << n, 2.0**-n))
    assert np.abs(convolve(u, u).values - u.values).max() < 1e-14


def test_convolve_matches_double_sum():
    rng = np.random.default_rng(11)
    for n in (3, 6):
        f, g = rand_fn(n, rng), rand_fn(n, rng)
        assert np.abs(convolve(f, g).values - convolve_direct(f, g)).max() < 1e-10


def test_convolve_dimension_mismatch():
    with pytest.raises(ValueError):
        convolve(delta(2), delta(3))


def test_json_round_trip():
    rng = np.random.default_rng(5)
    f = rand_fn(3, rng)
    g = CubeFunction.from_json(f.to_json())
    assert g.n == f.n and g.side == f.side
    assert np.abs(g.values - f.values).max() < 1e-15


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
    x = rand_buffer(n, complex_, np.random.default_rng(n))
    fwht(x)                                 # build the cached factors first
    tracemalloc.start()
    try:
        fwht(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.nbytes <= peak <= x.nbytes + 16384


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
