"""Dense real or complex functions on the Hamming cube {0,1}^n and their Walsh-Hadamard analysis.

Points are machine integers: bit j of the index holds coordinate x(j), so the
group operation is XOR and the length |x| is a popcount.  Functions live in a
flat array of 2^n values, either on the physical side or on the spectral side
(coefficients against the normalized characters).  The values are float64
for a real input and complex128 for a complex one, so whether a function is
real is read off its dtype, and operators keep a real input real.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PHYSICAL = "physical"
SPECTRAL = "spectral"

#: Points per column block when a family of functions is streamed: the
#: operator engine yields its (rows, points) result this many points at a
#: time, so it holds no more than (rows x BLOCK) values per block.  The
#: pointwise V_r DP works through its input in blocks of BLOCK * 8 bytes per
#: row: BLOCK real points, or BLOCK / 2 complex ones.
BLOCK = 1 << 14

#: Values per chunk of a chunked sum (`CubeFunction.norm`, and the V_r
#: reduction of `experiments.variation_norm_ratio`), or all the values when
#: fewer: a power of two and at least numpy's 128-value pairwise-summation
#: block, so chunk sums combined by `pairwise_total` give the bits of one
#: numpy sum over all the values.  It does not depend on `BLOCK`.
CHUNK = 1 << 14


def pairwise_total(parts):
    """The sum of a power-of-two count of chunk sums over equal chunks,
    combined in a binary tree, the order in which numpy sums one array."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[0::2], parts[1::2])]
    return parts[0]


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Array of |x| for every x in {0, ..., 2^n - 1} (uint8, read-only, cached).

    Built by doubling, |x + 2^k| = |x| + 1 for x < 2^k, in the output array
    alone: 2^n bytes, no index array.
    """
    pc = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        np.add(pc[:1 << k], 1, out=pc[1 << k:2 << k])
    pc.setflags(write=False)
    return pc


@dataclass
class CubeFunction:
    """A function on {0,1}^n stored as 2^n values plus a side marker: complex128
    when the input is complex, float64 otherwise (so a longdouble or integer
    input still gives `fwht` a dtype it takes)."""

    n: int
    values: np.ndarray
    side: str = PHYSICAL

    def __post_init__(self):
        if self.n < 1:       # no constant caps n: each 2^n command checks its memory estimate
            raise ValueError(f"dimension {self.n} is below 1")
        if self.side not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown side {self.side!r}")
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        self.values = np.asarray(self.values, dtype=dtype)
        if self.values.shape != (1 << self.n,):
            raise ValueError(
                f"value array of shape {self.values.shape} does not match n={self.n}"
            )

    def norm(self, p: float = 2) -> float:
        """(sum |v|^p)^{1/p} over the values for p >= 1, or max |v| at p = inf,
        with the sum of `abs_power_sum`; the root at p = 2 is `np.sqrt`,
        correctly rounded where `** 0.5` may not be."""
        if not p >= 1:
            raise ValueError(f"norm exponent p must be >= 1 or inf, got {p}")
        if p == math.inf:
            return float(np.max([np.abs(self.values[start:start + CHUNK]).max()
                                 for start in range(0, self.values.size, CHUNK)]))
        total = abs_power_sum(self.values, p)
        return float(np.sqrt(total) if p == 2 else total ** (1.0 / p))


def abs_power_sum(values: np.ndarray, p: float = 2):
    """sum |v|^p over a 1-D array whose length is a power of two, as a numpy
    float64.  |v|^p is formed and summed `CHUNK` values at a time in one
    buffer, and the chunk sums are combined by `pairwise_total`, so the bits
    are those of `(np.abs(values) ** p).sum()` and no temporary of the
    array's size is made."""
    buf = np.empty(min(CHUNK, values.size))
    parts = []
    for start in range(0, values.size, buf.size):
        a = np.abs(values[start:start + buf.size], out=buf)
        a **= p                          # the ufunc of a**p, without a second temporary
        parts.append(a.sum())
    return pairwise_total(parts)


def character(n: int, y: int) -> CubeFunction:
    """The character x -> (-1)^{x.y} as a physical-side function.

    Built by doubling, chi_y(x + 2^k) = (-1)^{y_k} chi_y(x) for x < 2^k, in
    the output array alone: 2^n float64 values, no index array.
    """
    if not isinstance(y, (int, np.integer)):
        raise ValueError(f"character index {y!r} is not an integer")
    if not 0 <= y < (1 << n):
        raise ValueError(f"character index {y} outside cube of dimension {n}")
    values = np.empty(1 << n)
    values[0] = 1.0
    for k in range(n):
        np.multiply(values[:1 << k], -1.0 if y >> k & 1 else 1.0, out=values[1 << k:2 << k])
    return CubeFunction(n, values)


#: Widest Kronecker factor of `fwht`, in bits: H_{2^n} is applied as
#: ceil(n / FWHT_FACTOR_BITS) factors H_{2^w} of near-equal widths w <= this.
#: Chosen by timing widths 4..6 on complex 2^14 and 2^16 and real 2^20
#: transforms (see CHANGES.md).
FWHT_FACTOR_BITS = 4


@lru_cache(maxsize=None)
def _hadamard(bits: int, pair: int) -> np.ndarray:
    """H_{2^bits} in Sylvester order, Kronecker times the identity I_pair."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h = np.kron(h, np.eye(pair))
    h.setflags(write=False)
    return h


@lru_cache(maxsize=None)
def _fwht_factors(n: int, pair: int) -> tuple:
    """The factors of H_{2^n} on a float64 buffer of 2^n * pair values.

    `pair` is 2 when the buffer holds (re, im) pairs.  Returns (matrix,
    shape) per factor, lowest index bits first: the buffer is reshaped to
    `shape` and the factor's bits are its middle axis (then `matrix @ x`), or,
    for the lowest bits, its last axis, which also holds the untransformed
    pair (then `x @ matrix`, with matrix H ⊗ I_pair).
    """
    count = -(-n // FWHT_FACTOR_BITS)
    factors = []
    low = 0
    for i in range(count):
        w = (n - low) // (count - i)
        outer = 1 << (n - low - w)
        if low == 0:
            factors.append((_hadamard(w, pair), (outer, pair << w)))
        else:
            factors.append((_hadamard(w, 1), (outer, 1 << w, pair << low)))
        low += w
    return tuple(factors)


#: Float64 values of `fwht`'s one scratch buffer (512 KB).  A buffer of at
#: most this many values is transformed by ping-pong between itself and a
#: scratch array of its size; a larger one is transformed in place, each
#: factor one slab of at most this many values at a time.  Slabs are slower
#: where the ping-pong fits (+9% to +135% at n = 14-16, one thread).  The two
#: give the same bits while every slab is at least 8 columns wide, so this
#: must be at least 8 * 2^FWHT_FACTOR_BITS = 128: OpenBLAS sums H_16 @ B in
#: another order when B has 1, 2 or 4 columns.
FWHT_SCRATCH = 1 << 16


def _fwht_slabs(x: np.ndarray, limit: int):
    """Views of `x` (one factor's shape from `_fwht_factors`) that the factor
    transforms independently, each of at most `limit` values: rows of the 2-D
    lowest factor; outer slices of a 3-D factor; or, when one outer slice
    exceeds `limit`, its column slabs x[a:a+1, :, c:c+cols]."""
    if x.ndim == 3 and x[0].size > limit:
        cols = limit // x.shape[1]
        for a in range(x.shape[0]):
            for c in range(0, x.shape[2], cols):
                yield x[a:a + 1, :, c:c + cols]
        return
    step = limit // x[0].size
    for a in range(0, x.shape[0], step):
        yield x[a:a + step]


def _fwht_matmul(h: np.ndarray, src: np.ndarray, out: np.ndarray) -> None:
    """One factor of `_fwht_factors` from `src` into `out`, both of its shape."""
    if src.ndim == 2:
        np.matmul(src, h, out=out)
    else:
        np.matmul(h, src, out=out)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform.

    `values` is a contiguous 1-D float64 or complex128 array whose length is
    a power of two; the transform overwrites it and returns it.  Applying it
    twice multiplies the input by 2^n.  H_{2^n} is the Kronecker product of
    a few ±1 factors H_{2^w} (`_fwht_factors`), and each factor is a real
    matrix product on a float64 view of the buffer, a complex value being
    its (re, im) pair.  Up to `FWHT_SCRATCH` float64 values, the factors
    alternate between the buffer and one scratch array of its size.  Above
    it, each factor runs one slab at a time (`_fwht_slabs`) into one
    `FWHT_SCRATCH` array and is copied back, so no second 2^n buffer is
    held.  Both routes give the same bits.
    """
    if values.ndim != 1 or not values.flags.c_contiguous:
        raise ValueError("fwht needs a contiguous 1-D array")
    if values.dtype not in (np.float64, np.complex128):
        raise ValueError(f"fwht needs float64 or complex128 values, got {values.dtype}")
    size = values.shape[0]
    if size < 1 or size & (size - 1):
        raise ValueError(f"fwht length {size} is not a power of two")
    x = values.view(np.float64)
    factors = _fwht_factors(size.bit_length() - 1, x.size // size)
    if x.size <= FWHT_SCRATCH:
        src, dst = x, np.empty_like(x)
        for h, shape in factors:
            _fwht_matmul(h, src.reshape(shape), dst.reshape(shape))
            src, dst = dst, src
        if src is not x:
            x[...] = src
        return values
    scratch = np.empty(FWHT_SCRATCH)
    for h, shape in factors:
        for slab in _fwht_slabs(x.reshape(shape), FWHT_SCRATCH):
            out = scratch[:slab.size].reshape(slab.shape)
            _fwht_matmul(h, slab, out)
            slab[...] = out
    return values


def convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """Group convolution (f*g)(x) = sum_y f(x XOR y) g(y), computed spectrally."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    if f.side != PHYSICAL or g.side != PHYSICAL:
        raise ValueError("convolve expects physical-side functions")
    F = fwht(f.values.copy())
    G = fwht(g.values.copy())
    out = fwht(F * G)
    out /= float(1 << f.n)
    return CubeFunction(f.n, out, PHYSICAL)
