"""Dense complex functions on the Hamming cube {0,1}^n and their Walsh-Hadamard analysis.

Points are machine integers: bit j of the index holds coordinate x(j), so the
group operation is XOR and the length |x| is a popcount.  Functions live in a
flat array of 2^n values, either on the physical side or on the spectral side
(coefficients against the normalized characters).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PHYSICAL = "physical"
SPECTRAL = "spectral"

#: Practical dimension cap: 2^26 complex doubles is ~1 GiB per buffer.
MAX_DIM = 26

#: Points per column block when a family of functions is streamed: the
#: operator engine yields its (rows, 2^n) result this many points at a time
#: and the pointwise V_r DP works through its input in blocks this wide, so
#: neither holds more than (rows x BLOCK) values per buffer.
BLOCK = 1 << 14


def length(x: int) -> int:
    """Length |x| of a point, i.e. the number of set coordinate bits."""
    if x < 0:
        raise ValueError("point index must be nonnegative")
    return int(x).bit_count()


def check_dim(n: int) -> None:
    """Reject a dimension whose 2^n-point cube functions are not supported."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside 1..{MAX_DIM}")


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Array of |x| for every x in {0, ..., 2^n - 1} (uint8, read-only, cached)."""
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    pc.setflags(write=False)
    return pc


@dataclass
class CubeFunction:
    """A function on {0,1}^n stored as 2^n complex values plus a side marker."""

    n: int
    values: np.ndarray
    side: str = PHYSICAL

    def __post_init__(self):
        check_dim(self.n)
        if self.side not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown side {self.side!r}")
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (1 << self.n,):
            raise ValueError(
                f"value array of shape {self.values.shape} does not match n={self.n}"
            )

    def copy(self) -> "CubeFunction":
        return CubeFunction(self.n, self.values.copy(), self.side)

    def norm(self, p: float = 2) -> float:
        a = np.abs(self.values)
        if p == math.inf:
            return float(a.max())
        return float((a**p).sum() ** (1.0 / p))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "side": self.side,
                "re": self.values.real.tolist(),
                "im": self.values.imag.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CubeFunction":
        obj = json.loads(text)
        values = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return cls(obj["n"], values, obj["side"])


def delta(n: int, x: int = 0) -> CubeFunction:
    """Indicator of the single point x (physical side)."""
    values = np.zeros(1 << n, dtype=np.complex128)
    values[x] = 1.0
    return CubeFunction(n, values)


def character(n: int, y: int) -> CubeFunction:
    """The character x -> (-1)^{x.y} as a physical-side function."""
    if not 0 <= y < (1 << n):
        raise ValueError(f"character index {y} outside cube of dimension {n}")
    parity = np.bitwise_count(np.arange(1 << n) & y) & 1
    return CubeFunction(n, 1.0 - 2.0 * parity)


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


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform.

    `values` is a contiguous 1-D float64 or complex128 array whose length is
    a power of two; the transform overwrites it and returns it.  Applying it
    twice multiplies the input by 2^n.  H_{2^n} is the Kronecker product of
    a few ±1 factors H_{2^w} (`_fwht_factors`), and each factor is one real
    matrix product on a float64 view of the buffer, a complex value being
    its (re, im) pair.  The factors alternate between the buffer and one
    scratch array of its size.
    """
    if values.ndim != 1 or not values.flags.c_contiguous:
        raise ValueError("fwht needs a contiguous 1-D array")
    if values.dtype not in (np.float64, np.complex128):
        raise ValueError(f"fwht needs float64 or complex128 values, got {values.dtype}")
    size = values.shape[0]
    if size < 1 or size & (size - 1):
        raise ValueError(f"fwht length {size} is not a power of two")
    x = values.view(np.float64)
    src, dst = x, np.empty_like(x)
    for h, shape in _fwht_factors(size.bit_length() - 1, x.size // size):
        if len(shape) == 2:
            np.matmul(src.reshape(shape), h, out=dst.reshape(shape))
        else:
            np.matmul(h, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    if src is not x:
        x[...] = src
    return values


def fourier(f: CubeFunction) -> CubeFunction:
    """Fourier transform f^(y) = 2^{-n/2} sum_x f(x) (-1)^{x.y}."""
    if f.side != PHYSICAL:
        raise ValueError("fourier expects a physical-side function")
    out = fwht(f.values.copy())
    out *= 2.0 ** (-f.n / 2)
    return CubeFunction(f.n, out, SPECTRAL)


def inverse_fourier(F: CubeFunction) -> CubeFunction:
    """Inverse transform; the normalized transform is its own inverse."""
    if F.side != SPECTRAL:
        raise ValueError("inverse_fourier expects a spectral-side function")
    out = fwht(F.values.copy())
    out *= 2.0 ** (-F.n / 2)
    return CubeFunction(F.n, out, PHYSICAL)


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
