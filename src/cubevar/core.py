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
    """Array of |x| for every x in {0, ..., 2^n - 1} (read-only, cached)."""
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
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


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform (radix-2 butterflies).

    Operates on the caller's buffer and returns it.  Applying it twice
    multiplies the input by 2^n.
    """
    size = values.shape[0]
    h = 1
    while h < size:
        b = values.reshape(-1, 2, h)
        top = b[:, 0, :].copy()
        b[:, 0, :] = top + b[:, 1, :]
        b[:, 1, :] = top - b[:, 1, :]
        h *= 2
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
