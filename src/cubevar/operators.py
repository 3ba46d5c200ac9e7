"""Spherical means and the noise semigroup.

Every spherical mean S_k and every noise operator N_t is a radial spectral
multiplier, sum_w m(w) P_w f with P_w the projection onto Walsh level w, so all
of them run through one engine, `apply_radial_multipliers`, which can also
stream its result a block of points at a time (`_radial_multiplier_blocks`).
The physical-side averages of `spherical_mean_direct` (enumeration or
convolution) and the binomial-kernel convolution of `noise_binomial` are the
independent routes it is cross-checked against.
"""
from __future__ import annotations

import itertools
import math
import os

import numpy as np

from . import core
from .core import PHYSICAL, CubeFunction, convolve, fwht, popcounts
from .krawtchouk import build_table

try:
    #: Bytes of physical memory, read once: `_radial_terms` refuses a result
    #: larger than this before allocating it.  None where it is not reported.
    PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):
    PHYSICAL_MEMORY = None


def sphere_indicator(n: int, k: int) -> CubeFunction:
    """Normalized indicator of the radius-k sphere, the kernel of S_k."""
    pc = popcounts(n)
    return CubeFunction(n, np.where(pc == k, 1.0 / math.comb(n, k), 0.0))


def spherical_mean_direct(f: CubeFunction, k: int, method: str = "auto") -> CubeFunction:
    """S_k f(x): average of f over the sphere of radius k around x.

    Small spheres are enumerated mask by mask; large ones go through the
    convolution kernel (cheaper than C(n,k) passes once C(n,k) > 4n).
    """
    n = f.n
    if not 0 <= k <= n:
        raise ValueError(f"radius {k} outside 0..{n}")
    if f.side != PHYSICAL:
        raise ValueError("spherical mean expects a physical-side function")
    if method == "auto":
        method = "enum" if math.comb(n, k) <= 4 * n else "conv"
    if method == "enum":
        out = np.zeros_like(f.values)
        idx = np.arange(1 << n)
        for bits in itertools.combinations(range(n), k):
            w = 0
            for b in bits:
                w |= 1 << b
            out += f.values[idx ^ w]
        out /= math.comb(n, k)
        return CubeFunction(n, out, PHYSICAL)
    if method == "conv":
        return convolve(f, sphere_indicator(n, k))
    raise ValueError(f"unknown method {method!r}")


def _radial_terms(f: CubeFunction, rows, points=None):
    """The spectrum of f, split the way `rows` are cheapest to apply, on the
    first `points` points of the cube.

    `rows` is a real (m, n+1) matrix of multipliers indexed by Walsh level and
    f may be on either side.  `points` is 2^n (the default) or 2^{n-1}, the
    half cube, onto which every inverse transform is folded: for x < 2^{n-1},
    (H_{2^n} v)(x) = (H_{2^{n-1}} (v_lo + v_hi))(x), with v_lo and v_hi the
    halves of v, and the spectral point y + 2^{n-1} has level |y| + 1.  When
    f has fewer non-zero levels than there are rows, each non-zero level
    projection is inverse-transformed once and the result is `coef @ terms`,
    with coef the (m, levels) columns of the rows; otherwise each row takes
    one inverse transform, coef is None and terms is the (m, points) result
    itself, float64 when f.values are.  A physical-side f with a single
    non-zero level is its own level projection: terms is a view of f itself,
    with no transform back.  A spectral-side f is read where it is, not
    copied.  A (levels or rows, points) result that would exceed
    `PHYSICAL_MEMORY` raises MemoryError before it is allocated.
    """
    n = f.n
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n + 1:
        raise ValueError(f"multiplier matrix of shape {rows.shape} does not match n={n}")
    size = 1 << n
    points = size if points is None else points
    if points not in (size, size >> 1):
        raise ValueError(f"{points} points: expected 2^{n} or 2^{n - 1}")
    fold = points < size
    if f.side == PHYSICAL:
        spec = fwht(f.values.copy())
        scale = 2.0 ** -n                # both transforms' 2^{-n/2}, folded in
    else:
        spec = f.values
        scale = 2.0 ** (-n / 2)
    pc = popcounts(n)
    if len(rows) > 1:
        levels = np.flatnonzero(np.bincount(pc[spec != 0], minlength=n + 1))
    else:        # one row takes the per-row route whatever levels f has, as if it had all
        levels = range(n + 1)
    pc, lo, hi = pc[:points], spec[:points], spec[points:]   # hi is empty unless folded
    if len(levels) == 1 < len(rows) and f.side == PHYSICAL:
        return rows[:, levels], f.values[None, :points]
    rows = rows * scale
    count = min(len(levels), len(rows))
    need = count * points * spec.itemsize
    if PHYSICAL_MEMORY is not None and need > PHYSICAL_MEMORY:
        raise MemoryError(f"{count} x {points} values need {need} bytes, more than the "
                          f"{PHYSICAL_MEMORY} bytes of physical memory")
    if len(levels) < len(rows):
        proj = np.zeros((len(levels), points), dtype=spec.dtype)
        for p, w in zip(proj, levels):
            np.copyto(p, lo, where=pc == w)
            if fold:
                np.copyto(p, hi, where=pc == w - 1)
            fwht(p)
        return rows[:, levels], proj
    out = np.empty((len(rows), points), dtype=spec.dtype)
    upper = np.empty_like(hi)
    for o, row in zip(out, rows):
        np.multiply(lo, np.take(row, pc), out=o)   # take: row[pc] is 2x slower on uint8
        if fold:
            o += np.multiply(hi, np.take(row[1:], pc), out=upper)
        fwht(o)
    return None, out


def apply_radial_multipliers(f: CubeFunction, rows) -> np.ndarray:
    """Row i of the result is sum_w rows[i, w] P_w f on the physical side.

    `rows` is a real (m, n+1) matrix of multipliers indexed by Walsh level and
    f may be on either side; the result is (m, 2^n), float64 when f.values are.
    """
    coef, terms = _radial_terms(f, rows)
    return terms if coef is None else coef @ terms


def _radial_multiplier_blocks(f: CubeFunction, rows, points=None):
    """`apply_radial_multipliers(f, rows)[:, :points]` as a sequence of column
    tiles of `core.BLOCK` * 8 bytes per row: each holds the rows at the next
    `core.BLOCK` consecutive points of a real result, or half as many of a
    complex one, the width of one block of the pointwise DP.  `points` is 2^n
    (the default) or 2^{n-1}, for the half cube x < 2^{n-1}, which the engine
    then works on alone (`_radial_terms`).

    A tile is valid until the next one is drawn, and the consumer may
    overwrite it: no tile is a view of f.  When f has fewer non-zero levels
    than there are rows (every character, every spectral-side half-spectrum
    draw), each tile is formed from the level projections as it is asked for,
    into one buffer that every tile reuses, so the (m, points) result is
    never held; otherwise the tiles are views of it.
    """
    coef, terms = _radial_terms(f, rows, points)
    width = min(terms.shape[1], core.BLOCK * 8 // terms.itemsize)
    tile = None if coef is None else np.empty((len(coef), width), dtype=terms.dtype)
    for start in range(0, terms.shape[1], width):
        block = terms[:, start:start + width]
        yield block if coef is None else np.matmul(coef, block, out=tile[:, :block.shape[1]])


def _kraw_rows(n: int, radii) -> np.ndarray:
    """The multipliers of S_k for k in `radii`: Krawtchouk rows kappa^(n)_k(w).
    Radii outside 0..n, or none at all, raise ValueError."""
    radii = list(radii)
    if not radii:
        raise ValueError(f"need at least one radius, got radii {radii}")
    for k in radii:
        if not (isinstance(k, (int, np.integer)) and 0 <= k <= n):
            raise ValueError(f"radius {k!r} outside 0..{n}")
    return build_table(n).float[radii]


def spherical_mean_stack(f: CubeFunction, radii) -> np.ndarray:
    """Matrix of S_k f for k in `radii`, one row per radius."""
    return apply_radial_multipliers(f, _kraw_rows(f.n, radii))


def spherical_mean_multiplier(f: CubeFunction, k: int) -> CubeFunction:
    """S_k f via the spectral multiplier kappa^(n)_k(|y|)."""
    return CubeFunction(f.n, spherical_mean_stack(f, [k])[0])


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"noise parameter t must be finite and >= 0, got {t}")


def noise_multiplier(f: CubeFunction, t: float) -> CubeFunction:
    """N_t f via the spectral multiplier e^{-t|y|}."""
    _check_time(t)
    row = np.exp(-t * np.arange(f.n + 1))
    return CubeFunction(f.n, apply_radial_multipliers(f, row[None])[0])


def noise_binomial(f: CubeFunction, t: float) -> CubeFunction:
    """N_t f as the binomial mixture sum_k C(n,k) u^k (1-u)^{n-k} S_k f with
    u = (1 - e^{-t}) / 2.  The mixture of normalized sphere indicators is
    the kernel u^{|y|} (1-u)^{n-|y|}, whose transform is e^{-t|w|}; the
    physical-side f is convolved with it, as in the `conv` route of
    `spherical_mean_direct`, so this route does not go through the engine."""
    _check_time(t)
    n = f.n
    u = (1.0 - math.exp(-t)) / 2.0
    pc = popcounts(n)
    return convolve(f, CubeFunction(n, u ** pc * (1.0 - u) ** (n - pc)))


def semigroup_axioms_check(n: int, t_grid, trials: int = 20, seed: int = 0) -> dict:
    """Worst violation of the four diffusion-semigroup axioms of N_t on random
    inputs: contraction in p = 1, 2, inf; self-adjointness; positivity on
    nonnegative inputs; conservation of constants."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    worst = {
        "contraction_p1": 0.0,
        "contraction_p2": 0.0,
        "contraction_pinf": 0.0,
        "symmetry": 0.0,
        "positivity": 0.0,
        "conservation": 0.0,
    }
    ones = CubeFunction(n, np.ones(size))
    for t in t_grid:
        c = noise_multiplier(ones, t)
        worst["conservation"] = max(worst["conservation"], float(np.abs(c.values - 1).max()))
        for _ in range(trials):
            f = CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))
            g = CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))
            nf = noise_multiplier(f, t)
            for p, key in ((1, "contraction_p1"), (2, "contraction_p2"), (math.inf, "contraction_pinf")):
                worst[key] = max(worst[key], nf.norm(p) - f.norm(p))
            lhs = np.vdot(g.values, nf.values)
            rhs = np.vdot(noise_multiplier(g, t).values, f.values)
            worst["symmetry"] = max(worst["symmetry"], abs(lhs - rhs))
            pos = CubeFunction(n, np.abs(rng.standard_normal(size)))
            npos = noise_multiplier(pos, t)
            worst["positivity"] = max(worst["positivity"], float(-npos.values.min()))
    worst["max_violation"] = max(worst.values())
    return worst
