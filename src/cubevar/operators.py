"""Spherical means, the noise semigroup, and the cube symmetry operators.

Every spherical mean S_k and every noise operator N_t is a radial spectral
multiplier, sum_w m(w) P_w f with P_w the projection onto Walsh level w, so all
of them run through one engine, `apply_radial_multipliers`, which can also
stream its result a block of points at a time (`radial_multiplier_blocks`).
The physical-side averages of `spherical_mean_direct` (enumeration or
convolution) are the independent route it is cross-checked against.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import core
from .core import (
    PHYSICAL,
    CubeFunction,
    convolve,
    fourier,
    fwht,
    inverse_fourier,
    popcounts,
)
from .krawtchouk import build_table


def sphere_indicator(n: int, k: int) -> CubeFunction:
    """Normalized indicator of the radius-k sphere, the kernel of S_k."""
    pc = popcounts(n)
    values = np.where(pc == k, 1.0 / math.comb(n, k), 0.0).astype(np.complex128)
    return CubeFunction(n, values)


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


def _radial_terms(f: CubeFunction, rows):
    """The spectrum of f, split the way `rows` are cheapest to apply.

    `rows` is a real (m, n+1) matrix of multipliers indexed by Walsh level and
    f may be on either side.  When f has fewer non-zero levels than there are
    rows, each non-zero level projection is inverse-transformed once and the
    result is `coef @ terms`, with coef the (m, levels) columns of the rows;
    otherwise each row takes one inverse transform, coef is None and terms is
    the (m, 2^n) result itself.  Float64 throughout when f is real.  A
    single-level f is its own level projection: on the physical side terms
    is f itself, with no transform back, and on the spectral side its
    spectrum is transformed in place.
    """
    n = f.n
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n + 1:
        raise ValueError(f"multiplier matrix of shape {rows.shape} does not match n={n}")
    values = f.values if f.values.imag.any() else f.values.real
    spec = values.copy()
    if f.side == PHYSICAL:
        fwht(spec)
        scale = 2.0 ** -n                # both transforms' 2^{-n/2}, folded in
    else:
        scale = 2.0 ** (-n / 2)
    pc = popcounts(n)
    levels = np.flatnonzero(np.bincount(pc[spec != 0], minlength=n + 1))
    if len(levels) == 1 < len(rows):
        if f.side == PHYSICAL:
            return rows[:, levels], values[None]
        return rows[:, levels] * scale, fwht(spec)[None]
    rows = rows * scale
    if len(levels) < len(rows):
        proj = np.zeros((len(levels), spec.size), dtype=spec.dtype)
        for p, w in zip(proj, levels):
            at = pc == w
            p[at] = spec[at]
            fwht(p)
        return rows[:, levels], proj
    out = np.empty((len(rows), spec.size), dtype=spec.dtype)
    for o, row in zip(out, rows):
        np.multiply(spec, np.take(row, pc), out=o)   # take: row[pc] is 2x slower on uint8
        fwht(o)
    return None, out


def apply_radial_multipliers(f: CubeFunction, rows) -> np.ndarray:
    """Row i of the result is sum_w rows[i, w] P_w f on the physical side.

    `rows` is a real (m, n+1) matrix of multipliers indexed by Walsh level and
    f may be on either side; the result is (m, 2^n), float64 when f is real.
    """
    coef, terms = _radial_terms(f, rows)
    return terms if coef is None else coef @ terms


def radial_multiplier_blocks(f: CubeFunction, rows):
    """`apply_radial_multipliers(f, rows)` as (columns, block) pairs: each
    block holds the rows at `core.BLOCK` consecutive points.

    When f has fewer non-zero levels than there are rows (every character,
    every spectral-side half-spectrum draw), each block is formed from the
    level projections as it is asked for, so the (m, 2^n) result is never
    held; otherwise the blocks are views of it.
    """
    coef, terms = _radial_terms(f, rows)
    for start in range(0, terms.shape[1], core.BLOCK):
        block = terms[:, start:start + core.BLOCK]
        yield slice(start, start + block.shape[1]), block if coef is None else coef @ block


def _kraw_rows(n: int, radii) -> np.ndarray:
    """The multipliers of S_k for k in `radii`: Krawtchouk rows kappa^(n)_k(w)."""
    radii = list(radii)
    for k in radii:
        if not (isinstance(k, (int, np.integer)) and 0 <= k <= n):
            raise ValueError(f"radius {k!r} outside 0..{n}")
    return build_table(n).float[radii]


def spherical_mean_stack(f: CubeFunction, radii) -> np.ndarray:
    """Matrix of S_k f for k in `radii`, one row per radius."""
    return apply_radial_multipliers(f, _kraw_rows(f.n, radii))


def spherical_mean_blocks(f: CubeFunction, radii):
    """`spherical_mean_stack(f, radii)` streamed as the (columns, block) pairs
    of `radial_multiplier_blocks`."""
    return radial_multiplier_blocks(f, _kraw_rows(f.n, radii))


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
    u = (1 - e^{-t}) / 2, applied as the one multiplier row that mixes the
    Krawtchouk rows kappa_k with those weights."""
    _check_time(t)
    n = f.n
    u = (1.0 - math.exp(-t)) / 2.0
    weights = [math.comb(n, k) * u**k * (1.0 - u) ** (n - k) for k in range(n + 1)]
    row = np.asarray(weights) @ build_table(n).float
    return CubeFunction(n, apply_radial_multipliers(f, row[None])[0])


def reflect(f: CubeFunction) -> CubeFunction:
    """The reflection f^(y) -> f^(y XOR 1_n); index reversal on the spectral side."""
    if f.side != PHYSICAL:
        raise ValueError("reflect expects a physical-side function")
    F = fourier(f)
    F.values = F.values[::-1].copy()
    return inverse_fourier(F)


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
    ones = CubeFunction(n, np.ones(size, dtype=np.complex128))
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
            pos = CubeFunction(n, np.abs(rng.standard_normal(size)).astype(np.complex128))
            npos = noise_multiplier(pos, t)
            worst["positivity"] = max(worst["positivity"], float(-npos.values.real.min()))
    worst["max_violation"] = max(worst.values())
    return worst


def antipodal_check(f: CubeFunction) -> dict:
    """Worst violation of S_k f(x XOR 1_n) = S_{n-k} f(x) over all k and x."""
    n = f.n
    means = spherical_mean_stack(f, range(n + 1))
    worst = float(np.abs(means[:, ::-1] - means[::-1]).max())
    return {"n": n, "max_violation": worst}
