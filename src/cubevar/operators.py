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
from .core import CHUNK, PHYSICAL, SPECTRAL, CubeFunction, convolve, fwht, popcounts
from .krawtchouk import build_table

try:
    #: Bytes of physical memory, read once: the engine refuses a result
    #: that, with its inputs, would need more than this, before allocating
    #: it.  None where it is not reported.
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


#: Bytes the engine holds beside its terms, inputs and `fwht` scratch that
#: do not grow with n: its `CHUNK`-wide temporaries (the level count's
#: 10 B a point; a fold's level mask, or its gain row with the intp index
#: `np.take` makes of the popcounts and one part's product), numpy's ufunc
#: buffers of 8192 values an operand, taken when a real row multiplies
#: complex values or a broadcast row is short, and small objects.
ENGINE_SLACK = 1 << 19


def _check_memory(n: int, m: int, levels, points: int, dtype, side: str) -> int:
    """Raise MemoryError when the engine for m rows, on `points` points at a
    time (the whole cube, the half cube or one sub-cube of `_fold_bits`), of
    an f with `dtype` values on `side` and non-zero Walsh `levels` would
    exceed `PHYSICAL_MEMORY`: its (min(levels, m), points) terms, f, the
    spectrum copy of a physical f, the popcounts (1 B a point), the `fwht`
    scratch of one term and `ENGINE_SLACK`.  The same on every route and
    fold: the terms are folded a `CHUNK` at a time, so nothing else grows
    with the points.  Returns the estimate."""
    size, item = 1 << n, np.dtype(dtype).itemsize
    count, copies = min(len(levels), m), 2 if side == PHYSICAL else 1
    scratch = min(points * item, 8 * core.FWHT_SCRATCH)
    need = (count * points + copies * size) * item + size + scratch + ENGINE_SLACK
    _check_bytes(need, f"{count} x {points} values and f")
    return need


def _check_bytes(need: int, what: str) -> None:
    """Raise MemoryError, naming `what` and its estimate, when `need` bytes
    exceed `PHYSICAL_MEMORY`."""
    if PHYSICAL_MEMORY is not None and need > PHYSICAL_MEMORY:
        raise MemoryError(f"{what} need {need} bytes, more than the "
                          f"{PHYSICAL_MEMORY} bytes of physical memory")


def _check_points(n: int, what: str) -> None:
    """Raise MemoryError, naming `what`, when 2^n bytes exceed
    `PHYSICAL_MEMORY`: every array of 2^n points takes more, so an n far
    past memory is refused before an estimate forms the n-bit integer 2^n."""
    if PHYSICAL_MEMORY is not None and n >= PHYSICAL_MEMORY.bit_length():
        raise MemoryError(f"{what}: 2^{n} points need more than the {PHYSICAL_MEMORY} bytes of physical memory")


#: The most bits `_fold_bits` folds by: sub-cubes of 2^{n-4} points.  Each
#: sub-cube reads the whole spectrum once per level or row, so the passes
#: over it double with each bit; at 4 bits the 14 level projections of an
#: n = 26 half-spectrum input already take less memory than f.
MAX_FOLD_BITS = 4


def _fold_bits(n: int, m: int, levels, points: int, dtype, side: str,
               most: int = MAX_FOLD_BITS) -> int:
    """The fewest bits b by which the engine folds its first `points` points
    (2^n or 2^{n-1}) onto sub-cubes of 2^{n-b} points whose terms fit in
    memory: at least 1 on the half cube, 0 on the whole cube, and at most
    `most` (or n).  Each b is checked by `_check_memory` with the sub-cube's
    points; when none fits, the MemoryError of the last is raised.  The
    engine's one choice, also made before a half-spectrum input is drawn."""
    least = int(points < 1 << n)
    for bits in range(least, max(least, min(n, most)) + 1):
        try:
            _check_memory(n, m, levels, (1 << n) >> bits, dtype, side)
            return bits
        except MemoryError as exc:
            refusal = exc
    raise refusal


def _signed_character(values: np.ndarray):
    """y when `values` are c chi_y with c = values[0] finite and non-zero,
    else None.  From the bottom bit up, the block [2^i, 2^{i+1}) must equal
    + or - the block [0, 2^i), and its sign is bit i of y; the blocks are
    compared `core.BLOCK` values at a time, so no 2^n temporary is made."""
    c = values[0]
    if c == 0 or not np.isfinite(c) or values[1] not in (c, -c):     # O(1) for most f
        return None
    y, half = 0, 1
    buf = np.empty(min(core.BLOCK, len(values) >> 1), dtype=values.dtype)
    while half < len(values):
        low, high = values[:half], values[half:2 * half]
        odd = bool(high[0] == -low[0])       # c != 0: high[0] cannot equal both
        for start in range(0, half, len(buf)):
            lo, hi = low[start:start + len(buf)], high[start:start + len(buf)]
            if odd:
                lo = np.negative(lo, out=buf[:len(lo)])
            if not np.array_equal(hi, lo):
                return None
        y |= odd * half
        half <<= 1
    return y


def _radial_terms(f: CubeFunction, rows, points=None, most: int = MAX_FOLD_BITS):
    """The spectrum of f, split the way `rows` are cheapest to apply, on the
    first `points` points of the cube: yields (coef, terms) for each sub-cube
    of those points in point order, terms holding its columns.

    `rows` is a real (m, n+1) matrix of multipliers indexed by Walsh level and
    f may be on either side.  `points` is 2^n (the default) or 2^{n-1}, the
    half cube.  Three routes, the cheapest that serves f:

    - Signed character: a physical f = c chi_y (c finite and non-zero;
      every witness), confirmed blockwise (`_signed_character`), is read in
      place: coef is the (m, 1) column of level |y| and terms a view of f.
      Traffic: one read of f; no spectrum, transform, popcount or fold.
    - Level projections: an f with fewer non-zero levels than there are
      rows (every half-spectrum draw) has each inverse-transformed once;
      coef is the (m, levels) columns of the rows and the result coef x
      terms (`_product`).  Traffic: a masked copy and a transform per level.
    - Per-row: every other f, and every one-row call, which does not look
      for f's levels.  coef is None and terms the (m, points) result itself,
      float64 when f.values are.  Traffic: a multiplied copy and a transform
      per row.

    Off the first route the levels are read off the spectrum: a physical
    f's transformed copy, or a spectral-side f where it is.  Every inverse
    transform is folded by b bits (`_fold_bits`, the fewest that fit, at
    most `most`; at least 1 on the half cube) onto sub-cubes of 2^{n-b}
    points: for x = c 2^{n-b} + x' and v split into the parts v(y_hi, .) of
    its top b bits,
    (H_{2^n} v)(x) = (H_{2^{n-b}} sum_{y_hi} (-1)^{|c & y_hi|} v(y_hi, .))(x'),
    and the spectral point (y_hi, y') has level |y_hi| + |y'|.  The sums
    are formed a `CHUNK` of points at a time (`_fold_projections`,
    `_fold_rows`), so no temporary of theirs grows with the points, and
    each row is transformed once its last chunk is in.  Every sub-cube
    refills the same terms buffer, valid until the next is asked for; with
    b = 0, or b = 1 on the half cube, there is one.  No reference to f or
    its spectrum is kept once the last terms are made.  When the estimate
    of `_check_memory` exceeds `PHYSICAL_MEMORY` at every b, MemoryError is
    raised before the terms are allocated.
    """
    n = f.n
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n + 1:
        raise ValueError(f"multiplier matrix of shape {rows.shape} does not match n={n}")
    size = 1 << n
    points = size if points is None else points
    if points not in (size, size >> 1):
        raise ValueError(f"{points} points: expected 2^{n} or 2^{n - 1}")
    if f.side == PHYSICAL:
        y = _signed_character(f.values)
        if y is not None:
            yield rows[:, [y.bit_count()]], f.values[None, :points]
            return
        spec = fwht(f.values.copy())
        scale = 2.0 ** -n                # both transforms' 2^{-n/2}, folded in
    else:
        spec = f.values
        scale = 2.0 ** (-n / 2)
    pc = popcounts(n)
    if len(rows) > 1:        # a CHUNK at a time: bincount takes an intp copy of its input
        levels = np.flatnonzero(sum(np.bincount(pc[s:s + CHUNK][spec[s:s + CHUNK] != 0], minlength=n + 1)
                                    for s in range(0, size, CHUNK)))
    else:        # one row takes the per-row route whatever levels f has, as if it had all
        levels = range(n + 1)
    rows = rows * scale
    bits = _fold_bits(n, len(rows), levels, points, spec.dtype, f.side, most)
    sub = size >> bits
    parts = [spec[h * sub:(h + 1) * sub] for h in range(1 << bits)]
    del f, spec          # the parts hold the spectrum until the last terms are made
    # the parts' indices h by level |h|, each level's in increasing order
    by_level = [[h for h in range(1 << bits) if h.bit_count() == j] for j in range(bits + 1)]
    pc, cubes, project = pc[:sub], points // sub, len(levels) < len(rows)
    if project:
        coef, terms = rows[:, levels], np.zeros((len(levels), sub), dtype=parts[0].dtype)
    else:
        coef, terms = None, np.empty((len(rows), sub), dtype=parts[0].dtype)
    for c in range(cubes):
        for s in range(0, sub, CHUNK):
            at = slice(s, s + CHUNK)
            cut = [part[at] for part in parts]
            if project:
                _fold_projections(terms[:, at], cut, by_level, pc[at], levels, c, n - bits)
            else:
                _fold_rows(terms[:, at], cut, by_level, pc[at], rows, c)
        del cut          # views of the parts: the spectrum lives as long as they do
        if c == cubes - 1:
            parts.clear()
        for t in terms:          # a row is whole only after its last chunk
            fwht(t)
        yield coef, terms


def _fold_projections(proj, parts, by_level, pc, levels, cube: int, top: int) -> None:
    """Row i of `proj`: level levels[i] of the spectrum (`parts`, split as in
    `_radial_terms`) folded onto sub-cube `cube`, before its inverse
    transform: each part added at the points of `pc` whose level (at most
    `top`, the sub-cube's top level) makes up levels[i] with its own, with
    its sign (-1)^{|cube & h|}; the first at a point is a copy (a negated
    one for sign -1) and every later one an add or subtract."""
    for p, w in zip(proj, levels):
        if cube:
            p.fill(0)
        for j, group in enumerate(by_level):
            if not 0 <= w - j <= top:
                continue
            mask = pc == w - j
            for i, h in enumerate(group):
                odd = (cube & h).bit_count() & 1
                if i == 0:
                    if odd:
                        np.negative(parts[h], out=p, where=mask)
                    else:
                        np.copyto(p, parts[h], where=mask)
                else:
                    (np.subtract if odd else np.add)(p, parts[h], out=p, where=mask)


def _fold_rows(out, parts, by_level, pc, rows, cube: int) -> None:
    """Row i of `out`: rows[i] applied to the spectrum (`parts`, split as in
    `_radial_terms`) folded onto sub-cube `cube`, before its inverse
    transform: each part multiplied by the row at its points' full levels
    and added with its sign (-1)^{|cube & h|}."""
    for o, row in zip(out, rows):
        for j, group in enumerate(by_level):
            gain = np.take(row[j:], pc)    # take: row[pc] is 2x slower on uint8
            for h in group:
                if j == 0:
                    np.multiply(parts[h], gain, out=o)
                else:
                    odd = (cube & h).bit_count() & 1
                    (np.subtract if odd else np.add)(o, parts[h] * gain, out=o)


def _product(coef, terms, out=None):
    """coef x terms: a broadcast multiply, with no BLAS call, for one column."""
    return (np.multiply if coef.shape[1] == 1 else np.matmul)(coef, terms, out=out)


def apply_radial_multipliers(f: CubeFunction, rows) -> np.ndarray:
    """Row i of the result is sum_w rows[i, w] P_w f on the physical side.

    `rows` is a real (m, n+1) matrix of multipliers indexed by Walsh level and
    f may be on either side; the result is (m, 2^n), float64 when f.values
    are, and equals its tiles (`_radial_multiplier_blocks`) when they are
    not folded.  The whole result is held, so its terms are not folded; a
    result formed from coef x terms is estimated before it is formed, as m
    rows beside the level projections it is formed from, or beside none for
    a signed character, whose terms are f itself, and beside f once (no
    spectrum copy is alive on either route by then), the popcounts and
    `ENGINE_SLACK`.
    """
    [(coef, terms)] = _radial_terms(f, rows, most=0)
    if coef is None:
        return terms
    held = len(coef) + (0 if np.shares_memory(terms, f.values) else len(terms))
    size = 1 << f.n
    _check_bytes((held + 1) * size * terms.itemsize + size + ENGINE_SLACK, f"{held} x {size} values and f")
    return _product(coef, terms)


def _radial_multiplier_blocks(f: CubeFunction, rows, points=None):
    """`apply_radial_multipliers(f, rows)[:, :points]` as a sequence of column
    tiles of `core.BLOCK` * 8 bytes per row: each holds the rows at the next
    `core.BLOCK` consecutive points of a real result, or half as many of a
    complex one, the width of one block of the pointwise DP.  `points` is 2^n
    (the default) or 2^{n-1}, for the half cube x < 2^{n-1}.  The engine
    folds its terms onto sub-cubes when they do not fit whole
    (`_radial_terms`), and the tiles walk the sub-cubes in point order, a
    tile never spanning two; the bits then differ from the whole result's
    by a few ulp.

    A tile is valid until the next one is drawn, and the consumer may
    overwrite it: no tile is a view of f.  For a signed character, and for
    an f with fewer non-zero levels than there are rows (every half-spectrum
    draw), each tile is formed from the terms as it is asked for
    (`_product`, as the whole result is), into one buffer that every tile
    reuses, so the (m, points) result is never held; otherwise the tiles are
    views of the terms.  No reference to f is kept here, so a caller that
    lets go of f frees its spectrum once the last terms are made.
    """
    subcubes = _radial_terms(f, rows, points)
    del f
    tile = None
    for coef, terms in subcubes:
        width = min(terms.shape[1], core.BLOCK * 8 // terms.itemsize)
        if coef is not None and tile is None:
            tile = np.empty((len(coef), width), dtype=terms.dtype)
        for start in range(0, terms.shape[1], width):
            block = terms[:, start:start + width]
            yield block if coef is None else _product(coef, block, tile[:, :block.shape[1]])


def _kraw_rows(n: int, radii) -> np.ndarray:
    """The multipliers of S_k for k in `radii`: Krawtchouk rows kappa^(n)_k(w).
    Radii outside 0..n, or none at all, raise ValueError."""
    table, radii = build_table(n), list(radii)      # the table refuses n > 64 first
    if not radii:
        raise ValueError(f"need at least one radius, got radii {radii}")
    for k in radii:
        if not (isinstance(k, (int, np.integer)) and 0 <= k <= n):
            raise ValueError(f"radius {k!r} outside 0..{n}")
    return table.float[radii]


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
