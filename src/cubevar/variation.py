"""r-variation seminorms of finite sequences and dyadic decompositions.

The exact value is a longest-path computation on the index DAG: the objective
is additive in r-th powers of jumps, so a quadratic DP over the last chosen
index is exact.  `vr_pointwise_values` runs it on every column of a matrix at
once; it is the one V_r engine of the package, behind the pipeline, the
character scans and the lemma checks alike.
"""
from __future__ import annotations

import math

import numpy as np

from . import core


#: The largest variation order r accepted.  `_unit_shift` scales each column
#: so that its largest |jump| lies in [1/4, 1), so the largest |jump|^r can
#: be as small as 4^-r, which is a normal double, at least 2^-1022, only for
#: r <= 511.  Above that it is subnormal and loses bits, and above about 537
#: it is flushed to 0, so V_r would read 0.
MAX_ORDER = 511


def _check_order(r: float) -> None:
    if not (math.isfinite(r) and 1 <= r <= MAX_ORDER):
        raise ValueError(f"variation order r must be finite and in [1, {MAX_ORDER}], got {r}")


def _unit_shift(spread, first):
    """Exponents s by which the columns are scaled, by 2^s, before their DP,
    and where a_0 is subtracted from a column first (a bool mask, or False
    for every column when no column needs it).

    `spread` is max_j |a_j - a_0| and `first` is |a_0|, per column.  With s
    from the spread, spread * 2^s < 1/2, so every |jump| (at most twice the
    spread) is below 1: no |jump|^r overflows, and sequences whose jumps are
    large or tiny against 1 (1e200, 1e-120) or against their values (1 and
    1 + 2^-20) keep their r-th powers in range.  A scaled value can reach
    |a_0| 2^s, so where that could pass 2^1022 (complex values whose spread
    is far below their size) a_0 is subtracted first: the values are then
    the a_j - a_0, at most the spread, and the jumps keep their size where
    a cap on s would flush them to 0.  Every other column is scaled as it
    is.  V_r is translation invariant and 1-homogeneous, and a power of two
    scales exactly, so V_r of the scaled sequence times 2^-s is V_r of the
    sequence up to the rounding of the r-th powers and root (none for r = 1,
    nor for r = 2 where the root is `np.sqrt`).  s is at most 1023 so that
    2^s is a finite double.
    """
    shift = np.minimum(-(np.frexp(spread)[1] + 1), 1023)
    top = 1021 - np.frexp(first)[1]
    # a mask only where some column may need one: a bool mask on every
    # block raised the peak RSS of the n = 20 witness by about 0.2 MB
    return shift, shift > top if shift.max() > top.min() else False


def _aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """np.empty(shape, dtype) with its data on a 64-byte cache-line boundary.

    numpy aligns to 16 bytes only, and whether a buffer lands on a line moves
    with the heap layout of the process.  The DP's buffers off a line made an
    n = 20 witness block about 20% slower (AVX-512 vector loads that span
    two lines), and so made its run time depend on unrelated code."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _orders(r) -> list:
    """The orders in `r` (one order or a sequence of them), each checked."""
    orders = [float(x) for x in np.ravel(r)]
    if not orders:
        raise ValueError("need at least one variation order")
    for x in orders:
        _check_order(x)
    return orders


#: The pass order of `_vr_block`: orders other than 2 and 3 first, as they
#: read the jump; then 3, which overwrites the jump with its cube; then 2,
#: which reads and overwrites the square (or the jump, without r = 3).
_PASS = {3.0: 1, 2.0: 2}


def vr_pointwise_values(stack: np.ndarray, r, *, overwrite: bool = False) -> np.ndarray:
    """Vectorized r-variation across axis 0 of a (sequence, points) matrix.

    `r` is one order, for one value per point, or a sequence of orders, for
    one row per order in the given order; every order is computed in the same
    pass over the stack.  The DP (`_vr_block`) runs over column blocks
    `core.BLOCK` * 8 bytes wide per sequence, `core.BLOCK` points of real
    input, half as many of complex input, with its tables allocated once per
    call.  It scales each block in place, in one scratch buffer that each
    block is copied into, so `stack` is never written; with `overwrite`, a
    float64 or complex128 `stack` whose rows are contiguous is scaled where
    it is instead, and its values are lost.  Each point's column is scaled
    by its own power of two (`_unit_shift`), so the result does not depend
    on the block width.
    """
    stack = np.asarray(stack)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError("expected a nonempty (sequence, points) matrix")
    orders = _orders(r)
    distinct = sorted(set(orders), key=lambda x: _PASS.get(x, 0))
    m, size = stack.shape
    dtype = np.result_type(stack, np.float64)
    width = max(1, min(size, core.BLOCK * 8 // dtype.itemsize))
    in_place = (overwrite and stack.dtype == dtype and stack.flags.writeable
                and stack.strides[1] == dtype.itemsize)
    scratch = None if in_place else _aligned_empty((m, width), dtype)
    best = _aligned_empty((sum(x != 1 for x in distinct), m, width))
    jump, square, cand = _aligned_empty((3, width))
    diff = _aligned_empty((width,), dtype) if dtype.kind == "c" else jump
    out = _aligned_empty((len(distinct), size))
    for start in range(0, size, width):
        block = stack[:, start:start + width]
        w = block.shape[1]
        if scratch is not None:
            block = scratch[:, :w]
            block[...] = stack[:, start:start + w]
        _vr_block(block, distinct, diff[:w], best[:, :, :w], jump[:w], square[:w], cand[:w],
                  out[:, start:start + w])
    if np.ndim(r) == 0:
        return out[0]
    return out[[distinct.index(x) for x in orders]]


def _link_bounds(block, orders, top, bottom):
    """Bounds on the terms |s_i - s_j|^r of the scaled real `block`: for each
    order r, a list whose entry [j][i] is at least the term of the link
    (i, j) in every column, or None when a value of the block is not finite.
    `top` and `bottom` are scratch rows of the block's width.

    |s_i - s_j| is at most J, the largest column range max_k s_k - min_k s_k,
    and at most max(hi_i - lo_j, hi_j - lo_i), with hi and lo the largest and
    smallest value of each row; rounding is monotone, so the smaller of the
    two, in floats, is at least every fl(|s_i - s_j|).  For r = 2 and 3 it
    is put through the products the DP forms, so the bound is at least every
    term exactly; for any other r it is raised by 2^-40 of itself first, far
    above the error of the powers, and the bound is at least 2^-1000, above
    any power that rounds in the subnormal range."""
    np.max(block, axis=0, out=top)
    np.min(block, axis=0, out=bottom)
    J = np.subtract(top, bottom, out=top).max()
    hi, lo = block.max(axis=1), block.min(axis=1)
    reach = np.minimum(np.maximum(hi[:, None] - lo, hi - lo[:, None]), J)
    if not np.isfinite(reach).all():
        return None
    bounds = []
    for r in orders:
        if r == 2:
            bound = reach * reach
        elif r == 3:
            bound = reach * (reach * reach)
        else:
            bound = np.maximum(np.power(reach * (1.0 + 2.0 ** -40), r), 2.0 ** -1000)
        bounds.append(bound.T.tolist())
    return bounds


def _kept_links(bound, b, j, tops) -> list:
    """For each link i < j, whether its candidate |s_i - s_j|^r + b[i] can
    exceed b[j-1] in some column, when `bound[i]` bounds its term.  A link
    with fl(bound[i] + max b[i]) <= min b[j-1] cannot: its candidate is at
    most b[j-1], at most the candidate of link j - 1, which is always kept.
    Before any reduction, the least bound is compared with b[j-1] at three
    columns (b[i] >= 0), so a row where no link can be dropped costs O(1).
    `tops` caches max b[i], None where it is not formed yet."""
    last = b[j - 1]
    least = min(bound[:j - 1], default=math.inf)
    if not (least <= last[0] and least <= last[len(last) // 2] and least <= last[-1]):
        return [True] * j
    low = float(last.min())
    kept = [True] * j
    for i in range(j - 1):
        if bound[i] <= low:              # else fl(bound[i] + max b[i]) > low too
            if tops[i] is None:
                tops[i] = float(b[i].max())
            kept[i] = bound[i] + tops[i] > low
    return kept


def _vr_block(block, orders, diff, best, jump, square, cand, out) -> None:
    """V_r of each column of `block` into row k of `out`, r the k-th order.

    `block` is scaled in place and left scaled.  `orders` are distinct and in
    the pass order `_PASS`.  The other arguments are scratch buffers of the
    block's width: `diff` is `jump` itself unless the input is complex, and
    `best` holds one (sequence, points) DP table per order other than 1.
    Each pair's jump |s_i - s_j| is formed once and serves every order;
    r = 2 and r = 3 share its square.  Each order's term is summed and
    compared in place: on 2^14 doubles a ufunc that writes a third buffer
    took twice as long as one that writes an input.  V_1 is the sum of the
    adjacent jumps: refining a chain never lowers its 1-variation.

    In a real block, a link i < j - 1 that cannot win in any column is
    skipped (`_link_bounds`, `_kept_links`): when no order keeps it no jump
    is formed, and otherwise the orders that drop it leave out only its sum
    and maximum.  The maximum is exact and a dropped candidate never exceeds
    a kept one, so every output keeps its bits.  A complex block has no
    tight bound on its terms and runs every link.
    """
    spread = out[0]                      # max_j |a_j - a_0| until the DP starts
    spread.fill(0.0)
    for row in block[1:]:
        np.abs(np.subtract(row, block[0], out=diff), out=cand)
        np.maximum(spread, cand, out=spread)
    shift, recenter = _unit_shift(spread, np.abs(block[0], out=cand))
    if np.any(recenter):
        np.subtract(block, block[0], out=block, where=recenter)   # numpy buffers block[0]
    np.multiply(block, np.ldexp(1.0, shift, out=cand), out=block)
    sums = [k for k, r in enumerate(orders) if r == 1]
    chains = [(k, r) for k, r in enumerate(orders) if r != 1]
    out[sums] = 0.0
    best[:, 0] = 0.0
    real = np.isrealobj(diff)
    bounds = _link_bounds(block, [r for _, r in chains], jump, square) if real and chains else None
    tops = [[None] * len(block) for _ in chains]
    # a complex jump is subtracted as its float64 (re, im) pairs
    flat, flat_diff = block.view(np.float64), diff.view(np.float64)
    for j in range(1, len(block)):
        if bounds:
            keeps = [_kept_links(bound[j], b, j, t) for bound, b, t in zip(bounds, best, tops)]
            links = [i for i in range(j) if any(keep[i] for keep in keeps)]
        else:
            keeps = [[True] * j] * len(chains)
            links = range(j) if chains else (j - 1,)
        starts = [keep.index(True) for keep in keeps]
        for i in links:
            np.subtract(flat[i], flat[j], out=flat_diff)
            np.abs(diff, out=jump)
            if i == j - 1:
                for k in sums:
                    out[k] += jump
            cubed = False
            for (k, r), b, keep, start in zip(chains, best, keeps, starts):
                if not keep[i]:
                    continue
                if r == 2:
                    term = square if cubed else np.multiply(jump, jump, out=jump)
                elif r == 3:
                    term = np.multiply(jump, np.multiply(jump, jump, out=square), out=jump)
                    cubed = True
                else:
                    term = np.power(jump, r, out=cand)
                # b[j] = max over i < j of |s_i - s_j|^r + b[i]; every term
                # is >= 0, so the first kept candidate starts the maximum
                if i == 0:
                    b[j] = term
                elif i == start:
                    np.add(term, b[i], out=b[j])
                else:
                    term += b[i]
                    np.maximum(b[j], term, out=b[j])
    for (k, r), b in zip(chains, best):
        out[k] = b[-1]       # b[j] >= fl(term + b[j-1]) >= b[j-1]: the last row is the max
        out[k] **= 1.0 / r
    np.ldexp(out, -shift, out=out)


def dyadic_floor(t: float) -> float:
    """Largest power of two (any integer exponent) not exceeding t."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"dyadic floor defined for finite positive t only, got {t}")
    mantissa, exponent = math.frexp(t)   # t = mantissa * 2^exponent, mantissa in [0.5, 1)
    return math.ldexp(1.0, exponent - 1)


def dyadic_partition(a: int, b: int, l: int) -> list:
    """Partition of [a, b) into aligned dyadic intervals [(h-1)2^g, h*2^g).

    Greedy largest-aligned-block-from-the-left; yields at most two intervals
    per scale g in {0, ..., l}.
    """
    if not (0 <= a < b <= (1 << l)):
        raise ValueError(f"invalid range [{a}, {b}) for l={l}")
    intervals = []
    start = a
    while start < b:
        g = l
        while g > 0 and (start % (1 << g) != 0 or start + (1 << g) > b):
            g -= 1
        intervals.append((start, start + (1 << g)))
        start += 1 << g
    return intervals
