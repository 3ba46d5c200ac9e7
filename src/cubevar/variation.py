"""r-variation seminorms of finite sequences and the decomposition lemmas.

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
    scratch = None if in_place else np.empty((m, width), dtype=dtype)
    best = np.empty((sum(x != 1 for x in distinct), m, width))
    jump, square, cand = np.empty((3, width))
    diff = np.empty(width, dtype=dtype) if dtype.kind == "c" else jump
    out = np.empty((len(distinct), size))
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
    signed = np.isrealobj(diff) and orders == [2.0]
    cube = 3.0 in orders
    # a complex jump is subtracted as its float64 (re, im) pairs
    flat, flat_diff = block.view(np.float64), diff.view(np.float64)
    for j in range(1, len(block)):
        for i in range(j) if chains else (j - 1,):
            np.subtract(flat[i], flat[j], out=flat_diff)
            if not signed:                # a real jump's sign does not change its square
                np.abs(diff, out=jump)
            if i == j - 1:
                for k in sums:
                    out[k] += jump
            for (k, r), b in zip(chains, best):
                if r == 2:
                    term = square if cube else np.multiply(jump, jump, out=jump)
                elif r == 3:
                    term = np.multiply(jump, np.multiply(jump, jump, out=square), out=jump)
                else:
                    term = np.power(jump, r, out=cand)
                # b[j] = max over i < j of |s_i - s_j|^r + b[i]; every term
                # is >= 0, so the i = 0 term starts the maximum
                if i == 0:
                    b[j] = term
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


def _rand_sequence(rng, max_len=12):
    m = int(rng.integers(2, max_len + 1))
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _ragged_values(sequences, orders) -> np.ndarray:
    """`vr_pointwise_values` of sequences of different lengths in one call:
    one row per order, one column per sequence.  Each sequence is padded to
    the longest by repeating its last value; that adds only zero jumps, so
    each column keeps the bits of the sequence alone."""
    complex_ = any(np.iscomplexobj(seq) for seq in sequences)
    stack = np.empty((max(map(len, sequences)), len(sequences)),
                     dtype=np.complex128 if complex_ else np.float64)
    for j, seq in enumerate(sequences):
        stack[:len(seq), j] = seq
        stack[len(seq):, j] = seq[-1]
    return vr_pointwise_values(stack, orders)


#: The orders r of the seminorm property sweep.
SWEEP_ORDERS = (1.0, 2.0, 3.0)

#: Trials whose sequences share one `vr_pointwise_values` call in the property
#: sweep.  One call for all 200 trials of `verify` (about 5.2k columns) raised
#: its peak RSS by 7 MB; groups of 25 trace about 1.1 MB.
SWEEP_GROUP = 25


def check_variation_properties(trials: int, seed: int = 0) -> dict:
    """Randomized sweep of the seminorm properties over SWEEP_ORDERS; returns
    worst slack per property (negative slack would be a violation).

    Covers: monotonicity in r, subset monotonicity, reparametrization
    invariance, the triangle inequality, the ell^r bound with constant 2, and
    the dyadic decomposition bound with the explicit constant 3.  The
    sequences of SWEEP_GROUP trials are drawn first and then evaluated, at
    every order, in one `vr_pointwise_values` call.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    slack = {
        "monotone_in_r": math.inf,
        "subset_monotone": math.inf,
        "reparametrization": math.inf,   # worst absolute deviation from equality
        "triangle": math.inf,
        "ell_r_bound": math.inf,
        "dyadic_decomposition": math.inf,
    }
    sequences = []

    def add(seq) -> int:
        sequences.append(np.asarray(seq))
        return len(sequences) - 1

    for first in range(0, trials, SWEEP_GROUP):
        sequences.clear()
        cases = []
        for _ in range(min(SWEEP_GROUP, trials - first)):
            a = _rand_sequence(rng)
            m, ia = a.size, add(a)
            for k, r in enumerate(SWEEP_ORDERS):
                keep = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
                phi = np.sort(rng.integers(0, m, size=int(rng.integers(2, 2 * m))))
                b = _rand_sequence(rng, max_len=m)[:m]
                z = _dyadic_closed_set(rng)
                az = rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z))
                lookup = dict(zip(z, az))
                dyadic = [lookup[t] for t in z if t == int(dyadic_floor(t))]
                blocks = []
                j = 1
                while j <= z[-1]:
                    block = [lookup[t] for t in z if j <= t < 2 * j]
                    if block:
                        blocks.append(add(block))
                    j *= 2
                cases.append((
                    k, r, ia, add(a[keep]), add(a[phi]), add(a[np.unique(phi)]),
                    (add(b), add(a + b)) if b.size == m else None,
                    2.0 * float((np.abs(a) ** r).sum() ** (1 / r)),
                    add(az), add(dyadic), blocks,
                ))
        values = _ragged_values(sequences, SWEEP_ORDERS).tolist()
        for k, r, ia, ikeep, iphi, iimage, triangle, ell_r, iz, idyadic, blocks in cases:
            v = values[k]
            # (7): V_{r2} <= V_{r1} for r1 <= r2
            for v2, r2 in zip(values, SWEEP_ORDERS):
                if r2 >= r:
                    slack["monotone_in_r"] = min(slack["monotone_in_r"], v[ia] - v2[ia])
            # subset monotonicity
            slack["subset_monotone"] = min(slack["subset_monotone"], v[ia] - v[ikeep])
            # (23): precomposition with a nondecreasing map does not change the value
            slack["reparametrization"] = min(slack["reparametrization"], -abs(v[iphi] - v[iimage]))
            # (5): triangle inequality
            if triangle:
                ib, isum = triangle
                slack["triangle"] = min(slack["triangle"], v[ia] + v[ib] - v[isum])
            # (6): V_r <= 2 (sum |a_t|^r)^{1/r}
            slack["ell_r_bound"] = min(slack["ell_r_bound"], ell_r - v[ia])
            # (8): with Z in the positive integers closed under the dyadic
            # floor, which puts at least one power of two in Z
            block_sum = sum(v[i] ** r for i in blocks)
            bound = 3.0 * block_sum ** (1 / r) + v[idyadic]
            slack["dyadic_decomposition"] = min(slack["dyadic_decomposition"], bound - v[iz])
    slack["worst"] = min(v for v in slack.values())
    return slack


def _dyadic_closed_set(rng, max_val=64):
    """Random subset of {1..max_val} closed under the dyadic floor."""
    base = set(int(v) for v in rng.integers(1, max_val + 1, size=int(rng.integers(2, 10))))
    for t in list(base):
        base.add(int(dyadic_floor(t)))
    return sorted(base)


def check_chain_lemma(l: int, M: int, s: float, trials: int, seed: int = 0) -> dict:
    """Randomized check of the chaining bound

        V_s(a_k : k in {0..2^l} cap (-inf, M])
            <= 2^{1-1/s} sum_g ( sum_{h 2^g <= M} |a_{(h-1)2^g} - a_{h 2^g}|^s )^{1/s}.

    Every trial's sequence is drawn first; their V_s come from one
    `vr_pointwise_values` call.  Returns the worst slack (must be >= 0)."""
    _check_order(s)
    if trials < 1:
        raise ValueError("need at least one trial")
    if l < 0 or l > 10:
        raise ValueError("l capped at 10")
    rng = np.random.default_rng(seed)
    domain = [k for k in range((1 << l) + 1) if k <= M]
    if len(domain) == 0:
        raise ValueError("empty domain")
    draws = np.empty((len(domain), trials), dtype=np.complex128)
    for t in range(trials):
        draws[:, t] = rng.standard_normal(len(domain)) + 1j * rng.standard_normal(len(domain))
    worst = math.inf
    for a, lhs in zip(draws.T, vr_pointwise_values(draws, s).tolist()):
        lookup = dict(zip(domain, a))
        rhs = 0.0
        for g in range(l + 1):
            jumps = [abs(lookup[(h - 1) << g] - lookup[h << g])
                     for h in range(1, (1 << (l - g)) + 1) if h << g <= M]
            if jumps:       # none when 2^g > M
                # scaled by 2^-e, the largest jump lies in [1/2, 1): its s-th power cannot overflow
                e = math.frexp(max(jumps))[1]
                rhs += math.ldexp(sum(math.ldexp(j, -e) ** s for j in jumps) ** (1 / s), e)
        rhs *= 2.0 ** (1 - 1 / s)
        worst = min(worst, rhs - lhs)
    return {"l": l, "M": M, "s": s, "trials": trials, "worst_slack": worst}
