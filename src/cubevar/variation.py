"""r-variation seminorms of finite sequences and the decomposition lemmas.

The exact value is a longest-path computation on the index DAG: the objective
is additive in r-th powers of jumps, so a quadratic DP over the last chosen
index is exact.  A subset-enumeration brute force serves as the independent
oracle for short sequences.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import core


@dataclass
class VariationResult:
    r: float
    value: float
    chain: list

    def to_json(self) -> str:
        return json.dumps({"r": self.r, "value": self.value, "chain": list(self.chain)})


def _check_order(r: float) -> None:
    if not (math.isfinite(r) and r >= 1):
        raise ValueError(f"variation order r must be finite and >= 1, got {r}")


def _unit_shift(spread, first):
    """Exponent s by which a sequence is scaled, by 2^s, before its DP
    (elementwise).

    `spread` is max_j |a_j - a_0| and `first` is |a_0|.  With s from the
    spread, spread * 2^s < 1/2, so every |jump| (at most twice the spread)
    is below 1: no |jump|^r overflows, and sequences whose jumps are large
    or tiny against 1 (1e200, 1e-120) or against their values (1 and
    1 + 2^-20) keep their r-th powers in range.  The cap from |a_0| keeps
    every scaled value below 2^1022 (|a_j| <= |a_0| + spread); complex
    values whose spread is far below their size need it.  V_r is
    1-homogeneous and a power of two scales exactly, so V_r of the scaled
    sequence times 2^-s is V_r of the sequence up to the rounding of the
    r-th powers and root (none for r = 1, nor for r = 2 where the root is
    `np.sqrt`).  s is at most 1023 so that 2^s is a finite double.
    """
    if isinstance(spread, float):        # one sequence: skip numpy's scalar overhead
        return min(-(math.frexp(spread)[1] + 1), 1021 - math.frexp(first)[1], 1023)
    return np.minimum(np.minimum(-(np.frexp(spread)[1] + 1), 1021 - np.frexp(first)[1]), 1023)


def vr_exact(values, r: float, labels=None) -> VariationResult:
    """Exact r-variation of a finite sequence plus one maximizing chain.

    The chain reported is the lexicographically smallest maximizer (suffix DP
    with strict-improvement updates, scanned left to right).  The sequence is
    scaled by a power of two first (`_unit_shift`).
    """
    a = np.asarray(values, dtype=np.complex128)
    if a.size == 0:
        raise ValueError("variation of an empty sequence is undefined")
    _check_order(r)
    a = a.tolist()            # Python complex: scalar arithmetic without numpy overhead
    shift = _unit_shift(max(abs(v - a[0]) for v in a), abs(a[0]))
    scale = math.ldexp(1.0, shift)
    a = [v * scale for v in a]
    m = len(a)
    down = [0.0] * m          # best sum of |jump|^r over chains starting at j
    nxt = [None] * m
    for j in range(m - 2, -1, -1):
        best, choice = 0.0, None
        for k in range(j + 1, m):
            cand = abs(a[j] - a[k]) ** r + down[k]
            if cand > best:
                best, choice = cand, k
        down[j], nxt[j] = best, choice
    total = max(down)
    start = down.index(total)
    chain = [start]
    while nxt[chain[-1]] is not None:
        chain.append(nxt[chain[-1]])
    if labels is not None:
        chain = [labels[j] for j in chain]
    return VariationResult(r, math.ldexp(total ** (1.0 / r), -shift), chain)


def vr_bruteforce(values, r: float) -> float:
    """Oracle: exhaustive maximum over all index subsets taken as chains."""
    a = np.asarray(values, dtype=np.complex128)
    if a.size == 0:
        raise ValueError("variation of an empty sequence is undefined")
    if a.size > 16:
        raise ValueError("brute force capped at 16 entries")
    _check_order(r)
    best = 0.0
    idx = range(a.size)
    for j in range(2, a.size + 1):
        for chain in itertools.combinations(idx, j):
            s = 0.0
            for i0, i1 in zip(chain, chain[1:]):
                s += abs(a[i0] - a[i1]) ** r
            best = max(best, s)
    return best ** (1.0 / r)


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


def vr_pointwise_values(stack: np.ndarray, r) -> np.ndarray:
    """Vectorized r-variation across axis 0 of a (sequence, points) matrix.

    `r` is one order, for one value per point, or a sequence of orders, for
    one row per order in the given order; every order is computed in the same
    pass over the stack.  The DP runs over column blocks of `core.BLOCK`
    points in buffers allocated once per call.  Each point's column is scaled
    by its own power of two first (`_unit_shift`), so the result does not
    depend on the block width.
    """
    stack = np.asarray(stack)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError("expected a nonempty (sequence, points) matrix")
    orders = _orders(r)
    distinct = sorted(set(orders), key=lambda x: _PASS.get(x, 0))
    m, size = stack.shape
    width = max(1, min(size, core.BLOCK))
    scaled = np.empty((m, width), dtype=np.result_type(stack, np.float64))
    best = np.empty((sum(x != 1 for x in distinct), m, width))
    jump, square, cand = np.empty((3, width))
    diff = np.empty(width, dtype=scaled.dtype) if np.iscomplexobj(scaled) else jump
    out = np.empty((len(distinct), size))
    for start in range(0, size, width):
        block = stack[:, start:start + width]
        w = block.shape[1]
        _vr_block(block, distinct, scaled[:, :w], diff[:w], best[:, :, :w],
                  jump[:w], square[:w], cand[:w], out[:, start:start + w])
    if np.ndim(r) == 0:
        return out[0]
    return out[[distinct.index(x) for x in orders]]


def _vr_block(block, orders, scaled, diff, best, jump, square, cand, out) -> None:
    """V_r of each column of `block` into row k of `out`, r the k-th order.

    `orders` are distinct and in the pass order `_PASS`.  The other arguments
    are scratch buffers of the block's width: `diff` is `jump` itself unless
    the input is complex, and `best` holds one (sequence, points) DP table
    per order other than 1.  Each pair's jump |s_i - s_j| is formed once and
    serves every order; r = 2 and r = 3 share its square.  Each order's term
    is summed and compared in place: on 2^14 doubles a ufunc that writes a
    third buffer took twice as long as one that writes an input.  V_1 is the
    sum of the adjacent jumps: refining a chain never lowers its 1-variation.
    """
    spread = out[0]                      # max_j |a_j - a_0| until the DP starts
    spread.fill(0.0)
    for row in block[1:]:
        np.abs(np.subtract(row, block[0], out=diff), out=cand)
        np.maximum(spread, cand, out=spread)
    shift = _unit_shift(spread, np.abs(block[0], out=cand))
    np.multiply(block, np.ldexp(1.0, shift), out=scaled)
    sums = [k for k, r in enumerate(orders) if r == 1]
    chains = [(k, r) for k, r in enumerate(orders) if r != 1]
    out[sums] = 0.0
    best[:, 0] = 0.0
    signed = np.isrealobj(diff) and orders == [2.0]
    cube = 3.0 in orders
    # a complex jump is subtracted as its float64 (re, im) pairs
    flat, flat_diff = scaled.view(np.float64), diff.view(np.float64)
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
        np.max(b, axis=0, out=out[k])
        out[k] **= 1.0 / r
    np.ldexp(out, -shift, out=out)


def dyadic_floor(t: float) -> float:
    """Largest power of two (any integer exponent) not exceeding t."""
    if t <= 0:
        raise ValueError("dyadic floor defined for positive t only")
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


def check_variation_properties(trials: int, seed: int = 0, r_list=(1.0, 2.0, 3.0)) -> dict:
    """Randomized sweep of the seminorm properties; returns worst slack per
    property (negative slack would be a violation).

    Covers: monotonicity in r, subset monotonicity, reparametrization
    invariance, the triangle inequality, the ell^r bound with constant 2, and
    the dyadic decomposition bound with the explicit constant 3.
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
    for _ in range(trials):
        a = _rand_sequence(rng)
        m = a.size
        for r in r_list:
            va = vr_exact(a, r).value
            # (7): V_{r2} <= V_{r1} for r1 <= r2
            for r2 in r_list:
                if r2 >= r:
                    slack["monotone_in_r"] = min(
                        slack["monotone_in_r"], va - vr_exact(a, r2).value
                    )
            # subset monotonicity
            keep = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            slack["subset_monotone"] = min(
                slack["subset_monotone"], va - vr_exact(a[keep], r).value
            )
            # (23): precomposition with a nondecreasing map does not change the value
            phi = np.sort(rng.integers(0, m, size=int(rng.integers(2, 2 * m))))
            image = np.unique(phi)
            dev = abs(vr_exact(a[phi], r).value - vr_exact(a[image], r).value)
            slack["reparametrization"] = min(slack["reparametrization"], -dev)
            # (5): triangle inequality
            b = _rand_sequence(rng, max_len=m)[:m]
            if b.size == m:
                slack["triangle"] = min(
                    slack["triangle"],
                    va + vr_exact(b, r).value - vr_exact(a + b, r).value,
                )
            # (6): V_r <= 2 (sum |a_t|^r)^{1/r}
            slack["ell_r_bound"] = min(
                slack["ell_r_bound"], 2.0 * float((np.abs(a) ** r).sum() ** (1 / r)) - va
            )
            # (8): with Z in the positive integers closed under the dyadic floor
            z = _dyadic_closed_set(rng)
            az = rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z))
            lookup = dict(zip(z, az))
            vz = vr_exact(az, r).value
            dyadic_pts = [t for t in z if t == int(dyadic_floor(t))]
            v_dyadic = (
                vr_exact([lookup[t] for t in dyadic_pts], r).value if dyadic_pts else 0.0
            )
            block_sum = 0.0
            k = 1
            while k <= z[-1]:
                block = [lookup[t] for t in z if k <= t < 2 * k]
                if block:
                    block_sum += vr_exact(block, r).value ** r
                k *= 2
            bound = 3.0 * block_sum ** (1 / r) + v_dyadic
            slack["dyadic_decomposition"] = min(slack["dyadic_decomposition"], bound - vz)
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

    Returns the worst slack (must be >= 0)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    if l < 0 or l > 10:
        raise ValueError("l capped at 10")
    rng = np.random.default_rng(seed)
    domain = [k for k in range((1 << l) + 1) if k <= M]
    if len(domain) == 0:
        raise ValueError("empty domain")
    worst = math.inf
    for _ in range(trials):
        a = rng.standard_normal(len(domain)) + 1j * rng.standard_normal(len(domain))
        lookup = dict(zip(domain, a))
        lhs = vr_exact(a, s).value
        rhs = 0.0
        for g in range(l + 1):
            inner = 0.0
            for h in range(1, (1 << (l - g)) + 1):
                if h * (1 << g) <= M:
                    inner += abs(lookup[(h - 1) << g] - lookup[h << g]) ** s
            rhs += inner ** (1 / s)
        rhs *= 2.0 ** (1 - 1 / s)
        worst = min(worst, rhs - lhs)
    return {"l": l, "M": M, "s": s, "trials": trials, "worst_slack": worst}
