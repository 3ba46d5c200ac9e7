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
from .core import PHYSICAL, CubeFunction


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


def _unit_shift(top):
    """Exponent s with top * 2^s < 1/2 (top >= 0, elementwise).

    Scaling a sequence whose largest |value| is `top` by 2^s brings every
    |jump| below 1, so no |jump|^r overflows and large or tiny sequences
    (1e200, 1e-120) keep their r-th powers in range.  V_r is 1-homogeneous
    and a power of two scales exactly, so V_r of the scaled sequence times
    2^-s is V_r of the sequence up to the rounding of the r-th powers and
    root (none for r = 1, nor for r = 2 where the root is `np.sqrt`).
    s is capped at 1023 so that 2^s is a finite double.
    """
    if isinstance(top, float):           # one sequence: skip numpy's scalar overhead
        return min(-(math.frexp(top)[1] + 1), 1023)
    return np.minimum(-(np.frexp(top)[1] + 1), 1023)


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
    shift = _unit_shift(max(map(abs, a)))
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


def vr_pointwise_values(stack: np.ndarray, r: float) -> np.ndarray:
    """Vectorized r-variation across axis 0 of a (sequence, points) matrix.

    The DP runs over column blocks of `core.BLOCK` points in buffers
    allocated once per call.  Each point's column is scaled by its own power
    of two first (`_unit_shift`), so the result does not depend on the block
    width.
    """
    stack = np.asarray(stack)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError("expected a nonempty (sequence, points) matrix")
    _check_order(r)
    m, size = stack.shape
    width = max(1, min(size, core.BLOCK))
    scaled = np.empty((m, width), dtype=np.result_type(stack, np.float64))
    diff = np.empty(width, dtype=scaled.dtype) if np.iscomplexobj(scaled) else None
    best = np.empty((m, width))
    cand = np.empty(width)
    out = np.empty(size)
    for start in range(0, size, width):
        block = stack[:, start:start + width]
        w = block.shape[1]
        _vr_block(block, r, scaled[:, :w], None if diff is None else diff[:w],
                  best[:, :w], cand[:w], out[start:start + w])
    return out


def _vr_block(block, r, scaled, diff, best, cand, out) -> None:
    """V_r of each column of `block` into `out`; the other arguments are
    scratch buffers of the block's width (`diff` only for complex input)."""
    np.abs(block[0], out=out)            # out holds max |value| until the end
    for row in block[1:]:
        np.maximum(out, np.abs(row, out=cand), out=out)
    shift = _unit_shift(out)
    np.multiply(block, np.ldexp(1.0, shift), out=scaled)
    best[0] = 0.0
    for j in range(1, len(block)):
        for i in range(j):
            # best[j] = max over i < j of |s_i - s_j|^r + best[i]; every
            # term is >= 0, so the i = 0 term starts the maximum
            jump = best[j] if i == 0 else cand
            if diff is None:
                np.subtract(scaled[i], scaled[j], out=jump)
                if r != 2:
                    np.abs(jump, out=jump)
            else:
                np.abs(np.subtract(scaled[i], scaled[j], out=diff), out=jump)
            if r == 2:
                np.multiply(jump, jump, out=jump)
            elif r != 1:
                np.power(jump, r, out=jump)
            if i:
                cand += best[i]
                np.maximum(best[j], cand, out=best[j])
    np.max(best, axis=0, out=out)
    if r != 1:
        out **= 1.0 / r
    np.ldexp(out, -shift, out=out)


def vr_pointwise(functions, r: float) -> CubeFunction:
    """x -> V_r of the sequence of function values at x, as a CubeFunction."""
    if not functions:
        raise ValueError("need at least one function")
    n = functions[0].n
    for f in functions:
        if f.n != n:
            raise ValueError("dimension mismatch in function sequence")
        if f.side != PHYSICAL:
            raise ValueError("pointwise variation expects physical-side functions")
    stack = np.vstack([f.values for f in functions])
    return CubeFunction(n, vr_pointwise_values(stack, r).astype(np.complex128))


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
