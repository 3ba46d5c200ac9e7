"""The check battery: one registry of named numerical checks of the lemmas the
lower bounds rest on, shared by `cubevar verify` and the acceptance tests.
Each check takes its sizes as arguments and returns (worst value, witness).
Every check body lives here; the math modules hold only the library the
checks call.
"""
from __future__ import annotations

import math
import operator
import time
from collections import Counter
from fractions import Fraction

import numpy as np

# Called through their modules, so that rebinding a module's attribute (as
# perfbench's tracer does) reaches these calls too.
from . import core, krawtchouk, operators, variation
from .core import SPECTRAL, CubeFunction

#: Noise parameters t of the N_t cross-validation and the semigroup axioms.
T_GRID = (0.01, 0.1, 1.0, math.log(2), 5.0)


def krawtchouk_identity_failures(dims):
    """Failed instances of the exact Krawtchouk identities, summed over n in
    dims: |kappa| <= 1, kappa_k(0) = 1, symmetry in (k, x), the (-1)^k
    reflection at x -> n - x, and, for n >= 2, the difference identity
    kappa^(n)_k(x) - kappa^(n)_k(x-1) = -(2k/n) kappa^(n-1)_{k-1}(x-1)."""
    failures = 0
    for n in dims:
        t = krawtchouk.build_table(n).exact
        for k in range(n + 1):
            for x in range(n + 1):
                v = t[k][x]
                failures += ((abs(v) > 1) + (x == 0 and v != 1) + (v != t[x][k])
                             + (v != (-1) ** k * t[k][n - x]))
        if n >= 2:
            s = krawtchouk.build_table(n - 1).exact
            failures += sum(t[k][x] - t[k][x - 1] != Fraction(-2 * k, n) * s[k - 1][x - 1]
                            for k in range(1, n + 1) for x in range(1, n + 1))
    return failures, None


def bound_a_max_ratio(dims):
    """Exact max of |kappa_k(x) - 1| n/(kx) over dims (sharp constant 2), and its (k, x)."""
    return max(map(krawtchouk.bound_scan_a, dims), key=operator.itemgetter(0))


def _random_functions(dims, seed):
    rng = np.random.default_rng(seed)
    for n in dims:
        yield CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))


def _spectral(f):
    """f on the spectral side, by one forward transform: the engine's S_k of
    it then runs one inverse transform per radius and no forward one."""
    return CubeFunction(f.n, operators.fwht(f.values.copy()) * 2.0 ** (-f.n / 2), SPECTRAL)


def _worst_gap(pairs):
    """Largest |a - b| over pairs of value arrays."""
    return max((float(np.abs(a - b).max()) for a, b in pairs), default=0.0), None


def spherical_cross_validation(dims, seed):
    """Worst gap of the direct and the multiplier S_k f over every radius k,
    for one random complex f per entry of dims, drawn in order from seed; the
    direct side averages f itself, the multiplier side starts from its
    spectrum."""
    return _worst_gap((operators.spherical_mean_direct(f, k).values,
                       operators.spherical_mean_multiplier(spec, k).values)
                      for f in _random_functions(dims, seed)
                      for spec in [_spectral(f)] for k in range(f.n + 1))


def noise_cross_validation(dims, seed):
    """Worst gap of the binomial-mixture and the multiplier N_t f over T_GRID,
    for the same random functions as spherical_cross_validation."""
    return _worst_gap((operators.noise_binomial(f, t).values, operators.noise_multiplier(f, t).values)
                      for f in _random_functions(dims, seed) for t in T_GRID)


def antipodal_max_violation(dims, seed):
    """Worst |S_k f(x XOR 1_n) - S_{n-k} f(x)| over k = 0..n/2 and every x,
    for the same random functions as spherical_cross_validation; one radius
    pair is held at a time, never the (n+1) x 2^n stack; both start from the
    spectrum of f."""
    return _worst_gap((operators.spherical_mean_multiplier(spec, k).values[::-1],
                       operators.spherical_mean_multiplier(spec, spec.n - k).values)
                      for spec in map(_spectral, _random_functions(dims, seed))
                      for k in range(spec.n // 2 + 1))


def semigroup_max_violation(cases, seed):
    """Worst violation of the four diffusion-semigroup axioms of N_t over
    T_GRID, per (n, trials) case, on random inputs drawn from seed for each
    case: contraction in p = 1, 2, inf; self-adjointness; positivity on
    nonnegative inputs; conservation of constants.  Inner products are
    numpy's pairwise sums: a BLAS dot product's order follows its threads."""
    worst = 0.0
    for n, trials in cases:
        rng = np.random.default_rng(seed)
        size = 1 << n
        ones = CubeFunction(n, np.ones(size))
        for t in T_GRID:
            c = operators.noise_multiplier(ones, t)
            worst = max(worst, float(np.abs(c.values - 1).max()))
            for _ in range(trials):
                f = CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))
                g = CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))
                nf = operators.noise_multiplier(f, t)
                for p in (1, 2, math.inf):
                    worst = max(worst, nf.norm(p) - f.norm(p))
                lhs = np.sum(np.conj(g.values) * nf.values)
                rhs = np.sum(np.conj(operators.noise_multiplier(g, t).values) * f.values)
                worst = max(worst, abs(lhs - rhs))
                pos = CubeFunction(n, np.abs(rng.standard_normal(size)))
                worst = max(worst, float(-operators.noise_multiplier(pos, t).values.min()))
    return worst, None


def _rand_sequence(rng, max_len=12):
    m = int(rng.integers(2, max_len + 1))
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _dyadic_closed_set(rng, max_val=64):
    """Random subset of {1..max_val} closed under the dyadic floor."""
    base = set(int(v) for v in rng.integers(1, max_val + 1, size=int(rng.integers(2, 10))))
    for t in list(base):
        base.add(int(variation.dyadic_floor(t)))
    return sorted(base)


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
    return variation.vr_pointwise_values(stack, orders)


#: The orders r of the seminorm property sweep.
SWEEP_ORDERS = (1.0, 2.0, 3.0)

#: Trials whose sequences share one `vr_pointwise_values` call in the property
#: sweep.  One call for all 200 trials of `verify` (about 5.2k columns) raised
#: its peak RSS by 7 MB; groups of 25 trace about 1.1 MB.
SWEEP_GROUP = 25


def variation_worst_slack(trials, seed):
    """Worst slack of a randomized sweep of the V_r seminorm properties over
    SWEEP_ORDERS (negative slack would be a violation); the witness holds the
    worst slack of each property, None for one the sweep drew no instance of
    (the triangle case needs b as long as a), and the value is the minimum
    over the properties checked.

    Covers: monotonicity in r, subset monotonicity, reparametrization
    invariance (its slack is minus the worst deviation from equality), the
    triangle inequality, the ell^r bound with constant 2, and the dyadic
    decomposition bound with the explicit constant 3.  The sequences of
    SWEEP_GROUP trials are drawn first and then evaluated, at every order,
    in one `vr_pointwise_values` call.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    slacks = {name: [] for name in ("monotone_in_r", "subset_monotone", "reparametrization",
                                     "triangle", "ell_r_bound", "dyadic_decomposition")}
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
                dyadic = [lookup[t] for t in z if t == int(variation.dyadic_floor(t))]
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
            slacks["monotone_in_r"] += [v[ia] - v2[ia]
                                        for v2, r2 in zip(values, SWEEP_ORDERS) if r2 >= r]
            # subset monotonicity
            slacks["subset_monotone"].append(v[ia] - v[ikeep])
            # (23): precomposition with a nondecreasing map does not change the value
            slacks["reparametrization"].append(-abs(v[iphi] - v[iimage]))
            # (5): triangle inequality
            if triangle:
                ib, isum = triangle
                slacks["triangle"].append(v[ia] + v[ib] - v[isum])
            # (6): V_r <= 2 (sum |a_t|^r)^{1/r}
            slacks["ell_r_bound"].append(ell_r - v[ia])
            # (8): with Z in the positive integers closed under the dyadic
            # floor, which puts at least one power of two in Z
            block_sum = sum(v[i] ** r for i in blocks)
            bound = 3.0 * block_sum ** (1 / r) + v[idyadic]
            slacks["dyadic_decomposition"].append(bound - v[iz])
    worst = {name: min(found, default=None) for name, found in slacks.items()}
    return min(w for w in worst.values() if w is not None), worst


def chain_lemma_worst_slack(cases, trials, seed):
    """Worst slack (must be >= 0) of the chaining bound

        V_s(a_k : k in {0..2^l} cap (-inf, M])
            <= 2^{1-1/s} sum_g ( sum_{h 2^g <= M} |a_{(h-1)2^g} - a_{h 2^g}|^s )^{1/s}

    over (l, M, s) cases, each on `trials` random sequences drawn from seed;
    a case's sequences are drawn first and their V_s come from one
    `vr_pointwise_values` call."""
    worst = math.inf
    for l, M, s in cases:
        variation._check_order(s)
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
        for a, lhs in zip(draws.T, variation.vr_pointwise_values(draws, s).tolist()):
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
    return worst, None


def dyadic_partition_failures(scales):
    """Ranges [a, b) in [0, 2^l), l in scales, whose dyadic partition is not a
    contiguous cover by aligned power-of-two intervals, at most two per size."""
    failures = 0
    for l in scales:
        for a in range(1 << l):
            for b in range(a + 1, (1 << l) + 1):
                los, his = zip(*variation.dyadic_partition(a, b, l))
                sizes = [hi - lo for lo, hi in zip(los, his)]
                good = (a, *his) == (*los, b)
                good &= all(s & (s - 1) == 0 and lo % s == 0 for lo, s in zip(los, sizes))
                good &= max(Counter(sizes).values()) <= 2
                failures += not good
    return failures, None


#: name -> (measure, within, tol), in report order; a check passes when
#: within(value, tol) holds.
CHECKS = {measure.__name__: (measure, within, tol) for measure, within, tol in (
    (krawtchouk_identity_failures, operator.le, 0),
    (bound_a_max_ratio, operator.le, 2),
    (spherical_cross_validation, operator.lt, 1e-10),
    (noise_cross_validation, operator.lt, 1e-10),
    (semigroup_max_violation, operator.le, 1e-10),
    (variation_worst_slack, operator.ge, -1e-10),
    (chain_lemma_worst_slack, operator.ge, -1e-10),
    (dyadic_partition_failures, operator.le, 0),
    (antipodal_max_violation, operator.lt, 1e-10),
)}


def battery_bytes(n: int) -> int:
    """An upper bound on the bytes the battery holds at once at dimension n,
    as `cubevar verify` sizes it: 8 complex values a point, the 120 B of
    `semigroup_max_violation` (f, g, N_t f, N_t g, the conjugate of N_t g and
    its product with f; the constant input, N_t of it and a positive input
    at 8 B) with the popcounts; one `fwht` scratch array; and 4 MiB for what
    does not grow with n (3.2 MB traced in a fresh process at 200 trials)."""
    return 8 * 16 * (1 << n) + 8 * core.FWHT_SCRATCH + (4 << 20)


def run_check(name: str, **sizes) -> dict:
    """Run check `name` at the given sizes: its value, tol, passed flag,
    elapsed seconds and witness. An exact (Fraction) value is compared exactly
    and reported as a float; NaN fails every bound."""
    measure, within, tol = CHECKS[name]
    start = time.perf_counter()
    value, witness = measure(**sizes)
    elapsed = time.perf_counter() - start
    return {"value": float(value) if isinstance(value, Fraction) else value, "tol": tol,
            "passed": bool(within(value, tol)), "elapsed": elapsed, "witness": witness}
