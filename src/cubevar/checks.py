"""The check battery: one registry of named numerical checks of the lemmas the
lower bounds rest on, shared by `cubevar verify` and the acceptance tests.
Each check takes its sizes as arguments and returns (worst value, witness).
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
from . import krawtchouk, operators, variation
from .core import CubeFunction

#: Noise parameters t of the N_t cross-validation and the semigroup axioms.
T_GRID = (0.01, 0.1, 1.0, math.log(2), 5.0)


def krawtchouk_identity_failures(dims):
    """Failed instances of the exact Krawtchouk identities, summed over dims."""
    facts = sum(krawtchouk.check_fact_properties(m)["failures"] for m in dims)
    differences = sum(krawtchouk.check_difference_identity(m)["failures"] for m in dims if m >= 2)
    return facts + differences, None


def bound_a_max_ratio(dims):
    """Exact max of |kappa_k(x) - 1| n/(kx) over dims (sharp constant 2), and its (k, x)."""
    scan = max((krawtchouk.bound_scan_a(n) for n in dims), key=lambda s: s["exact"])
    return scan["exact"], {"argmax": scan["argmax"]}


def _random_functions(dims, seed):
    rng = np.random.default_rng(seed)
    for n in dims:
        yield CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))


def _worst_gap(pairs):
    return max((float(np.abs(a.values - b.values).max()) for a, b in pairs), default=0.0), None


def spherical_cross_validation(dims, seed):
    """Worst gap of the direct and the multiplier S_k f over every radius k,
    for one random complex f per entry of dims, drawn in order from seed."""
    return _worst_gap((operators.spherical_mean_direct(f, k), operators.spherical_mean_multiplier(f, k))
                      for f in _random_functions(dims, seed) for k in range(f.n + 1))


def noise_cross_validation(dims, seed):
    """Worst gap of the binomial-mixture and the multiplier N_t f over T_GRID,
    for the same random functions as spherical_cross_validation."""
    return _worst_gap((operators.noise_binomial(f, t), operators.noise_multiplier(f, t))
                      for f in _random_functions(dims, seed) for t in T_GRID)


def semigroup_max_violation(cases, seed):
    """Worst violation of the N_t semigroup axioms over T_GRID, per (n, trials) case."""
    return max(operators.semigroup_axioms_check(n, T_GRID, trials=trials, seed=seed)["max_violation"]
               for n, trials in cases), None


def variation_worst_slack(trials, seed):
    """Worst slack of the randomized sweep of V_r seminorm properties."""
    return variation.check_variation_properties(trials, seed=seed)["worst"], None


def chain_lemma_worst_slack(cases, trials, seed):
    """Worst slack of the chaining bound over (l, M, s) cases."""
    return min(variation.check_chain_lemma(l=l, M=M, s=s, trials=trials, seed=seed)["worst_slack"]
               for l, M, s in cases), None


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
)}


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
