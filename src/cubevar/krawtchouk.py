"""Exact-rational Krawtchouk polynomial tables and the bound scans.

The normalized polynomial is

    kappa_k(x) = (1 / C(n,k)) * sum_j (-1)^j C(x,j) C(n-x,k-j),

with the alternating sum truncated to max(0, x+k-n) <= j <= min(k, x).  The
sum suffers catastrophic cancellation in floating point, so every table entry
is computed in exact rational arithmetic and only then rounded to a double.
"""
from __future__ import annotations

import csv
import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np


def kraw_exact(n: int, k: int, x: int) -> Fraction:
    """Exact value of the normalized Krawtchouk polynomial kappa^(n)_k(x)."""
    if not (0 <= k <= n and 0 <= x <= n):
        raise ValueError(f"k={k}, x={x} outside 0..{n}")
    num = 0
    for j in range(max(0, x + k - n), min(k, x) + 1):
        term = math.comb(x, j) * math.comb(n - x, k - j)
        num += -term if j & 1 else term
    return Fraction(num, math.comb(n, k))


class KrawtchoukTable:
    """Immutable (n+1) x (n+1) table, entry [k][x] = kappa^(n)_k(x).

    `exact` holds Fractions; `float` is the same matrix rounded to doubles.
    """

    def __init__(self, n: int):
        self.n = n
        self.exact = [[kraw_exact(n, k, x) for x in range(n + 1)] for k in range(n + 1)]
        self.float = np.array([[float(v) for v in row] for row in self.exact])
        self.float.setflags(write=False)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "k", "x", "numerator", "denominator", "float"])
            for k in range(self.n + 1):
                for x in range(self.n + 1):
                    v = self.exact[k][x]
                    writer.writerow(
                        [self.n, k, x, v.numerator, v.denominator, repr(float(self.float[k, x]))]
                    )


@lru_cache(maxsize=None)
def build_table(n: int) -> KrawtchoukTable:
    if not 1 <= n <= 64:
        raise ValueError(f"exact table supports n in 1..64, got {n}")
    return KrawtchoukTable(n)


def bound_scan_a(n: int):
    """Exact max of |kappa - 1| * n / (k*x) over k, x >= 1 (the sharp
    constant is 2), as a Fraction, and its first (k, x)."""
    t = build_table(n)
    best, argmax = max(((abs(t.exact[k][x] - 1) * Fraction(n, k * x), (k, x))
                        for k in range(1, n + 1) for x in range(1, n + 1)), key=itemgetter(0))
    return best, {"argmax": argmax}


def bound_scan_b_c(n: int):
    """Empirical constants for |kappa| <~ n/(kx) and |kappa_k - kappa_{k-1}| <~ 1/k
    over the quadrant k, x <= n/2: (C_b, witness), (C_c, witness), each
    witness holding the first (k, x) that attains the maximum."""
    if n < 2:
        raise ValueError("scan needs n >= 2")
    t = build_table(n)
    quadrant = range(1, n // 2 + 1)
    c_b, arg_b = max(((abs(t.float[k, x]) * k * x / n, (k, x)) for k in quadrant for x in quadrant),
                     key=itemgetter(0))
    c_c, arg_c = max(((abs(t.float[k, x] - t.float[k - 1, x]) * k, (k, x))
                      for k in quadrant for x in range(n // 2 + 1)), key=itemgetter(0))
    return (c_b, {"argmax": arg_b}), (c_c, {"argmax": arg_c})


def estimate_exp_constant(n_max: int):
    """Empirical constant in |kappa_k(x)| <= exp(-c k x / n) for k, x <= n/2,
    2 <= n <= n_max: the minimum of -n ln|kappa| / (kx), and its first
    (n, k, x).  Exact zeros are skipped since the bound is vacuous there;
    when no entry is left (n_max = 2) the value is None.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    candidates = []
    for n in range(2, n_max + 1):
        t = build_table(n)
        quadrant = range(1, n // 2 + 1)
        candidates += [(-n * math.log(abs(t.float[k, x])) / (k * x), (n, k, x))
                       for k in quadrant for x in quadrant if t.exact[k][x] != 0]
    c_hat, argmin = min(candidates, key=itemgetter(0), default=(None, None))
    return c_hat, {"argmin": argmin}
