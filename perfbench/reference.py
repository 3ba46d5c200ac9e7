"""Reference values for the benchmark's output checks, computed without cubevar.

    python3 reference.py counterexample --kind truncated --n N --r R1,R2,...
    python3 reference.py half-spectrum --n N --r R1,R2,... --trials T --seed S

takes the arguments of the cubevar command and prints, as one JSON list, the
records {metric, r, value} that the command should report.  It runs in its own
process so that the benchmark's parent process stays small: a child spawned
from it would otherwise inherit the parent's peak RSS in its own rusage.

The routes here are deliberately different from the package's: Krawtchouk
values come from the generating function (1 - z)^x (1 + z)^(n - x) in exact
integers, spherical means of a half-spectrum input are summed from its Walsh
level projections instead of one multiplier per radius, and the variation DP
runs forward instead of over suffixes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np


def krawtchouk_row(n: int, x: int) -> list:
    """[kappa_k(x) for k = 0..n] as Fractions: the coefficient of z^k in
    (1 - z)^x (1 + z)^(n - x), divided by C(n, k)."""
    poly = [1]
    for sign in [-1] * x + [1] * (n - x):
        poly = [a + sign * b for a, b in zip(poly + [0], [0] + poly)]
    return [Fraction(c, math.comb(n, k)) for k, c in enumerate(poly)]


def variation(seq, r: float) -> float:
    """V_r of a short sequence: forward DP over the last index of a chain."""
    best = []
    for j, a in enumerate(seq):
        best.append(max([0.0] + [best[i] + abs(seq[i] - a) ** r for i in range(j)]))
    return max(best) ** (1.0 / r)


def truncated_ratio(n: int, r: float) -> float:
    """Ratio ||V_r(S_k chi_y)||_2 / ||chi_y||_2 for |y| = n - 1 over every
    radius k: S_k chi_y = kappa_k(|y|) chi_y and |chi_y| = 1 pointwise."""
    return variation([float(v) for v in krawtchouk_row(n, n - 1)], r)


def _walsh(rows: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis, one 2x2
    step per coordinate on a (..., 2, 2, ..., 2) view."""
    batch, size = rows.shape
    n = size.bit_length() - 1
    cube = rows.reshape((batch,) + (2,) * n)
    for axis in range(1, n + 1):
        lo = cube.take(0, axis=axis)
        hi = cube.take(1, axis=axis)
        cube = np.stack((lo + hi, lo - hi), axis=axis)
    return cube.reshape(batch, size)


def _pointwise_variation(stack: np.ndarray, r: float) -> np.ndarray:
    best = np.zeros((stack.shape[0], stack.shape[1]))
    for j in range(1, stack.shape[0]):
        for i in range(j):
            np.maximum(best[j], best[i] + np.abs(stack[i] - stack[j]) ** r, out=best[j])
    return best.max(axis=0) ** (1.0 / r)


def halfspectrum_max(n: int, r_list, trials: int, seed: int) -> dict:
    """{r: max over trials of ||V_r(S_k f : k = 0..n)||_2 / ||f||_2} for the
    random unit-norm half-spectrum inputs `cubevar half-spectrum` draws:
    per trial, complex Gaussian Walsh coefficients (real parts, then
    imaginary parts, from PCG64 seeded with `seed`) on levels <= n/2."""
    size = 1 << n
    level = np.array([bin(y).count("1") for y in range(size)])
    levels = range(n // 2 + 1)
    kappa = np.array([[float(v) for v in krawtchouk_row(n, w)] for w in levels]).T
    rng = np.random.default_rng(seed)
    best = dict.fromkeys(r_list, 0.0)
    for _ in range(trials):
        spec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        spec[level > n / 2] = 0.0
        spec /= np.linalg.norm(spec)
        projections = _walsh(np.where(level == np.array(levels)[:, None], spec, 0.0))
        projections *= 2.0 ** (-n / 2)
        norm_f = np.linalg.norm(projections.sum(axis=0))
        stack = kappa @ projections      # row k is S_k f
        for r in r_list:
            ratio = np.linalg.norm(_pointwise_variation(stack, r)) / norm_f
            best[r] = max(best[r], float(ratio))
    return best


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="reference.py")
    parser.add_argument("command", choices=("counterexample", "half-spectrum"))
    parser.add_argument("--kind", choices=("truncated",), default="truncated")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--r", required=True)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int)
    args = parser.parse_args(argv)
    r_list = [float(v) for v in args.r.split(",")]
    if args.command == "counterexample":
        metric, values = "truncated_ratio", {r: truncated_ratio(args.n, r) for r in r_list}
    else:
        metric = "halfspectrum_random_max"
        values = halfspectrum_max(args.n, r_list, args.trials, args.seed)
    print(json.dumps([{"metric": metric, "r": r, "value": v} for r, v in values.items()]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
