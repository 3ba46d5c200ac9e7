"""Counterexample reproduction and multiplier scans.

Every record carries (n, r, q, metric, value, witness) and is assembled into an
ExperimentReport that serializes to JSON (full) and CSV (records only).  All
randomness flows from a single 64-bit seed through numpy's PCG64 generator, so
identical (config, seed) pairs produce byte-identical reports.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import SPECTRAL, CubeFunction, character, popcounts
from .krawtchouk import build_table
from .operators import _kraw_rows, spherical_mean_blocks
from .variation import vr_exact, vr_pointwise_values

CSV_HEADER = ["experiment", "n", "r", "q", "metric", "value", "witness"]


@dataclass
class ExperimentConfig:
    n_list: list = field(default_factory=lambda: [8])
    r_list: list = field(default_factory=lambda: [2.0])
    q: int | None = None
    alpha: float = 0.5            # power rule b_n = n^alpha (counterexample --kind corollary)
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        if any(n < 1 for n in self.n_list):
            raise ValueError("all dimensions must be >= 1")
        if not all(math.isfinite(r) and r >= 1 for r in self.r_list):
            raise ValueError("all variation orders must be finite and >= 1")
        if self.q is not None and self.q not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("power-rule exponent must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("need at least one trial")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    records: list = field(default_factory=list)

    def add(self, record: dict) -> None:
        self.records.append(record)

    def extend(self, records) -> None:
        self.records.extend(records)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "parameters": self.parameters,
                "records": self.records,
            },
            indent=2,
            default=str,
        )

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in self.records:
                value = rec.get("value", "")
                if isinstance(value, (int, float, np.floating, np.integer)):
                    value = repr(float(value))
                writer.writerow(
                    [
                        self.name,
                        rec.get("n", ""),
                        rec.get("r", ""),
                        rec.get("q", ""),
                        rec.get("metric", ""),
                        value,
                        json.dumps(rec.get("witness", None), default=float),
                    ]
                )


def variation_norm_ratio(f: CubeFunction, radii, r):
    """|| V_r(S_k f : k in radii) ||_2 / ||f||_2 via the full pipeline: each
    block of spherical means goes through the pointwise DP as it is made, so
    neither the (|radii|, 2^n) stack nor a DP table over every point is held.

    `r` is one order, for one ratio, or a sequence of orders, for a list of
    ratios in the given order; every order is filled from one stream."""
    norm_f = _nonzero_norm(f)
    v = np.empty((np.size(r), 1 << f.n))
    for cols, block in spherical_mean_blocks(f, radii):
        v[:, cols] = vr_pointwise_values(block, np.ravel(r))
    ratios = [_l2_ratio(row, norm_f) for row in v]
    return ratios if np.ndim(r) else ratios[0]


def _nonzero_norm(f: CubeFunction) -> float:
    norm_f = f.norm(2)
    if norm_f == 0.0:
        raise ValueError("ratio undefined for the zero function")
    return norm_f


def _l2_ratio(v: np.ndarray, norm_f: float) -> float:
    """||v||_2 / norm_f, reduced once over all 2^n points so the summation
    order (and so every output bit) does not depend on the block width.
    Squares `v` in place."""
    return float(np.sqrt(np.square(v, out=v).sum())) / norm_f


def character_variation(n: int, weight: int, radii, r: float) -> float:
    """Ratio for f = chi_y with |y| = weight: equals V_r of the multiplier
    sequence (kappa_k(weight))_k since S_k chi_y = kappa_k(|y|) chi_y."""
    if not (isinstance(weight, (int, np.integer)) and 0 <= weight <= n):
        raise ValueError(f"weight {weight!r} outside 0..{n}")
    return vr_exact(_kraw_rows(n, radii)[:, weight], r).value


def counterexample_all_ones(n: int, r_list) -> list:
    """Full-range variation ratio for the all-ones character, one record per
    order in r_list; the proven lower bound is 2 n^{1/r}, attained with
    equality."""
    f = character(n, (1 << n) - 1)
    records = []
    for r, ratio in zip(r_list, variation_norm_ratio(f, range(n + 1), r_list)):
        bound = 2.0 * n ** (1.0 / r)
        records.append({
            "n": n,
            "r": r,
            "q": None,
            "metric": "all_ones_ratio",
            "value": ratio,
            "witness": {"weight": n, "lower_bound": bound, "satisfied": bool(ratio >= bound - 1e-9)},
        })
    return records


def counterexample_truncated(n: int, r_list, a_n: float) -> list:
    """Variation ratio for a character of the largest admissible weight below n
    (requires a_n >= 1 so that weight n-1 satisfies |y| >= n - a_n), one
    record per order in r_list."""
    if a_n < 1.0 / 3.0:
        raise ValueError("truncation sequence must satisfy a_n >= 1/3")
    if a_n < 1.0:
        raise ValueError(f"no admissible weight below n for a_n={a_n}")
    weight = n - 1
    y = (1 << weight) - 1
    f = character(n, y)
    records = []
    for r, ratio in zip(r_list, variation_norm_ratio(f, range(n + 1), r_list)):
        bound = (2.0 / 3.0) * math.floor(n / (3.0 * a_n)) ** (1.0 / r)
        records.append({
            "n": n,
            "r": r,
            "q": None,
            "metric": "truncated_ratio",
            "value": ratio,
            "witness": {
                "weight": weight,
                "a_n": a_n,
                "lower_bound": bound,
                "satisfied": bool(ratio >= bound - 1e-12),
            },
        })
    return records


def counterexample_corollary(n: int, r_list, alpha: float) -> list:
    """A witness excluded from E_n = {|y| >= n - b_n} whose ratio still
    diverges, one record per order in r_list.

    Uses b_n = n^alpha, d_n = max(1/9, b_n), a_n = sqrt(n d_n), and the witness
    weight ceil(n - d_n) - 1; the ratio is evaluated on the multiplier sequence
    of the witness character.  The weight lies below n - d_n, outside E_n, by
    construction.  Where it is not admissible (small n) the records are
    `corollary_skipped`, with a NaN value.
    """
    b_n = n**alpha
    d_n = max(1.0 / 9.0, b_n)
    a_n = math.sqrt(n * d_n)
    weight = math.ceil(n - d_n) - 1
    if weight < 0 or weight < n - a_n:
        return [
            {
                "n": n,
                "r": r,
                "q": None,
                "metric": "corollary_skipped",
                "value": float("nan"),
                "witness": {"weight": weight, "reason": "witness construction impossible"},
            }
            for r in r_list
        ]
    records = []
    for r in r_list:
        ratio = character_variation(n, weight, range(n + 1), r)
        bound = (2.0 / 3.0) * math.floor(n / (3.0 * a_n)) ** (1.0 / r)
        records.append({
            "n": n,
            "r": r,
            "q": None,
            "metric": "corollary_ratio",
            "value": ratio,
            "witness": {
                "weight": weight,
                "b_n": b_n,
                "d_n": d_n,
                "a_n": a_n,
                "lower_bound": bound,
                "satisfied": bool(ratio >= bound - 1e-12),
            },
        })
    return records


def parity_radii(n: int, q: int) -> list:
    if q not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return [k for k in range(n + 1) if k % 2 == q]


def parity_character_scan(n: int, r: float, q: int) -> dict:
    """Max over spectral levels m of V_r of the parity-restricted multiplier
    sequence; this is the character supremum of the fixed-parity operator."""
    radii = parity_radii(n, q)
    values = [character_variation(n, m, radii, r) for m in range(n + 1)]
    argmax = int(np.argmax(values))
    return {
        "n": n,
        "r": r,
        "q": q,
        "metric": "parity_character_max",
        "value": float(values[argmax]),
        "witness": {"weight": argmax, "per_level": values},
    }


def full_vs_parity_norm(f: CubeFunction, r: float, q: int | None = None) -> dict:
    """Full-range and parity-restricted variation ratios for one function.

    One stream of full-range blocks serves all three: every parity family's
    radii are a subset of 0..n, so its means are rows of each block.
    """
    n = f.n
    norm_f = _nonzero_norm(f)
    parities = (0, 1) if q is None else (q,)
    families = {"full": slice(None), **{str(qq): parity_radii(n, qq) for qq in parities}}
    v = {key: np.empty(1 << n) for key in families}
    for cols, block in spherical_mean_blocks(f, range(n + 1)):
        for key, rows in families.items():
            v[key][cols] = vr_pointwise_values(block[rows], r)
    full = _l2_ratio(v.pop("full"), norm_f)
    parity = {key: _l2_ratio(vq, norm_f) for key, vq in v.items()}
    return {
        "n": n,
        "r": r,
        "q": q,
        "metric": "full_vs_parity",
        "value": full,
        "witness": {"full": full, "parity": parity},
    }


def random_halfspectrum_function(n: int, rng) -> CubeFunction:
    """Unit-norm function with independent complex Gaussian coefficients on
    the frequencies |y| <= n/2 and exact zeros elsewhere, on the spectral side."""
    size = 1 << n
    pc = popcounts(n)
    spec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    spec[pc > n / 2] = 0.0
    spec /= np.sqrt((np.abs(spec) ** 2).sum())
    return CubeFunction(n, spec, SPECTRAL)


def proposition_halfspectrum_scan(n: int, r_list, trials: int, seed: int) -> list:
    """Random-search lower bound for the half-spectrum operator quantity, one
    record per order in r_list; every order is evaluated on the same draws,
    and each recorded maximum is a lower bound only."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    best = [0.0] * len(r_list)
    for _ in range(trials):
        f = random_halfspectrum_function(n, rng)
        ratios = variation_norm_ratio(f, range(n + 1), r_list)
        best = [max(b, ratio) for b, ratio in zip(best, ratios)]
    return [
        {
            "n": n,
            "r": r,
            "q": None,
            "metric": "halfspectrum_random_max",
            "value": value,
            "witness": {"trials": trials, "seed": seed, "kind": "lower_bound"},
        }
        for r, value in zip(r_list, best)
    ]


def dyadic_radii(n: int) -> list:
    """Powers of two inside {1, ..., floor(n/2)}."""
    out = []
    k = 1
    while k <= n // 2:
        out.append(k)
        k *= 2
    return out


def phi_scan(n: int) -> dict:
    """Phi(x) = sum over dyadic k <= n/2 of |kappa_k(x) - exp(-kx/n)|^2."""
    if n < 2:
        raise ValueError("need n >= 2")
    table = build_table(n)
    radii = dyadic_radii(n)
    values = []
    for x in range(n // 2 + 1):
        phi = sum((table.float[k, x] - math.exp(-k * x / n)) ** 2 for k in radii)
        values.append(phi)
    argmax = int(np.argmax(values))
    return {
        "n": n,
        "r": None,
        "q": None,
        "metric": "phi_max",
        "value": float(values[argmax]),
        "witness": {"argmax_x": argmax, "phi_at_zero": values[0], "per_level": values},
    }


def psi_scan(n: int) -> dict:
    """Psi(x): the 2^{g/2}-weighted sum of squared Krawtchouk increments over
    the dyadic block grid; the outer sum is finite since the index constraints
    empty out once 2^l exceeds n/2."""
    if n < 2:
        raise ValueError("need n >= 2")
    table = build_table(n)
    half = n // 2
    triples = []   # (weight, k_lo, k_hi)
    l = 0
    while (1 << l) <= half:
        for g in range(l + 1):
            step = 1 << (l - g)
            for h in range(1, (1 << g) + 1):
                hi = h * step + (1 << l)
                if hi <= half:
                    triples.append((2.0 ** (g / 2), (h - 1) * step + (1 << l), hi))
        l += 1
    values = []
    for x in range(half + 1):
        psi = sum(w * (table.float[lo, x] - table.float[hi, x]) ** 2 for w, lo, hi in triples)
        values.append(psi)
    argmax = int(np.argmax(values)) if values else 0
    return {
        "n": n,
        "r": None,
        "q": None,
        "metric": "psi_max",
        "value": float(values[argmax]),
        "witness": {"argmax_x": argmax, "psi_at_zero": values[0], "per_level": values},
    }
