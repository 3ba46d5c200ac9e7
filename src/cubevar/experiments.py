"""Counterexample reproduction and multiplier scans.

Every record is built by `record`, with the keys (n, r, q, metric, value,
witness), and is assembled into an ExperimentReport that serializes to JSON
(full) and CSV (records only); None, never inf or NaN, stands for a value that
does not exist.  All randomness flows from a single 64-bit seed through
numpy's PCG64 generator, so identical (config, seed) pairs produce
byte-identical reports.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import BLOCK, CHUNK, SPECTRAL, CubeFunction, abs_power_sum, character, pairwise_total, popcounts
from .krawtchouk import build_table
from .operators import _fold_bits, _kraw_rows, _radial_multiplier_blocks
from .variation import _check_order, vr_pointwise_values

CSV_HEADER = ["experiment", "n", "r", "q", "metric", "value", "witness"]


def record(n, metric, value, witness=None, r=None, q=None) -> dict:
    """One report record, its keys in CSV order; None marks a value, order,
    parity or witness that does not exist."""
    return {"n": n, "r": r, "q": q, "metric": metric, "value": value, "witness": witness}


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
        for r in self.r_list:
            _check_order(r)
        if self.q is not None and self.q not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("power-rule exponent must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in 0..2^64 - 1, got {self.seed}")


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    records: list = field(default_factory=list)

    # Both formats raise ValueError on an inf or NaN anywhere in a record, and
    # serialize before they open the file, so a refused report writes nothing.
    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "parameters": self.parameters,
                "records": self.records,
            },
            indent=2,
            allow_nan=False,
        )

    def to_csv(self) -> str:
        """The records as CSV rows under CSV_HEADER: a None cell is empty, a
        value is written as a float and the witness as a JSON blob."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER)
        for rec in self.records:
            value = rec["value"]
            writer.writerow([
                self.name, rec["n"], rec["r"], rec["q"], rec["metric"],
                None if value is None else json.dumps(float(value), allow_nan=False),
                json.dumps(rec["witness"], allow_nan=False),
            ])
        return out.getvalue()



def _reduced_points(n: int, radii) -> int:
    """The points `variation_norm_ratio` reduces for these radii: 2^{n-1},
    the half cube, when they pair up antipodally, radii[i] + radii[m-1-i] = n,
    else 2^n."""
    radii = list(radii)
    return 1 << (n - all(a + b == n for a, b in zip(radii, reversed(radii))))


def variation_norm_ratio(f: CubeFunction, radii, r):
    """|| V_r(S_k f : k in radii) ||_2 / ||f||_2 via the full pipeline: each
    engine tile of spherical means goes through the pointwise DP as it is
    made, which scales the tile in place (`vr_pointwise_values` with
    `overwrite`), and the pointwise values are squared and summed a chunk of
    `CHUNK` points at a time, so neither the (|radii|, 2^n) stack, nor a DP
    table over every point, nor a 2^n row of pointwise values is held; one
    tile buffer serves every tile.  The chunk sums are combined by
    `core.pairwise_total`, as numpy sums one row, so the output bits do not
    depend on the block width.

    When the radii pair up antipodally, radii[i] + radii[m-1-i] = n (the full
    range; either parity family at even n), only the half cube x < 2^{n-1}
    is asked of the engine and reduced: S_{n-k} f(x) = S_k f(x XOR 1_n), so
    the column at x XOR 1_n is the column at x reversed, which has the same
    V_r, and the sum over the cube is twice the sum over the half.

    `r` is one order, for one ratio, or a sequence of orders, for a list of
    ratios in the given order; every order is filled from one stream.

    No reference to f is kept once the tile stream has it, so when the
    caller holds none either (`proposition_halfspectrum_scan`), f and its
    spectrum are freed as soon as the engine has made its last terms: before
    the first DP block unless the engine folds onto several sub-cubes."""
    radii, n = list(radii), f.n
    norm_f = f.norm(2)
    if norm_f == 0.0:
        raise ValueError("ratio undefined for the zero function")
    points = _reduced_points(n, radii)
    half = points < 1 << n
    # _kraw_rows raises on no radii or one outside 0..n
    tiles = _radial_multiplier_blocks(f, _kraw_rows(n, radii), points)
    del f
    orders = np.ravel(r)
    buf = np.empty((orders.size, min(CHUNK, points)))
    sums, fill = [], 0
    for tile in tiles:
        v = vr_pointwise_values(tile, orders, overwrite=True)
        while v.shape[1]:
            take = min(buf.shape[1] - fill, v.shape[1])
            buf[:, fill:fill + take] = v[:, :take]
            v, fill = v[:, take:], fill + take
            if fill == buf.shape[1]:
                sums.append(np.square(buf, out=buf).sum(axis=1))
                fill = 0
        del v            # free this tile's values before the next tile's DP runs
    ratios = [float(np.sqrt(2 * s if half else s)) / norm_f for s in pairwise_total(sums)]
    return ratios if np.ndim(r) else ratios[0]


def character_variation(n: int, weight: int, radii, r):
    """Ratio for f = chi_y with |y| = weight: equals V_r of the multiplier
    sequence (kappa_k(weight))_k since S_k chi_y = kappa_k(|y|) chi_y.

    `r` is one order, for one ratio, or a sequence of orders, for a list of
    ratios in the given order, all from one `vr_pointwise_values` call."""
    if not (isinstance(weight, (int, np.integer)) and 0 <= weight <= n):
        raise ValueError(f"weight {weight!r} outside 0..{n}")
    values = vr_pointwise_values(_kraw_rows(n, radii)[:, [weight]], r)
    return values[:, 0].tolist() if np.ndim(r) else float(values[0])


def _ratio_records(n: int, r_list, ratios, metric: str, bound, slack: float, witness: dict) -> list:
    """One record per order r in r_list, with its ratio: the witness holds
    the keys of `witness`, then the proven lower bound `bound(r)` and whether
    the ratio reaches it to within `slack`."""
    records = []
    for r, ratio in zip(r_list, ratios):
        lower = bound(r)
        records.append(record(n, metric, ratio, {**witness, "lower_bound": lower,
                                                 "satisfied": bool(ratio >= lower - slack)}, r=r))
    return records


def _truncated_bound(n: int, a_n: float):
    """The proven lower bound (2/3) floor(n / (3 a_n))^{1/r}, as a function of r."""
    base = math.floor(n / (3.0 * a_n))
    return lambda r: (2.0 / 3.0) * base ** (1.0 / r)


def witness_bytes(n: int, r_list) -> int:
    """An upper bound on the bytes `counterexample_all_ones` and
    `counterexample_truncated` hold at once at dimension n for the orders
    `r_list`: the character's 8 B a point, and rows of 8 B on a `BLOCK` (or
    `CHUNK`) of the half cube: the (n+1)-row engine tile, which the DP
    scales in place; the DP's tables of `vr_pointwise_values`, (n+1) rows
    an order, and its scratch rows, eight and two an order; the ratio's
    chunk buffer, a row an order; and 1 MiB for what does not grow with n."""
    width, orders = min(max(BLOCK, CHUNK), 1 << (n - 1)), len(r_list)
    return 8 * (1 << n) + 8 * width * ((n + 1) * (1 + orders) + 8 + 3 * orders) + (1 << 20)


def counterexample_all_ones(n: int, r_list) -> list:
    """Full-range variation ratio for the all-ones character, one record per
    order in r_list; the proven lower bound is 2 n^{1/r}, attained with
    equality."""
    ratios = variation_norm_ratio(character(n, (1 << n) - 1), range(n + 1), r_list)
    return _ratio_records(n, r_list, ratios, "all_ones_ratio", lambda r: 2.0 * n ** (1.0 / r),
                          1e-9, {"weight": n})


def counterexample_truncated(n: int, r_list, a_n: float) -> list:
    """Variation ratio for a character of the largest admissible weight below n
    (requires a_n >= 1 so that weight n-1 satisfies |y| >= n - a_n), one
    record per order in r_list."""
    if a_n < 1.0 / 3.0:
        raise ValueError("truncation sequence must satisfy a_n >= 1/3")
    if a_n < 1.0:
        raise ValueError(f"no admissible weight below n for a_n={a_n}")
    weight = n - 1
    ratios = variation_norm_ratio(character(n, (1 << weight) - 1), range(n + 1), r_list)
    return _ratio_records(n, r_list, ratios, "truncated_ratio", _truncated_bound(n, a_n),
                          1e-12, {"weight": weight, "a_n": a_n})


def counterexample_corollary(n: int, r_list, alpha: float) -> list:
    """A witness excluded from E_n = {|y| >= n - b_n} whose ratio still
    diverges, one record per order in r_list.

    Uses b_n = n^alpha, d_n = max(1/9, b_n), a_n = sqrt(n d_n), and the witness
    weight ceil(n - d_n) - 1; the ratio is evaluated on the multiplier sequence
    of the witness character.  The weight lies below n - d_n, outside E_n, by
    construction.  Where it is not admissible (small n) the records are
    `corollary_skipped`, with the value None.
    """
    b_n = n**alpha
    d_n = max(1.0 / 9.0, b_n)
    a_n = math.sqrt(n * d_n)
    weight = math.ceil(n - d_n) - 1
    if weight < 0 or weight < n - a_n:
        return [record(n, "corollary_skipped", None,
                       {"weight": weight, "reason": "witness construction impossible"}, r=r)
                for r in r_list]
    ratios = character_variation(n, weight, range(n + 1), r_list)
    return _ratio_records(n, r_list, ratios, "corollary_ratio", _truncated_bound(n, a_n), 1e-12,
                          {"weight": weight, "b_n": b_n, "d_n": d_n, "a_n": a_n})


def parity_radii(n: int, q: int) -> list:
    if q not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return [k for k in range(n + 1) if k % 2 == q]


#: Levels whose values lie within this many ulp of the maximum count as tied
#: for it in `parity_character_scan`: levels tied in exact arithmetic come
#: out of the DP up to 2 ulp apart (n = 33, r = 1).
TIE_ULPS = 4


def parity_character_scan(n: int, r: float, q: int) -> dict:
    """Max over spectral levels m of V_r of the parity-restricted multiplier
    sequence; this is the character supremum of the fixed-parity operator.
    kappa_k(n - m) = (-1)^k kappa_k(m), so at a fixed parity of k the column
    of level n - m is +- the column of level m, whose V_r has the same bits:
    the levels m <= n/2 run through one `vr_pointwise_values` call and the
    others are mirrored from them.  The witness weight is the smallest level
    tied for the maximum (`TIE_ULPS`), so rounding does not pick among levels
    tied in exact arithmetic."""
    half = n // 2 + 1
    # the table first: it refuses n > 64 before the radii are listed
    values = vr_pointwise_values(build_table(n).float[parity_radii(n, q), :half], r).tolist()
    values += [values[n - m] for m in range(half, n + 1)]
    top = max(values)
    weight = next(w for w, v in enumerate(values) if top - v <= TIE_ULPS * math.ulp(top))
    return record(n, "parity_character_max", top, {"weight": weight, "per_level": values}, r=r, q=q)


def halfspectrum_levels(n: int) -> range:
    """The Walsh levels |y| <= n/2 that a half-spectrum draw fills."""
    return range(n // 2 + 1)


def random_halfspectrum_function(n: int, rng) -> CubeFunction:
    """Unit-norm function with independent complex Gaussian coefficients on
    the frequencies of `halfspectrum_levels` and exact zeros elsewhere, on
    the spectral side.

    The bits are those of `rng.standard_normal(2^n) + 1j *
    rng.standard_normal(2^n)`, zeroed above the levels and divided by the
    square root of sum |v|^2, drawn in place: the real parts and then the
    imaginary parts are drawn `CHUNK` values at a time through one float64
    buffer (the generator's stream does not depend on how it is split) into
    the one complex array, the levels above are zeroed chunk by chunk, and
    the sum is `abs_power_sum`'s.  So the draw holds 16 bytes a point and a
    few chunks."""
    size = 1 << n
    pc = popcounts(n)
    top = len(halfspectrum_levels(n))
    spec = np.empty(size, dtype=np.complex128)
    buf = np.empty(min(CHUNK, size))
    for part in (spec.real, spec.imag):
        for start in range(0, size, buf.size):
            part[start:start + buf.size] = rng.standard_normal(out=buf)
    for start in range(0, size, buf.size):
        np.copyto(spec[start:start + buf.size], 0.0, where=pc[start:start + buf.size] >= top)
    spec /= np.sqrt(abs_power_sum(spec))
    return CubeFunction(n, spec, SPECTRAL)


def halfspectrum_fold_bits(n: int) -> int:
    """The bits by which the engine folds a half-spectrum draw at n
    (`operators._fold_bits` for a complex spectral input filling
    `halfspectrum_levels`, with every radius, on the points
    `variation_norm_ratio` reduces), or MemoryError when no fold fits."""
    radii = range(n + 1)
    return _fold_bits(n, len(radii), halfspectrum_levels(n), _reduced_points(n, radii),
                      np.complex128, SPECTRAL)


def proposition_halfspectrum_scan(n: int, r_list, trials: int, seed: int) -> list:
    """Random-search lower bound for the half-spectrum operator quantity, one
    record per order in r_list; every order is evaluated on the same draws,
    and each recorded maximum is a lower bound only.  The engine's fold and
    memory estimate for a draw (`halfspectrum_fold_bits`) is checked before
    the first draw, so a refusal draws nothing.  Each draw goes straight
    into `variation_norm_ratio` and is held nowhere else, so it is freed
    once the engine has made its last terms."""
    if n < 2:
        raise ValueError("need n >= 2")
    radii = range(n + 1)
    halfspectrum_fold_bits(n)
    rng = np.random.default_rng(seed)
    best = [0.0] * len(r_list)
    for _ in range(trials):
        ratios = variation_norm_ratio(random_halfspectrum_function(n, rng), radii, r_list)
        best = [max(b, ratio) for b, ratio in zip(best, ratios)]
    return [record(n, "halfspectrum_random_max", value,
                   {"trials": trials, "seed": seed, "kind": "lower_bound"}, r=r)
            for r, value in zip(r_list, best)]


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
    return record(n, "phi_max", float(values[argmax]),
                  {"argmax_x": argmax, "phi_at_zero": values[0], "per_level": values})


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
    argmax = int(np.argmax(values))
    return record(n, "psi_max", float(values[argmax]),
                  {"argmax_x": argmax, "psi_at_zero": values[0], "per_level": values})
