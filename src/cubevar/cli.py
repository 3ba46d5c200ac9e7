"""Command-line entry point: verification suites, table exports, experiments.

Exit codes: 0 success, 1 assertion/bound violation in a verify-style suite,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import CubeFunction, fwht
from .krawtchouk import (
    bound_scan_a,
    bound_scan_b_c,
    build_table,
    check_difference_identity,
    check_fact_properties,
    estimate_exp_constant,
)
from .operators import (
    noise_binomial,
    noise_multiplier,
    semigroup_axioms_check,
    spherical_mean_direct,
    spherical_mean_multiplier,
    spherical_mean_stack,
)
from .variation import (
    check_chain_lemma,
    check_variation_properties,
    dyadic_partition,
    vr_pointwise_values,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    counterexample_all_ones,
    counterexample_truncated,
    parity_character_scan,
    phi_scan,
    proposition_halfspectrum_scan,
    psi_scan,
    variation_norm_ratio,
)

CONFIG_KEYS = ("n_list", "r_list", "q", "alpha", "seed", "trials")


def parse_config(path) -> ExperimentConfig:
    """Parse a plain `key = value` file (# comments); unknown keys are errors."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value.strip()
    kwargs = {}
    if "n_list" in raw:
        kwargs["n_list"] = [int(v) for v in raw["n_list"].split(",")]
    if "r_list" in raw:
        kwargs["r_list"] = [float(v) for v in raw["r_list"].split(",")]
    if "q" in raw:
        kwargs["q"] = int(raw["q"])
    if "alpha" in raw:
        kwargs["alpha"] = float(raw["alpha"])
    if "seed" in raw:
        kwargs["seed"] = int(raw["seed"])
    if "trials" in raw:
        kwargs["trials"] = int(raw["trials"])
    return ExperimentConfig(**kwargs)


def _merge_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    kwargs = cfg.as_dict()
    if getattr(args, "n", None):
        kwargs["n_list"] = [int(v) for v in args.n.split(",")]
    if getattr(args, "r", None):
        kwargs["r_list"] = [float(v) for v in args.r.split(",")]
    if getattr(args, "q", None) is not None:
        kwargs["q"] = args.q
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        kwargs["trials"] = args.trials
    return ExperimentConfig(**kwargs)


def map_ordered(fn, items, threads: int):
    """Apply fn over items, optionally on a thread pool; results keep the
    input order so reports stay deterministic."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _emit(report: ExperimentReport, out_dir, fmt: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt in ("json", "both"):
        report.write_json(os.path.join(out_dir, f"{report.name}.json"))
    if fmt in ("csv", "both"):
        report.write_csv(os.path.join(out_dir, f"{report.name}.csv"))
    for rec in report.records:
        print(
            f"{report.name}: n={rec.get('n')} r={rec.get('r')} q={rec.get('q')} "
            f"{rec.get('metric')}={rec.get('value')}"
        )


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    n = max(cfg.n_list)
    report = ExperimentReport("verify", cfg.as_dict())
    failed = False

    for m in range(1, n + 1):
        facts = check_fact_properties(m)
        failed |= facts["failures"] > 0
        if m >= 2:
            diff = check_difference_identity(m)
            failed |= diff["failures"] > 0
    report.add({"n": n, "metric": "krawtchouk_identity_failures", "value": 0 if not failed else 1})

    scan = bound_scan_a(n)
    failed |= not scan["within_two"]
    report.add({"n": n, "metric": "bound_a_max_ratio", "value": scan["value"],
                "witness": {"argmax": scan["argmax"]}})

    rng = np.random.default_rng(cfg.seed)
    table = build_table(n)
    worst_sphere = 0.0
    worst_noise = 0.0
    t_grid = [0.01, 0.1, 1.0, math.log(2), 5.0]
    for _ in range(min(cfg.trials, 10)):
        f = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
        for k in range(n + 1):
            d = spherical_mean_direct(f, k)
            m_ = spherical_mean_multiplier(f, k, table)
            worst_sphere = max(worst_sphere, float(np.abs(d.values - m_.values).max()))
        for t in t_grid:
            nb = noise_binomial(f, t, table)
            nm = noise_multiplier(f, t)
            worst_noise = max(worst_noise, float(np.abs(nb.values - nm.values).max()))
    failed |= worst_sphere > 1e-10 or worst_noise > 1e-10
    report.add({"n": n, "metric": "spherical_cross_validation", "value": worst_sphere})
    report.add({"n": n, "metric": "noise_cross_validation", "value": worst_noise})

    axioms = semigroup_axioms_check(n, t_grid, trials=min(cfg.trials, 20), seed=cfg.seed)
    failed |= axioms["max_violation"] > 1e-10
    report.add({"n": n, "metric": "semigroup_max_violation", "value": axioms["max_violation"]})

    props = check_variation_properties(min(cfg.trials, 200), seed=cfg.seed)
    failed |= props["worst"] < -1e-10
    report.add({"n": n, "metric": "variation_worst_slack", "value": props["worst"]})

    chain = check_chain_lemma(l=5, M=24, s=2.0, trials=min(cfg.trials, 100), seed=cfg.seed)
    failed |= chain["worst_slack"] < -1e-10
    report.add({"n": n, "metric": "chain_lemma_worst_slack", "value": chain["worst_slack"]})

    bad_partitions = 0
    for l in range(0, 7):
        for a in range(1 << l):
            for b in range(a + 1, (1 << l) + 1):
                parts = dyadic_partition(a, b, l)
                covered = sum(hi - lo for lo, hi in parts)
                per_scale = {}
                ok = covered == b - a and parts[0][0] == a and parts[-1][1] == b
                for lo, hi in parts:
                    g = (hi - lo).bit_length() - 1
                    ok &= lo % (hi - lo) == 0
                    per_scale[g] = per_scale.get(g, 0) + 1
                ok &= all(c <= 2 for c in per_scale.values())
                bad_partitions += 0 if ok else 1
    failed |= bad_partitions > 0
    report.add({"n": n, "metric": "dyadic_partition_failures", "value": bad_partitions})

    _emit(report, args.out, args.format)
    return 1 if failed else 0


def cmd_kraw_table(args) -> int:
    cfg = _merge_config(args)
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for n in cfg.n_list:
        table = build_table(n)
        path = os.path.join(args.out, f"kraw-table-n{n}.csv")
        table.export_csv(path)
        print(f"kraw-table: n={n} rows={(n + 1) ** 2} -> {path}")
    report = ExperimentReport("kraw-scans", cfg.as_dict())
    for n in cfg.n_list:
        if n >= 2:
            report.add({"n": n, "metric": "bound_a_max_ratio", "value": bound_scan_a(n)["value"]})
            bc = bound_scan_b_c(n)
            report.add({"n": n, "metric": "C_b", "value": bc["C_b"], "witness": {"argmax": bc["argmax_b"]}})
            report.add({"n": n, "metric": "C_c", "value": bc["C_c"], "witness": {"argmax": bc["argmax_c"]}})
    if max(cfg.n_list) >= 2:
        est = estimate_exp_constant(max(cfg.n_list))
        ok = est["value"] > 0
        status = 0 if ok else 1
        report.add({"n": max(cfg.n_list), "metric": "c_hat", "value": est["value"],
                    "witness": {"argmin": est["argmin"]}})
    _emit(report, args.out, args.format)
    return status


def cmd_counterexample(args) -> int:
    cfg = _merge_config(args)
    report = ExperimentReport(f"counterexample-{args.kind}", cfg.as_dict())
    grid = [(n, r) for n in cfg.n_list for r in cfg.r_list]

    def one(pair):
        n, r = pair
        if args.kind == "all-ones":
            return counterexample_all_ones(n, r)
        return counterexample_truncated(n, r, math.sqrt(n))

    report.extend(map_ordered(one, grid, args.threads))
    _emit(report, args.out, args.format)
    violated = any(not rec["witness"]["satisfied"] for rec in report.records)
    return 1 if violated else 0


def cmd_parity_scan(args) -> int:
    cfg = _merge_config(args)
    report = ExperimentReport("parity-scan", cfg.as_dict())
    parities = (0, 1) if cfg.q is None else (cfg.q,)
    grid = [(n, r, q) for n in cfg.n_list for r in cfg.r_list for q in parities]
    report.extend(map_ordered(lambda t: parity_character_scan(*t), grid, args.threads))
    _emit(report, args.out, args.format)
    return 0


def cmd_phi_psi(args) -> int:
    cfg = _merge_config(args)
    report = ExperimentReport("phi-psi", cfg.as_dict())
    for n in cfg.n_list:
        report.add(phi_scan(n))
        report.add(psi_scan(n))
    _emit(report, args.out, args.format)
    return 0


def cmd_half_spectrum(args) -> int:
    cfg = _merge_config(args)
    report = ExperimentReport("half-spectrum", cfg.as_dict())
    for n in cfg.n_list:
        for r in cfg.r_list:
            report.add(proposition_halfspectrum_scan(n, r, cfg.trials, cfg.seed))
    _emit(report, args.out, args.format)
    return 0


def cmd_bench(args) -> int:
    cfg = _merge_config(args)
    report = ExperimentReport("bench", cfg.as_dict())
    rng = np.random.default_rng(cfg.seed)
    for n in cfg.n_list:
        size = 1 << n
        buf = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        t0 = time.perf_counter()
        fwht(buf)
        t_fwht = time.perf_counter() - t0
        report.add({"n": n, "metric": "fwht_seconds", "value": t_fwht,
                    "witness": {"throughput_elems_per_s": size / t_fwht}})
        f = CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        table = build_table(n)
        t0 = time.perf_counter()
        stack = spherical_mean_stack(f, range(n + 1), table)
        t_sweep = time.perf_counter() - t0
        report.add({"n": n, "metric": "spherical_sweep_seconds", "value": t_sweep})
        t0 = time.perf_counter()
        vr_pointwise_values(stack, 2.0)
        t_vr = time.perf_counter() - t0
        report.add({"n": n, "r": 2.0, "metric": "vr_pointwise_seconds", "value": t_vr})
        del stack
        t0 = time.perf_counter()
        variation_norm_ratio(f, range(n + 1), 2.0, table)
        t_ratio = time.perf_counter() - t0
        report.add({"n": n, "r": 2.0, "metric": "variation_ratio_seconds", "value": t_ratio})
    _emit(report, args.out, args.format)
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "kraw-table": cmd_kraw_table,
    "counterexample": cmd_counterexample,
    "parity-scan": cmd_parity_scan,
    "phi-psi": cmd_phi_psi,
    "half-spectrum": cmd_half_spectrum,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubevar",
        description="Variation seminorms of spherical means on the Hamming cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_threads = int(os.environ.get("CUBEVAR_THREADS", os.cpu_count() or 1))
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", help="dimension or comma list of dimensions")
        p.add_argument("--r", help="variation order or comma list")
        p.add_argument("--q", type=int, choices=(0, 1), help="radius parity")
        p.add_argument("--seed", type=int, help="64-bit reproducibility seed")
        p.add_argument("--trials", type=int, help="random trial count")
        p.add_argument("--threads", type=int, default=default_threads)
        p.add_argument("--config", help="plain key=value config file")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--format", choices=("json", "csv", "both"), default="both")
        if name == "counterexample":
            p.add_argument("--kind", choices=("all-ones", "truncated"), default="all-ones")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
