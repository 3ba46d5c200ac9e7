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

from .checks import CHECKS, run_check
from .core import CubeFunction, fwht
from .krawtchouk import bound_scan_a, bound_scan_b_c, build_table, estimate_exp_constant
from .operators import spherical_mean_stack
from .variation import vr_pointwise_values
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


def _list_of(parse):
    return lambda text: [parse(v) for v in text.split(",")]


#: Config key -> the parser of its value, in a config file or a flag.
CONFIG_PARSERS = {"n_list": _list_of(int), "r_list": _list_of(float), "q": int,
                  "alpha": float, "seed": int, "trials": int}
#: Command-line flag -> the config key it overrides.
FLAG_KEYS = {"n": "n_list", "r": "r_list", "q": "q", "seed": "seed", "trials": "trials"}


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
            if key not in CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value.strip()
    return ExperimentConfig(**{key: CONFIG_PARSERS[key](value) for key, value in raw.items()})


def _merge_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    kwargs = cfg.as_dict()
    for flag, key in FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value not in (None, ""):
            kwargs[key] = CONFIG_PARSERS[key](value)
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
    n, trials, seed = max(cfg.n_list), cfg.trials, cfg.seed
    sizes = {
        "krawtchouk_identity_failures": {"dims": range(1, n + 1)},
        "bound_a_max_ratio": {"dims": [n]},
        "spherical_cross_validation": {"dims": [n] * min(trials, 10), "seed": seed},
        "noise_cross_validation": {"dims": [n] * min(trials, 10), "seed": seed},
        "semigroup_max_violation": {"cases": [(n, min(trials, 20))], "seed": seed},
        "variation_worst_slack": {"trials": min(trials, 200), "seed": seed},
        "chain_lemma_worst_slack": {"cases": [(5, 24, 2.0)], "trials": min(trials, 100), "seed": seed},
        "dyadic_partition_failures": {"scales": range(7)},
    }
    report = ExperimentReport("verify", cfg.as_dict())
    failed = []
    for name in CHECKS:
        res = run_check(name, **sizes[name])
        verdict = "PASS" if res["passed"] else "FAIL"
        print(f"CHECK {name} {res['value']} {res['tol']} {verdict} {res['elapsed']:.3f}s")
        witness = {} if res["witness"] is None else {"witness": res["witness"]}
        report.add({"n": n, "metric": name, "value": res["value"], **witness})
        if not res["passed"]:
            failed.append(name)
    _emit(report, args.out, args.format)
    if failed:
        print(f"verify: failed checks: {', '.join(failed)}", file=sys.stderr)
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
