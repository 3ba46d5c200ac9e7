"""Command-line entry point: verification suites, table exports, experiments.

Exit codes: 0 success, 1 assertion/bound violation in a verify-style suite,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

from .checks import CHECKS, run_check
from .core import check_dim
from .krawtchouk import bound_scan_a, bound_scan_b_c, build_table, estimate_exp_constant
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    counterexample_all_ones,
    counterexample_corollary,
    counterexample_truncated,
    halfspectrum_fold_bits,
    parity_character_scan,
    phi_scan,
    proposition_halfspectrum_scan,
    psi_scan,
    record,
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
    kwargs = asdict(cfg)
    for flag, key in FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value not in (None, ""):
            kwargs[key] = CONFIG_PARSERS[key](value)
    return ExperimentConfig(**kwargs)


def _cube_config(args) -> ExperimentConfig:
    """`_merge_config`, with every dimension checked for 2^n-point cube functions."""
    cfg = _merge_config(args)
    for n in cfg.n_list:
        check_dim(n)
    return cfg


def _emit(report: ExperimentReport, out_dir, fmt: str) -> None:
    """Write the report in `fmt` under `out_dir` and print its records.  Both
    formats are serialized before the directory is made, so a report refused
    for an inf or NaN (ValueError) leaves nothing behind."""
    texts = {}
    if fmt in ("json", "both"):
        texts["json"] = report.to_json() + "\n"
    if fmt in ("csv", "both"):
        texts["csv"] = report.to_csv()
    os.makedirs(out_dir, exist_ok=True)
    for ext, text in texts.items():
        with open(os.path.join(out_dir, f"{report.name}.{ext}"), "w", newline="") as fh:
            fh.write(text)
    for rec in report.records:
        print(f"{report.name}: n={rec['n']} r={rec['r']} q={rec['q']} {rec['metric']}={rec['value']}")


def cmd_verify(args) -> int:
    cfg = _cube_config(args)
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
        "antipodal_max_violation": {"dims": [n], "seed": seed},
    }
    report = ExperimentReport("verify", asdict(cfg))
    failed = []
    for name in CHECKS:
        res = run_check(name, **sizes[name])
        verdict = "PASS" if res["passed"] else "FAIL"
        print(f"CHECK {name} {res['value']} {res['tol']} {verdict} {res['elapsed']:.3f}s")
        report.records.append(record(n, name, res["value"], res["witness"]))
        if not res["passed"]:
            failed.append(name)
    _emit(report, args.out, args.format)
    if failed:
        print(f"verify: failed checks: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def cmd_kraw_table(args) -> int:
    cfg = _merge_config(args)
    tables = [build_table(n) for n in cfg.n_list]     # a bad n writes no file
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for n, table in zip(cfg.n_list, tables):
        path = os.path.join(args.out, f"kraw-table-n{n}.csv")
        table.export_csv(path)
        print(f"kraw-table: n={n} rows={(n + 1) ** 2} -> {path}")
    report = ExperimentReport("kraw-scans", asdict(cfg))
    for n in cfg.n_list:
        if n >= 2:
            exact, witness = bound_scan_a(n)
            report.records.append(record(n, "bound_a_max_ratio", float(exact), witness))
            for metric, (value, witness) in zip(("C_b", "C_c"), bound_scan_b_c(n)):
                report.records.append(record(n, metric, value, witness))
    if max(cfg.n_list) >= 2:
        # c_hat is None when no quadrant entry constrains c (n = 2)
        c_hat, witness = estimate_exp_constant(max(cfg.n_list))
        status = 1 if c_hat is not None and c_hat <= 0 else 0
        report.records.append(record(max(cfg.n_list), "c_hat", c_hat, witness))
    _emit(report, args.out, args.format)
    return status


def cmd_counterexample(args) -> int:
    # The corollary witness is read off the multiplier sequence alone.
    cfg = _merge_config(args) if args.kind == "corollary" else _cube_config(args)
    report = ExperimentReport(f"counterexample-{args.kind}", asdict(cfg))
    for n in cfg.n_list:
        if args.kind == "all-ones":
            report.records.extend(counterexample_all_ones(n, cfg.r_list))
        elif args.kind == "corollary":
            report.records.extend(counterexample_corollary(n, cfg.r_list, cfg.alpha))
        else:
            report.records.extend(counterexample_truncated(n, cfg.r_list, math.sqrt(n)))
    _emit(report, args.out, args.format)
    # A corollary_skipped record (no witness at this n) has no verdict.
    violated = any(not rec["witness"].get("satisfied", True) for rec in report.records)
    return 1 if violated else 0


def cmd_parity_scan(args) -> int:
    cfg = _merge_config(args)
    report = ExperimentReport("parity-scan", asdict(cfg))
    parities = (0, 1) if cfg.q is None else (cfg.q,)
    report.records.extend(parity_character_scan(n, r, q)
                          for n in cfg.n_list for r in cfg.r_list for q in parities)
    _emit(report, args.out, args.format)
    return 0


def cmd_phi_psi(args) -> int:
    cfg = _merge_config(args)
    report = ExperimentReport("phi-psi", asdict(cfg))
    for n in cfg.n_list:
        report.records.append(phi_scan(n))
        report.records.append(psi_scan(n))
    _emit(report, args.out, args.format)
    return 0


def cmd_half_spectrum(args) -> int:
    cfg = _cube_config(args)
    for n in cfg.n_list:     # every n's fold and memory estimate before the first draw
        halfspectrum_fold_bits(n)
    report = ExperimentReport("half-spectrum", asdict(cfg))
    for n in cfg.n_list:
        report.records.extend(proposition_halfspectrum_scan(n, cfg.r_list, cfg.trials, cfg.seed))
    _emit(report, args.out, args.format)
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "kraw-table": cmd_kraw_table,
    "counterexample": cmd_counterexample,
    "parity-scan": cmd_parity_scan,
    "phi-psi": cmd_phi_psi,
    "half-spectrum": cmd_half_spectrum,
}


#: Per-command flags beyond --n, --config, --out and --format: each command
#: takes only what it reads, except that counterexample also takes --seed,
#: unread, because perfbench appends --seed to every command it runs, and
#: --threads, whose one accepted value is 1 (it runs its n values in order),
#: because perfbench's witness workload passes --threads 1.
COMMAND_FLAGS = {
    "verify": ("seed", "trials"),
    "kraw-table": (),
    "counterexample": ("r", "seed", "threads", "kind"),
    "parity-scan": ("r", "q"),
    "phi-psi": (),
    "half-spectrum": ("r", "seed", "trials"),
}
FLAG_ARGS = {
    "r": {"help": "variation order or comma list"},
    "q": {"type": int, "choices": (0, 1), "help": "radius parity"},
    "seed": {"type": int, "help": "64-bit reproducibility seed"},
    "trials": {"type": int, "help": "random trial count"},
    "threads": {"type": int, "choices": (1,), "help": "only 1: the n values run in order"},
    "kind": {"choices": ("all-ones", "truncated", "corollary"), "default": "all-ones"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubevar",
        description="Variation seminorms of spherical means on the Hamming cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", help="dimension or comma list of dimensions")
        for flag in COMMAND_FLAGS[name]:
            p.add_argument(f"--{flag}", **FLAG_ARGS[flag])
        p.add_argument("--config", help="plain key=value config file")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
