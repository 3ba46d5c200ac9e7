"""Command-line entry point: verification suites, table exports, experiments.

Exit codes: 0 success, 1 assertion/bound violation in a verify-style suite,
2 usage or configuration error, including a dimension whose memory estimate
exceeds physical memory.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, fields

from . import operators
from .checks import CHECKS, battery_bytes, run_check
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
    witness_bytes,
)


def _list_of(parse):
    """A flag's `type`: a comma list of `parse` values, named in a usage error."""
    def parse_list(text):
        return [parse(v) for v in text.split(",")]
    parse_list.__name__ = f"{parse.__name__} list"
    return parse_list


def _config(args) -> ExperimentConfig:
    """The ExperimentConfig of the flags given, each under the field its dest
    names; every other field keeps its default."""
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                               if getattr(args, f.name, None) is not None})


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
    cfg = _config(args)
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
    operators._check_points(n, "the check battery")
    operators._check_bytes(battery_bytes(n), f"the check battery's arrays at n={n}")
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
    cfg = _config(args)
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
    cfg = _config(args)
    if args.kind != "corollary":         # read off the multiplier sequence alone
        for n in cfg.n_list:     # every n's estimate before the first character is built
            operators._check_points(n, f"the {args.kind} witness")
            operators._check_bytes(witness_bytes(n, cfg.r_list), f"the {args.kind} witness at n={n}")
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
    cfg = _config(args)
    report = ExperimentReport("parity-scan", asdict(cfg))
    parities = (0, 1) if cfg.q is None else (cfg.q,)
    report.records.extend(parity_character_scan(n, r, q)
                          for n in cfg.n_list for r in cfg.r_list for q in parities)
    _emit(report, args.out, args.format)
    return 0


def cmd_phi_psi(args) -> int:
    cfg = _config(args)
    report = ExperimentReport("phi-psi", asdict(cfg))
    for n in cfg.n_list:
        report.records.append(phi_scan(n))
        report.records.append(psi_scan(n))
    _emit(report, args.out, args.format)
    return 0


def cmd_half_spectrum(args) -> int:
    cfg = _config(args)
    for n in cfg.n_list:     # every n's fold and memory estimate before the first draw
        operators._check_points(n, "a half-spectrum draw")
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


#: Per-command flags beyond --n, --out and --format: each command takes only
#: what it reads, except that counterexample also takes --seed, unread,
#: because perfbench appends --seed to every command it runs, and --threads,
#: whose one accepted value is 1 (it runs its n values in order), because
#: perfbench's witness workload passes --threads 1.
COMMAND_FLAGS = {
    "verify": ("seed", "trials"),
    "kraw-table": (),
    "counterexample": ("r", "alpha", "seed", "threads", "kind"),
    "parity-scan": ("r", "q"),
    "phi-psi": (),
    "half-spectrum": ("r", "seed", "trials"),
}
FLAG_ARGS = {
    "r": {"type": _list_of(float), "dest": "r_list", "metavar": "R",
          "help": "variation order or comma list"},
    "alpha": {"type": float, "help": "power rule b_n = n^alpha of --kind corollary"},
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
        p.add_argument("--n", type=_list_of(int), dest="n_list", metavar="N",
                       help="dimension or comma list of dimensions")
        for flag in COMMAND_FLAGS[name]:
            p.add_argument(f"--{flag}", **FLAG_ARGS[flag])
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
