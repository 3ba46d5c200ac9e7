"""Benchmark of the cubevar command line, run from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from
`src/` in fresh child processes and needs no build.  Each repetition runs one
real CLI command (see WORKLOADS) in a new `child.py` process, checks every
output record against an independent reference, and keeps repeating until
the next repetition would end after S seconds.

With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json as
medians over repetitions of solve_s (wall time of `cubevar.cli.main`) and
peak_rss_mb (the child's own maximum resident set, from `os.wait4`), and
setup_s, the fastest of the run's set-ups (process spawn until `cubevar.cli`
is imported), sampled by every repetition and by import-only processes.
With --trace 1 it alternates untraced and traced repetitions, reports the
per-layer metrics of BENCHMARK.json from the traced ones, and runs the
slowed-layer self-test.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  One attempted operation is one output
record; it fails when it is missing, not finite, or misses its check, or
when the command exits non-zero.  The run exits 1 when any record failed
and 2, printing no result, when the checkout has no cubevar sources.
Reports, spans, run metadata and every sample are left under
`.perfbench_out/NAME/`.
"""
from __future__ import annotations

import argparse
import glob
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import SLOWED_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Import-only processes that sample set-up, about this many in a run.  They
#: follow each untraced repetition, in proportion to its share of the run, so
#: that the samples are spread over the whole run.  setup_s is the fastest
#: sample: a shared machine runs through slow phases of seconds to minutes,
#: which move the median set-up of a run by up to half, its minimum by a
#: quarter.
SETUP_PROBES = 30
CHILD_TIMEOUT_S = 150
RTOL = 1e-9
COMPLEX_BYTES = 16

#: Values `cubevar half-spectrum --n 16 --r 2,3 --trials 20 --seed S` reported
#: at commit 83be13b, for seeds 0..31; other seeds use the reference alone.
SEED_COMMIT_HALFSPECTRUM = HERE / "halfspectrum_seed_commit.json"


def _close(*expected: float) -> Callable[[float], bool]:
    return lambda value: all(abs(value - e) <= RTOL * abs(e) for e in expected)


def expected_values(argv) -> dict:
    """{(metric, r): value} that reference.py computes for this command."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py"), *argv],
                          cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    return {(rec["metric"], rec["r"]): rec["value"] for rec in json.loads(proc.stdout)}


def witness_checks(argv, seed: int) -> dict:
    return {key: _close(value) for key, value in expected_values(argv).items()}


def halfspectrum_checks(argv, seed: int) -> dict:
    recorded = json.loads(SEED_COMMIT_HALFSPECTRUM.read_text()).get(str(seed), {})
    checks = {}
    for (metric, r), value in expected_values(argv).items():
        seed_commit = [recorded[str(r)]] if str(r) in recorded else []
        checks[(metric, r)] = _close(value, *seed_commit)
    return checks


#: The tolerance `cubevar verify` applies to each record it writes.
VERIFY_LIMITS = {
    "krawtchouk_identity_failures": lambda v: v == 0,
    "bound_a_max_ratio": lambda v: v <= 2,
    "spherical_cross_validation": lambda v: v <= 1e-10,
    "noise_cross_validation": lambda v: v <= 1e-10,
    "semigroup_max_violation": lambda v: v <= 1e-10,
    "variation_worst_slack": lambda v: v >= -1e-10,
    "chain_lemma_worst_slack": lambda v: v >= -1e-10,
    "dyadic_partition_failures": lambda v: v == 0,
}


def verify_checks(argv, seed: int) -> dict:
    return {(metric, None): ok for metric, ok in VERIFY_LIMITS.items()}


@dataclass(frozen=True)
class Workload:
    argv: tuple          # CLI arguments; --seed and --out are appended
    report: str          # JSON report the command writes under --out
    working_set: int     # computed bytes of the largest array the command holds
    checks: Callable[[tuple, int], dict]   # (argv, seed) -> {(metric, r): predicate}


WORKLOADS = {
    # One real single-level input at n = 20: the (n+1) x 2^n complex stack
    # exceeds L3 and is rebuilt once per r.  One thread keeps peak RSS steady.
    "witness": Workload(
        ("counterexample", "--kind", "truncated", "--n", "20", "--r", "1,2,3", "--threads", "1"),
        "counterexample-truncated.json", 21 * 2**20 * COMPLEX_BYTES, witness_checks),
    # Random complex inputs over levels 0..8 at n = 16: the same FWHT and DP
    # layers on a stack that fits in L3, with no real or single-level shortcut.
    "halfspectrum": Workload(
        ("half-spectrum", "--n", "16", "--r", "2,3", "--trials", "20"),
        "half-spectrum.json", 17 * 2**16 * COMPLEX_BYTES, halfspectrum_checks),
    # Thousands of small FWHTs through the per-function operator routes plus
    # scalar vr_exact calls: no stack and no pointwise DP.
    "verify": Workload(
        ("verify", "--n", "14", "--trials", "200"),
        "verify.json", 2**14 * COMPLEX_BYTES, verify_checks),
}


@dataclass
class Child:
    spawned: float       # CLOCK_MONOTONIC just before the spawn
    rss_mb: float
    result: dict | None  # what child.py wrote, if it exited 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(env, result_path: Path, child_args=(), cli_argv=()) -> Child:
    """Run child.py to completion and reap it with os.wait4, which gives this
    child's own peak RSS."""
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path), *child_args]
    if cli_argv:
        cmd += ["--", *cli_argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = None
    return Child(spawned, usage.ru_maxrss / 1024.0, result)


def count_failures(checks: dict, report: Path, child: Child) -> int:
    """Failed records of one repetition: every record fails if the command
    did not exit 0; otherwise each expected record must appear once, be
    finite and pass its check."""
    if child.result is None or child.result.get("exit") != 0:
        return len(checks)
    try:
        records = json.loads(report.read_text())["records"]
    except (OSError, ValueError, KeyError, TypeError):
        return len(checks)
    found = {}
    for rec in records:
        found.setdefault((rec.get("metric"), rec.get("r")), []).append(rec.get("value"))
    failed = 0
    for key, ok in checks.items():
        values = found.get(key, [])
        value = values[0] if len(values) == 1 else None
        good = (isinstance(value, (int, float)) and math.isfinite(value) and ok(value))
        failed += 0 if good else 1
    return failed


def timed_loop(seconds: float, step: Callable[[], None]) -> None:
    """Call step at least once, then again while it is likely to end within
    `seconds` of the first call."""
    start = time.monotonic()
    durations = []
    while True:
        began = time.monotonic()
        step()
        durations.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return


SLOWED_DELAY_S = 0.05
SELFTEST_ARGV = ("half-spectrum", "--n", "10", "--r", "2", "--trials", "4", "--seed", "0")


def slowed_layer_selftest(env, out: Path) -> dict:
    """Trace a small run twice, once with SLOWED_DELAY_S slept inside every
    call of SLOWED_LAYER.  The added time must show in that layer's self_s
    and not in the self_s of the layer that calls it."""
    runs = []
    for tag, delay in (("base", []), ("slowed", ["--delay", str(SLOWED_DELAY_S)])):
        rep = out / f"selftest-{tag}"
        rep.mkdir()
        child = run_child(env, rep / "result.json", ["--trace", str(rep / "spans.jsonl"), *delay],
                          (*SELFTEST_ARGV, "--out", str(rep)))
        if child.result is None or child.result.get("exit") != 0:
            return {"passed": False, "reason": f"{tag} run failed"}
        runs.append((child.result["layers"], rep / "spans.jsonl"))
    (base, _), (slowed, spans_path) = runs
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    caller = next(spans[s["parent"]]["name"] for s in spans if s["name"] == SLOWED_LAYER)
    expected = slowed[SLOWED_LAYER]["calls"] * SLOWED_DELAY_S
    added = slowed[SLOWED_LAYER]["self_s"] - base[SLOWED_LAYER]["self_s"]
    leaked = slowed[caller]["self_s"] - base[caller]["self_s"]
    return {
        "passed": 0.8 * expected <= added <= 1.5 * expected and abs(leaked) <= 0.2 * expected,
        "layer": SLOWED_LAYER, "caller": caller, "injected_s": expected,
        "layer_self_s_added": added, "caller_self_s_added": leaked,
    }


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        sizes[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return sizes


def run_metadata(args, child_meta: dict | None) -> dict:
    caches = _cache_sizes()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": list(WORKLOADS[args.workload].argv),
        "python": platform.python_version(), **(child_meta or {}),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cache_bytes": caches,
        "working_set_bytes": {
            name: {"bytes": w.working_set,
                   **{f"over_{level}": w.working_set / size for level, size in caches.items()}}
            for name, w in WORKLOADS.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubevar" / "cli.py").is_file():
        print(f"error: no cubevar sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    command = (*workload.argv, "--seed", str(args.seed))
    checks = workload.checks(command, args.seed)
    warmup = run_child(env, out / "warmup.json", ["--setup-only", "--meta"])
    meta = run_metadata(args, warmup.result and warmup.result["meta"])
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    print("perfbench meta:", json.dumps(meta), flush=True)
    setup = []
    probes = itertools.count()

    def probe() -> None:
        child = run_child(env, out / f"setup{next(probes)}.json", ["--setup-only"])
        if child.result is not None:
            setup.append(child.result["ready"] - child.spawned)

    samples = {False: [], True: []}    # traced? -> [(solve_s, rss_mb, child.py's result)]
    tally = {"attempted": 0, "failed": 0}
    numbers = itertools.count()

    def repetition(traced: bool) -> None:
        began = time.monotonic()
        rep = out / f"rep{next(numbers)}"
        rep.mkdir()
        child_args = ["--trace", str(rep / "spans.jsonl")] if traced else []
        child = run_child(env, rep / "result.json", child_args,
                          (*command, "--out", str(rep)))
        tally["attempted"] += len(checks)
        tally["failed"] += count_failures(checks, rep / workload.report, child)
        if child.result is not None:
            if not traced:
                setup.append(child.result["ready"] - child.spawned)
            samples[traced].append((child.result["solve_s"], child.rss_mb, child.result))
        if not args.trace:
            share = (time.monotonic() - began) / args.seconds
            for _ in range(math.ceil(SETUP_PROBES * share)):
                probe()

    def pair() -> None:
        repetition(False)
        repetition(True)

    timed_loop(args.seconds, pair if args.trace else lambda: repetition(False))

    correct = tally["failed"] == 0
    metrics = {}
    if args.trace:
        selftest = slowed_layer_selftest(env, out)
        print("perfbench selftest:", json.dumps(selftest), flush=True)
        correct = correct and selftest["passed"]
        plain, traced = samples[False], samples[True]
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name == "fail_frac":
                value = tally["failed"] / tally["attempted"]
            elif name == "trace_overhead_pairs":
                value = min(len(plain), len(traced))
            elif name == "trace_overhead_s":
                if not (plain and traced):
                    continue
                value = (statistics.median(s for s, _, _ in traced)
                         - statistics.median(s for s, _, _ in plain))
            elif not traced:
                continue
            elif name == "trace_overhead_est_s":
                value = statistics.median(res["wrapper_cost_s"] * res["spans"] for _, _, res in traced)
            else:
                span, field = name.rsplit(".", 1)
                value = statistics.median(res["layers"].get(span, {}).get(field, 0)
                                          for _, _, res in traced)
            metrics[name] = {"value": value, "unit": entry["unit"]}
    else:
        plain = samples[False]
        values = {}
        if plain:
            values["solve_s"] = statistics.median(s for s, _, _ in plain)
            values["peak_rss_mb"] = statistics.median(r for _, r, _ in plain)
        if setup:
            values["setup_s"] = min(setup)
        for entry in spec["end_to_end"]:
            if entry["name"] in values:
                metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    (out / "samples.json").write_text(json.dumps({
        "setup_s": setup, "solve_s": [s for s, _, _ in samples[False]],
        "traced_solve_s": [s for s, _, _ in samples[True]],
        "peak_rss_mb": [r for _, r, _ in samples[False]]}) + "\n")
    correct = correct and len(metrics) == len(spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
