"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""
import math
import time

import numpy as np

from cubevar import (
    CubeFunction,
    build_table,
    character,
    counterexample_all_ones,
    fwht,
    parity_character_scan,
    phi_scan,
    psi_scan,
    spherical_mean_stack,
    vr_bruteforce,
    vr_exact,
    vr_pointwise_values,
)
from cubevar.checks import run_check
from cubevar.cli import main
from cubevar.experiments import ExperimentReport


def report_line(num, name, ok):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def rand_fn(n, rng):
    size = 1 << n
    return CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def test_01_exact_krawtchouk_identities():
    res = run_check("krawtchouk_identity_failures", dims=range(1, 31))
    ok = res["passed"] and res["elapsed"] < 30.0
    report_line(1, f"exact-krawtchouk-identities ({res['elapsed']:.1f}s)", ok)


def test_02_bound_a_sharp_constant():
    res = run_check("bound_a_max_ratio", dims=range(1, 25))
    report_line(2, "bound-a-sharp-constant-2", res["passed"] and res["value"] == 2)


def test_03_operator_cross_validation():
    dims = [(4, 8, 12)[i % 3] for i in range(50)]
    sphere = run_check("spherical_cross_validation", dims=dims, seed=2024)
    noise = run_check("noise_cross_validation", dims=dims, seed=2024)
    elapsed = sphere["elapsed"] + noise["elapsed"]
    ok = sphere["passed"] and noise["passed"] and elapsed < 120.0
    values = f"sphere {sphere['value']:.2e}, noise {noise['value']:.2e}, {elapsed:.1f}s"
    report_line(3, f"operator-cross-validation ({values})", ok)


def test_04_semigroup_axioms():
    res = run_check("semigroup_max_violation", cases=((6, 25), (12, 25)), seed=7)
    report_line(4, f"diffusion-semigroup-axioms (worst {res['value']:.2e})", res["passed"])


def test_05_variation_dp_vs_bruteforce():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for r in (1.0, 1.5, 2.0, 3.0):
            dp = vr_exact(a, r).value
            bf = vr_bruteforce(a, r)
            ok &= abs(dp - bf) <= 1e-12 * max(1.0, abs(bf))
    report_line(5, "variation-dp-vs-bruteforce", ok)


def test_06_counterexample_all_ones():
    ok = True
    for n in range(1, 15):
        for rec in counterexample_all_ones(n, [1.0, 2.0, 3.0]):
            ok &= abs(rec["value"] - 2 * n ** (1 / rec["r"])) < 1e-9
    # chain brute force confirms equality at small n: the per-point sequence
    # is alternating, so the exhaustive chain maximum equals 2 n^{1/r}
    for n in (4, 8):
        f = character(n, (1 << n) - 1)
        stack = spherical_mean_stack(f, range(n + 1))
        for r in (1.0, 2.0, 3.0):
            for x in (0, (1 << n) - 1):
                bf = vr_bruteforce(stack[:, x], r)
                ok &= abs(bf - 2 * n ** (1 / r)) < 1e-9
    report_line(6, "counterexample-1-reproduction", ok)


def test_07_counterexample_truncated():
    ok = True
    worst_margin = math.inf
    for n in range(6, 21):
        a_n = math.sqrt(n)
        f = character(n, (1 << (n - 1)) - 1)
        stack = spherical_mean_stack(f, range(n + 1))
        if np.abs(stack.imag).max() < 1e-13:
            stack = np.ascontiguousarray(stack.real)
        norm_f = f.norm(2)
        for r in (1.0, 2.0, 3.0):
            v = vr_pointwise_values(stack, r)
            ratio = float(np.sqrt((v**2).sum())) / norm_f
            bound = (2.0 / 3.0) * math.floor(n / (3.0 * a_n)) ** (1.0 / r)
            worst_margin = min(worst_margin, ratio - bound)
            ok &= ratio >= bound
    report_line(7, f"counterexample-2-reproduction (worst margin {worst_margin:.3f})", ok)


def test_08_variation_inequality_suite():
    # 600 trials x 3 orders x 6 properties > 10^4 property instances
    props = run_check("variation_worst_slack", trials=600, seed=5)
    cases = [(l, M, s) for s in (1.5, 2.0, 3.0) for l, M in ((4, 16), (6, 50))]
    chain = run_check("chain_lemma_worst_slack", cases=cases, trials=175, seed=13)
    report_line(8, "variation-inequality-suite", props["passed"] and chain["passed"])


def test_09_dyadic_partition_lemma():
    res = run_check("dyadic_partition_failures", scales=range(9))
    report_line(9, f"dyadic-partition-lemma ({res['value']} failures)", res["passed"])


def test_10_parity_vs_full_blowup(tmp_path):
    r = 3.0
    report = ExperimentReport("parity-vs-full", {"r": r, "n_range": [4, 24]})
    parity_max = {0: {}, 1: {}}
    full_ok = True
    for n in range(4, 25):
        table = build_table(n)
        for q in (0, 1):
            rec = parity_character_scan(n, r, q)
            parity_max[q][n] = rec["value"]
            report.add(rec)
        full = max(
            vr_exact(table.float[:, m], r).value for m in range(n + 1)
        )
        report.add({"n": n, "r": r, "q": None, "metric": "full_range_character_max", "value": full})
        full_ok &= full >= 2 * n ** (1 / r) - 1e-9
    parity_ok = all(
        parity_max[q][n] <= 1.25 * parity_max[q][12]
        for q in (0, 1)
        for n in range(4, 25)
    )
    report.write_json(tmp_path / "parity-vs-full.json")
    report.write_csv(tmp_path / "parity-vs-full.csv")
    cap0 = max(parity_max[0].values())
    cap1 = max(parity_max[1].values())
    report_line(
        10,
        f"parity-no-blowup-vs-full-blowup (parity caps {cap0:.3f}/{cap1:.3f})",
        parity_ok and full_ok,
    )


def test_11_phi_psi_boundedness():
    phi_max = []
    psi_max = []
    ok = True
    for n in range(4, 25):
        phi = phi_scan(n)
        psi = psi_scan(n)
        ok &= phi["witness"]["phi_at_zero"] == 0.0
        ok &= psi["witness"]["psi_at_zero"] == 0.0
        phi_max.append(phi["value"])
        psi_max.append(psi["value"])
    ok &= math.isfinite(max(phi_max)) and math.isfinite(max(psi_max))
    report_line(
        11,
        f"phi-psi-boundedness (max Phi {max(phi_max):.4f}, max Psi {max(psi_max):.4f})",
        ok,
    )


def test_12_performance():
    rng = np.random.default_rng(0)
    buf = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)
    t0 = time.monotonic()
    fwht(buf)
    t_fwht = time.monotonic() - t0
    n, r = 14, 2.0
    f = rand_fn(n, rng)
    t0 = time.monotonic()
    stack = spherical_mean_stack(f, range(n + 1))
    v = vr_pointwise_values(stack, r)
    ratio = float(np.sqrt((v**2).sum())) / f.norm(2)
    t_norm = time.monotonic() - t0
    ok = t_fwht < 1.0 and t_norm < 60.0 and math.isfinite(ratio)
    report_line(12, f"performance (fwht20 {t_fwht:.3f}s, norm14 {t_norm:.2f}s)", ok)


def test_13_determinism(tmp_path):
    args = ["parity-scan", "--n", "6,8", "--r", "3", "--format", "csv"]
    main(args + ["--out", str(tmp_path / "run1")])
    main(args + ["--out", str(tmp_path / "run2")])
    a = (tmp_path / "run1" / "parity-scan.csv").read_bytes()
    b = (tmp_path / "run2" / "parity-scan.csv").read_bytes()
    report_line(13, "byte-identical-csv-reports", a == b and len(a) > 0)
