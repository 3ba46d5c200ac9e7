import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from cubevar import core
from cubevar import (
    CubeFunction,
    ExperimentConfig,
    ExperimentReport,
    build_table,
    character,
    character_variation,
    counterexample_all_ones,
    counterexample_corollary,
    counterexample_truncated,
    full_vs_parity_norm,
    parity_character_scan,
    phi_scan,
    proposition_halfspectrum_scan,
    psi_scan,
    spherical_mean_stack,
    variation_norm_ratio,
    vr_pointwise_values,
)
from cubevar.experiments import dyadic_radii, parity_radii, random_halfspectrum_function


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=[0])
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            ExperimentConfig(r_list=[2.0, r])
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(q=2)


def test_report_serialization(tmp_path):
    report = ExperimentReport("demo", {"seed": 1})
    report.add({"n": 3, "r": 2.0, "q": None, "metric": "x", "value": 1.5, "witness": {"k": 1}})
    j = json.loads(report.to_json())
    assert j["name"] == "demo" and len(j["records"]) == 1
    path = tmp_path / "demo.csv"
    report.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["experiment", "n", "r", "q", "metric", "value", "witness"]
    assert rows[1][0] == "demo" and rows[1][4] == "x"


def test_counterexample_all_ones_small():
    [rec] = counterexample_all_ones(1, [1.0])
    assert rec["value"] == pytest.approx(2.0, abs=1e-12)
    [rec] = counterexample_all_ones(8, [2.0])
    assert rec["value"] == pytest.approx(2 * math.sqrt(8), abs=1e-9)
    assert rec["witness"]["satisfied"]


def test_counterexample_ratio_grows_with_n():
    values = [counterexample_all_ones(n, [3.0])[0]["value"] for n in (2, 5, 9)]
    assert values == sorted(values)


def test_counterexample_truncated():
    [rec] = counterexample_truncated(16, [2.0], 4.0)
    assert rec["witness"]["lower_bound"] == pytest.approx(2.0 / 3.0)
    assert rec["value"] >= rec["witness"]["lower_bound"]
    assert rec["witness"]["satisfied"]


def test_counterexample_truncated_errors():
    with pytest.raises(ValueError):
        counterexample_truncated(8, [2.0], 0.2)
    with pytest.raises(ValueError):
        counterexample_truncated(8, [2.0], 0.9)


def test_character_variation_matches_pipeline():
    n, r = 8, 2.0
    for weight in (2, 5, n):
        y = (1 << weight) - 1
        pipeline = variation_norm_ratio(character(n, y), range(n + 1), r)
        shortcut = character_variation(n, weight, range(n + 1), r)
        assert pipeline == pytest.approx(shortcut, rel=1e-9)


def test_character_variation_rejects_out_of_range():
    with pytest.raises(ValueError, match="radius -1"):
        character_variation(8, 3, [-1, 0], 2.0)
    with pytest.raises(ValueError, match="radius 9"):
        character_variation(8, 3, [0, 9], 2.0)
    for weight in (-1, 9):
        with pytest.raises(ValueError, match=f"weight {weight}"):
            character_variation(8, weight, range(9), 2.0)


def test_corollary_truncation_scan():
    records = [rec for n in (16, 36, 64) for rec in counterexample_corollary(n, [2.0], 0.25)]
    ratios = [rec for rec in records if rec["metric"] == "corollary_ratio"]
    assert len(ratios) == 3
    for rec in ratios:
        w = rec["witness"]
        assert w["weight"] < rec["n"] - w["d_n"]   # excluded from the truncated spectrum
        assert rec["value"] >= w["lower_bound"] - 1e-12
    bounds = [rec["witness"]["lower_bound"] for rec in ratios]
    assert bounds == sorted(bounds)
    assert bounds[-1] > 0.0


def test_parity_radii():
    assert parity_radii(6, 0) == [0, 2, 4, 6]
    assert parity_radii(6, 1) == [1, 3, 5]
    with pytest.raises(ValueError):
        parity_radii(6, 2)


def test_parity_character_scan_endpoints():
    n = 9
    for q in (0, 1):
        rec = parity_character_scan(n, 3.0, q)
        per_level = rec["witness"]["per_level"]
        assert per_level[0] == 0.0    # constant multiplier sequence at weight 0
        assert per_level[n] == 0.0    # fixed parity kills the (-1)^k alternation
        assert rec["value"] == max(per_level)


def test_parity_scan_reflection_symmetry():
    # fixed-parity sequences at weights m and n-m agree up to a global sign
    n = 10
    rec0 = parity_character_scan(n, 3.0, 0)
    rec1 = parity_character_scan(n, 3.0, 1)
    for rec in (rec0, rec1):
        lv = rec["witness"]["per_level"]
        for m in range(n + 1):
            assert lv[m] == pytest.approx(lv[n - m], abs=1e-10)


def test_full_vs_parity_norm():
    n, r = 8, 2.0
    f = character(n, (1 << n) - 1)
    rec = full_vs_parity_norm(f, r)
    assert rec["witness"]["full"] == pytest.approx(2 * n ** (1 / r), abs=1e-9)
    assert rec["witness"]["parity"]["0"] == pytest.approx(0.0, abs=1e-10)
    assert rec["witness"]["parity"]["1"] == pytest.approx(0.0, abs=1e-10)
    rng = np.random.default_rng(0)
    g = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    rec = full_vs_parity_norm(g, r)
    for v in rec["witness"]["parity"].values():
        assert v <= rec["witness"]["full"] + 1e-12


def test_full_vs_parity_matches_separate_parity_stacks():
    n, r = 9, 3.0
    rng = np.random.default_rng(2)
    g = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    rec = full_vs_parity_norm(g, r)
    for q in (0, 1):
        stack = spherical_mean_stack(g, parity_radii(n, q))
        v = vr_pointwise_values(stack, r)
        expected = float(np.sqrt((v**2).sum())) / g.norm(2)
        assert rec["witness"]["parity"][str(q)] == pytest.approx(expected, rel=1e-12)
    assert full_vs_parity_norm(g, r, q=1)["witness"]["parity"] == {"1": rec["witness"]["parity"]["1"]}


@pytest.mark.parametrize("case", ["character", "halfspectrum", "complex"])
def test_streamed_ratio_matches_stack(case):
    n = 15
    assert 1 << n >= 2 * core.BLOCK        # the stream has two or more blocks
    rng = np.random.default_rng(12)
    if case == "character":          # one level: projection route
        f = character(n, (1 << (n - 1)) - 1)
    elif case == "halfspectrum":     # spectral side, levels 0..7: projection route
        f = random_halfspectrum_function(n, rng)
    else:                            # every level present: per-row route
        f = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    stack = spherical_mean_stack(f, range(n + 1))
    for r in (1.0, 2.0, 3.0):
        v = vr_pointwise_values(stack, r)
        expected = float(np.sqrt((v**2).sum())) / f.norm(2)
        streamed = variation_norm_ratio(f, range(n + 1), r)
        if r == 3.0:
            assert streamed == pytest.approx(expected, rel=1e-14)
        else:
            assert streamed == expected


def test_streamed_ratio_independent_of_block_width(monkeypatch):
    n = 6
    rng = np.random.default_rng(14)
    inputs = [
        character(n, 0b011111),
        random_halfspectrum_function(n, rng),
        CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)),
    ]
    expected = [variation_norm_ratio(f, range(n + 1), 3.0) for f in inputs]
    parity = [full_vs_parity_norm(f, 3.0) for f in inputs]
    monkeypatch.setattr(core, "BLOCK", 7)
    assert [variation_norm_ratio(f, range(n + 1), 3.0) for f in inputs] == expected
    assert [full_vs_parity_norm(f, 3.0) for f in inputs] == parity


def test_streamed_ratio_holds_no_stack():
    n = 16
    f = character(n, 2**15 - 1)
    variation_norm_ratio(f, range(n + 1), 2.0)     # fill the table and popcount caches
    tracemalloc.start()
    try:
        variation_norm_ratio(f, range(n + 1), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * (1 << n) * 8         # one (n+1) x 2^n float64 stack


def test_streamed_orders_hold_no_stack():
    # n = 18: with two DP orders the pointwise DP holds four (n+1) x BLOCK
    # buffers, which at n = 16 already add up to one stack
    n = 18
    f = character(n, 2**17 - 1)
    variation_norm_ratio(f, range(n + 1), 2.0)     # fill the table and popcount caches
    tracemalloc.start()
    try:
        variation_norm_ratio(f, range(n + 1), [1.0, 2.0, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * (1 << n) * 8         # one (n+1) x 2^n float64 stack


def test_full_vs_parity_rejects_zero():
    with pytest.raises(ValueError):
        variation_norm_ratio(CubeFunction(3, np.zeros(8)), range(4), 2.0)


def test_halfspectrum_support_and_norm():
    rng = np.random.default_rng(1)
    n = 8
    f = random_halfspectrum_function(n, rng)
    assert f.norm(2) == pytest.approx(1.0, abs=1e-12)
    from cubevar import popcounts

    assert f.side == "spectral"
    assert not f.values[popcounts(n) > n / 2].any()


def test_halfspectrum_scan_consistency():
    n, r = 8, 3.0
    [rec] = proposition_halfspectrum_scan(n, [r], trials=20, seed=7)
    assert math.isfinite(rec["value"])
    # a single character at weight n/2 is one admissible input, so the scan's
    # character-level value is reproducible directly
    char_value = character_variation(n, n // 2, range(n + 1), r)
    pipeline = variation_norm_ratio(character(n, (1 << (n // 2)) - 1), range(n + 1), r)
    assert pipeline == pytest.approx(char_value, rel=1e-9)


def test_constant_function_ratio_zero():
    n = 5
    f = character(n, 0)
    assert variation_norm_ratio(f, range(n + 1), 2.0) == pytest.approx(0.0, abs=1e-10)


def test_dyadic_radii():
    assert dyadic_radii(8) == [1, 2, 4]
    assert dyadic_radii(4) == [1, 2]
    assert dyadic_radii(2) == [1]


def test_phi_scan():
    rec = phi_scan(8)
    assert rec["witness"]["phi_at_zero"] == 0.0
    assert len(rec["witness"]["per_level"]) == 5
    assert rec["value"] >= 0.0
    # direct recomputation for n=8, x in 0..4, k in {1,2,4}
    table = build_table(8)
    for x in range(5):
        expected = sum((table.float[k, x] - math.exp(-k * x / 8)) ** 2 for k in (1, 2, 4))
        assert rec["witness"]["per_level"][x] == pytest.approx(expected, rel=1e-14)


def test_psi_scan_small_index_set():
    # n=4: half = 2; the only admissible block is (l=0, g=0, h=1) -> pair (1, 2)
    rec = psi_scan(4)
    table = build_table(4)
    for x in range(3):
        expected = (table.float[1, x] - table.float[2, x]) ** 2
        assert rec["witness"]["per_level"][x] == pytest.approx(expected, rel=1e-14)
    assert rec["witness"]["psi_at_zero"] == 0.0


def test_phi_psi_errors():
    with pytest.raises(ValueError):
        phi_scan(1)
    with pytest.raises(ValueError):
        psi_scan(1)
