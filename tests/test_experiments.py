import csv
import json
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cubevar import core, experiments
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
    parity_character_scan,
    phi_scan,
    proposition_halfspectrum_scan,
    psi_scan,
    spherical_mean_stack,
    variation_norm_ratio,
    vr_pointwise_values,
)
from cubevar.cli import _emit
from cubevar.experiments import dyadic_radii, parity_radii, random_halfspectrum_function
from variation_oracles import vr_exact


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
    report.records.append({"n": 3, "r": 2.0, "q": None, "metric": "x", "value": 1.5,
                           "witness": {"k": 1}})
    j = json.loads(report.to_json())
    assert j["name"] == "demo" and len(j["records"]) == 1
    _emit(report, tmp_path, "csv")
    with open(tmp_path / "demo.csv", newline="") as fh:
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


def test_truncated_witness_memory():
    # the whole witness, the character included, stays below 1.5 float64
    # rows of 2^n: the float64 character, read in place as its own level
    # projection, plus one engine tile and the per-block DP buffers (a
    # transformed copy of the character would take a second row)
    n = 20
    counterexample_truncated(n, [1.0], math.sqrt(n))    # fill the table cache
    tracemalloc.start()
    try:
        counterexample_truncated(n, [1.0], math.sqrt(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (1 << n) * 8


def test_ratio_of_real_input_passed_as_complex():
    # a complex128 input stays complex and takes the complex DP; on a ±1
    # character it gives the float64 bits, and on a random real f it agrees
    n, orders = 10, [1.0, 2.0, 3.0]
    chi = character(n, (1 << (n - 1)) - 1)
    as_complex = CubeFunction(n, chi.values.astype(np.complex128))
    assert as_complex.values.dtype == np.complex128
    for radii in (range(n + 1), parity_radii(n, 1)):
        assert variation_norm_ratio(as_complex, radii, orders) == variation_norm_ratio(chi, radii, orders)
    g = CubeFunction(n, np.random.default_rng(17).standard_normal(1 << n))
    real = variation_norm_ratio(g, range(n + 1), orders)
    cast = variation_norm_ratio(CubeFunction(n, g.values + 0j), range(n + 1), orders)
    assert np.abs(np.subtract(real, cast)).max() <= 1e-12 * max(real)


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


@pytest.mark.parametrize("records,metric,witness_keys", [
    (lambda: counterexample_all_ones(6, [1.0, 2.0]), "all_ones_ratio",
     ["weight", "lower_bound", "satisfied"]),
    (lambda: counterexample_truncated(6, [1.0, 2.0], 2.0), "truncated_ratio",
     ["weight", "a_n", "lower_bound", "satisfied"]),
    (lambda: counterexample_corollary(64, [1.0, 2.0], 0.25), "corollary_ratio",
     ["weight", "b_n", "d_n", "a_n", "lower_bound", "satisfied"]),
    (lambda: counterexample_corollary(2, [1.0, 2.0], 0.5), "corollary_skipped",
     ["weight", "reason"]),
])
def test_counterexample_record_keys_in_order(records, metric, witness_keys):
    # the JSON and CSV reports print the keys in this order
    for rec, r in zip(records(), [1.0, 2.0], strict=True):
        assert list(rec) == ["n", "r", "q", "metric", "value", "witness"]
        assert rec["r"] == r and rec["metric"] == metric
        assert list(rec["witness"]) == witness_keys


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


@pytest.mark.parametrize("r", [1.0, 2.0, 2.5, 3.0])
def test_parity_character_scan_matches_oracle(r):
    for n in range(4, 65):
        table = build_table(n).float
        for q in (0, 1):
            radii = parity_radii(n, q)
            per_level = parity_character_scan(n, r, q)["witness"]["per_level"]
            assert all(type(v) is float for v in per_level)
            expected = [vr_exact(table[radii, m], r) for m in range(n + 1)]
            # V_1 is the engine's sum of adjacent jumps and the oracle's best
            # chain: two sums of up to len(radii) terms, rounded apart (5 ulp
            # at n = 63)
            rel = len(radii) * np.finfo(float).eps if r == 1 else 1e-15
            assert per_level == pytest.approx(expected, rel=rel, abs=0)
            # the levels above n/2 are mirrored: the bits of the DP on every column
            assert per_level == vr_pointwise_values(table[radii], r).tolist()


@pytest.mark.parametrize("n, q", [(9, 0), (33, 0), (33, 1)])
def test_parity_scan_witness_is_smallest_tied_level(n, q):
    # levels 1 and 2 tie in exact arithmetic and come out of the DP 1-2 ulp
    # apart, the larger at level 2
    rec = parity_character_scan(n, 1.0, q)
    per_level = rec["witness"]["per_level"]
    assert rec["witness"]["weight"] == 1
    assert rec["value"] == max(per_level) >= per_level[1]
    assert max(per_level) - per_level[1] <= 2 * math.ulp(max(per_level))


def test_character_scans_run_one_dp_call(monkeypatch):
    calls = []

    def counted(stack, r):
        calls.append((np.shape(stack), r))
        return vr_pointwise_values(stack, r)

    monkeypatch.setattr(experiments, "vr_pointwise_values", counted)
    parity_character_scan(12, 2.5, 1)
    assert calls == [((6, 7), 2.5)]            # levels 0..6; 7..12 are mirrored
    calls.clear()
    records = counterexample_corollary(16, [1.0, 2.0, 3.0], 0.5)
    assert calls == [((17, 1), [1.0, 2.0, 3.0])]
    weight = records[0]["witness"]["weight"]
    assert [rec["value"] for rec in records] == [
        character_variation(16, weight, range(17), r) for r in (1.0, 2.0, 3.0)]


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
    assert variation_norm_ratio(f, range(n + 1), r) == pytest.approx(2 * n ** (1 / r), abs=1e-9)
    for q in (0, 1):
        assert variation_norm_ratio(f, parity_radii(n, q), r) == pytest.approx(0.0, abs=1e-10)
    rng = np.random.default_rng(0)
    g = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    full = variation_norm_ratio(g, range(n + 1), r)
    for q in (0, 1):
        assert variation_norm_ratio(g, parity_radii(n, q), r) <= full + 1e-12


def test_full_vs_parity_matches_separate_parity_stacks():
    n, r = 9, 3.0
    rng = np.random.default_rng(2)
    g = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    for q in (0, 1):
        stack = spherical_mean_stack(g, parity_radii(n, q))
        v = vr_pointwise_values(stack, r)
        expected = float(np.sqrt((v**2).sum())) / g.norm(2)
        assert variation_norm_ratio(g, parity_radii(n, q), r) == pytest.approx(expected, rel=1e-12)


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
    for radii in (range(n + 1), parity_radii(n, 0), parity_radii(n, 1)):
        stack = spherical_mean_stack(f, radii)
        for r in (1.0, 2.0, 3.0):
            v = vr_pointwise_values(stack, r)
            expected = float(np.sqrt((v**2).sum())) / f.norm(2)
            streamed = variation_norm_ratio(f, radii, r)
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
    families = (range(n + 1), parity_radii(n, 0), parity_radii(n, 1))
    expected = [variation_norm_ratio(f, radii, 3.0) for f in inputs for radii in families]
    monkeypatch.setattr(core, "BLOCK", 7)
    assert [variation_norm_ratio(f, radii, 3.0) for f in inputs for radii in families] == expected


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


def test_streamed_orders_hold_no_row_of_values():
    # the bound counts the DP and engine buffers of one block, not 2^n: six
    # (n+1) x BLOCK float64 arrays; a (3 x 2^18) float64 array of pointwise
    # values on top of them crosses it
    n = 18
    f = character(n, 2**17 - 1)
    variation_norm_ratio(f, range(n + 1), 2.0)     # fill the table and popcount caches
    tracemalloc.start()
    try:
        variation_norm_ratio(f, range(n + 1), [1.0, 2.0, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * (n + 1) * core.BLOCK * 8


def test_chunked_reduction_matches_one_sum(monkeypatch):
    n = 10
    monkeypatch.setattr(core, "BLOCK", 7)             # blocks straddle the chunks
    monkeypatch.setattr(experiments, "CHUNK", 128)    # eight chunks
    rng = np.random.default_rng(15)
    inputs = [
        character(n, 0b0111011101),
        random_halfspectrum_function(n, rng),
        CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)),
    ]
    for f in inputs:
        stack = spherical_mean_stack(f, range(n + 1))
        expected = [float(np.sqrt((v**2).sum())) / f.norm(2)
                    for v in vr_pointwise_values(stack, [1.0, 2.0])]
        assert variation_norm_ratio(f, range(n + 1), [1.0, 2.0]) == expected


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


def _sum_expression_draw(n, rng):
    """The half-spectrum draw as one expression over whole arrays: the
    oracle for the draw made in place."""
    size = 1 << n
    spec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    spec[core.popcounts(n) > n // 2] = 0.0
    spec /= np.sqrt((np.abs(spec) ** 2).sum())
    return spec


def test_halfspectrum_draw_keeps_its_bits():
    # consecutive draws from one generator, over seeds, at every n to 18
    for n in range(1, 19):
        for seed in (0, 1, 2024):
            drawn, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                got = random_halfspectrum_function(n, drawn).values
                assert got.dtype == np.complex128
                assert np.array_equal(got.view(np.uint64), _sum_expression_draw(n, oracle).view(np.uint64))


def test_halfspectrum_draw_holds_one_array():
    # the complex result and chunk buffers: at most 26 bytes a point, where
    # the sum expression peaks at 34 (two float64 draws, their complex sum,
    # the product with 1j and the |v|^2 temporary)
    n = 16
    random_halfspectrum_function(n, np.random.default_rng(3))     # fill the popcount cache
    tracemalloc.start()
    try:
        random_halfspectrum_function(n, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * (1 << n)


def test_halfspectrum_scan_lets_each_draw_go(monkeypatch):
    # each draw is held by the engine alone, which drops it once its terms
    # are made: the draw's values are freed before the DP's first block
    draw, dp = experiments.random_halfspectrum_function, experiments.vr_pointwise_values
    drawn, seen = [], []

    def spy_draw(n, rng):
        f = draw(n, rng)
        drawn.append(weakref.ref(f.values))
        return f

    def spy_dp(*args, **kwargs):
        if len(seen) < len(drawn):
            seen.append(drawn[-1]() is None)
        return dp(*args, **kwargs)

    monkeypatch.setattr(experiments, "random_halfspectrum_function", spy_draw)
    monkeypatch.setattr(experiments, "vr_pointwise_values", spy_dp)
    n = 12
    assert experiments.halfspectrum_fold_bits(n) == 1
    proposition_halfspectrum_scan(n, [2.0, 3.0], trials=3, seed=5)
    assert seen == [True] * 3


def test_halfspectrum_scan_consistency():
    n, r = 8, 3.0
    [rec] = proposition_halfspectrum_scan(n, [r], trials=20, seed=7)
    assert math.isfinite(rec["value"])
    # a single character at weight n/2 is one admissible input, so the scan's
    # character-level value is reproducible directly
    char_value = character_variation(n, n // 2, range(n + 1), r)
    pipeline = variation_norm_ratio(character(n, (1 << (n // 2)) - 1), range(n + 1), r)
    assert pipeline == pytest.approx(char_value, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_halfspectrum_preflight_matches_engine(monkeypatch, n):
    # the scan's estimate before the first draw is the one the engine makes
    # for that draw: same rows, levels, points, dtype and side
    from cubevar import operators

    calls = []
    check = operators._check_memory

    def spy(n, m, levels, points, dtype, side):
        calls.append((n, m, [int(w) for w in levels], points, np.dtype(dtype), side))
        check(n, m, levels, points, dtype, side)

    monkeypatch.setattr(operators, "_check_memory", spy)
    proposition_halfspectrum_scan(n, [2.0], trials=1, seed=3)
    assert len(calls) == 2 and calls[0] == calls[1]


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


def _oracle_inputs(n, rng):
    return [
        character(n, (1 << (n - 1)) - 1),                               # projection route
        CubeFunction(n, rng.standard_normal(1 << n)),                     # real, per-row route
        CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)),
        random_halfspectrum_function(n, rng),                             # spectral side
    ]


@pytest.mark.parametrize("n, small", [(1, False), (2, False), (9, False), (14, False), (15, False),
                                      (1, True), (2, True), (9, True)])
def test_half_cube_ratio_matches_full_cube_oracle(n, small, monkeypatch):
    # the full range and both parity families; at odd n the parity families
    # do not pair k with n - k and take every point.  BLOCK = 7 and CHUNK =
    # 128 make the stream cross the half-cube limit inside a block
    if small:
        monkeypatch.setattr(core, "BLOCK", 7)
        monkeypatch.setattr(experiments, "CHUNK", 128)
    orders = [1.0, 2.0, 2.5, 3.0]
    for f in _oracle_inputs(n, np.random.default_rng(n)):
        for radii in (range(n + 1), parity_radii(n, 0), parity_radii(n, 1)):
            v = vr_pointwise_values(spherical_mean_stack(f, radii), orders)
            oracle = np.sqrt((v**2).sum(axis=1)) / f.norm(2)
            ratios = variation_norm_ratio(f, radii, orders)
            assert (np.abs(np.subtract(ratios, oracle)) <= 1e-15 * oracle).all()


@pytest.mark.parametrize("n, small", [(9, True), (10, True), (15, False)])
def test_dp_sees_half_cube_for_antipodal_radii(n, small, monkeypatch):
    if small:
        monkeypatch.setattr(core, "BLOCK", 7)
        monkeypatch.setattr(experiments, "CHUNK", 128)
    columns = []

    def counted(stack, r, **options):
        columns.append(stack.shape[1])
        return vr_pointwise_values(stack, r, **options)

    monkeypatch.setattr(experiments, "vr_pointwise_values", counted)
    f = CubeFunction(n, np.random.default_rng(3).standard_normal(1 << n))
    half, full = 1 << (n - 1), 1 << n
    parity = half if n % 2 == 0 else full           # k + (n - k) keeps the parity of n
    for radii, points in ((range(n + 1), half), (parity_radii(n, 0), parity),
                          (parity_radii(n, 1), parity), ([0, 1, n], full)):
        columns.clear()
        variation_norm_ratio(f, radii, [1.0, 2.0])
        assert sum(columns) == points


def test_half_cube_radii_checked_once_and_first():
    n = 6
    f = CubeFunction(n, np.random.default_rng(4).standard_normal(1 << n))
    assert variation_norm_ratio(f, iter(range(n + 1)), 2.0) == variation_norm_ratio(f, range(n + 1), 2.0)
    with pytest.raises(ValueError, match="radius -1"):    # -1 + (n + 1) = n
        variation_norm_ratio(f, [-1, n + 1], 2.0)


def test_ratio_rejects_empty_radii():
    f = character(6, 5)
    for radii in ([], range(0), iter(())):
        with pytest.raises(ValueError, match="radii"):
            variation_norm_ratio(f, radii, 2.0)
        with pytest.raises(ValueError, match=r"got radii \[\]"):
            character_variation(6, 1, radii, 2.0)
        with pytest.raises(ValueError, match=r"got radii \[\]"):
            spherical_mean_stack(f, radii)


def test_half_cube_ratio_holds_half_the_projections():
    # the spectral f is read in place and its nine level projections are
    # folded onto the half cube: the parent copied f and held the 9 x 2^16
    # projections in full, over one complex (n+1) x 2^n stack in all
    n = 16
    f = random_halfspectrum_function(n, np.random.default_rng(21))
    variation_norm_ratio(f, range(n + 1), [2.0, 3.0])   # fill the table and popcount caches
    tracemalloc.start()
    try:
        variation_norm_ratio(f, range(n + 1), [2.0, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * (1 << n) * 16


def test_concurrent_ratios_keep_their_own_buffers(monkeypatch):
    # each ratio owns its tile buffer and each DP call its own tables, so
    # ratios run on threads give the bits of serial runs; BLOCK = 7 and a
    # short switch interval interleave the threads between tiles
    monkeypatch.setattr(core, "BLOCK", 7)
    n = 9
    rng = np.random.default_rng(26)
    inputs = [character(n, 0b011111111), random_halfspectrum_function(n, rng),
              CubeFunction(n, rng.standard_normal(1 << n)), random_halfspectrum_function(n, rng)] * 2
    families = (range(n + 1), parity_radii(n, 0))
    serial = [variation_norm_ratio(f, radii, [1.0, 2.0, 3.0]) for f in inputs for radii in families]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(variation_norm_ratio, f, radii, [1.0, 2.0, 3.0])
                       for f in inputs for radii in families]
            assert [fut.result(timeout=60) for fut in futures] == serial
    finally:
        sys.setswitchinterval(interval)


def test_half_spectrum_ratio_holds_one_tile_and_one_set_of_dp_tables():
    # n = 16, r = 2 and 3: the nine level projections folded onto the half
    # cube, one engine tile of BLOCK * 8 bytes a row (17 x 2^13 complex) and
    # the DP's two (17 x 2^13) float64 tables; the DP scales the tile in
    # place.  The 1 MiB margin covers the DP's scratch rows and values, the
    # chunk buffer and `_unit_shift`'s temporaries.  A fresh tile and a
    # scaled copy per block, or a 2^14-point tile, cross it
    n = 16
    f = random_halfspectrum_function(n, np.random.default_rng(21))
    variation_norm_ratio(f, range(n + 1), [2.0, 3.0])   # fill the table and popcount caches
    tracemalloc.start()
    try:
        variation_norm_ratio(f, range(n + 1), [2.0, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = core.BLOCK * 8 // 16
    projections = (n // 2 + 1) * (1 << (n - 1)) * 16
    assert peak < projections + (n + 1) * width * 16 + 2 * (n + 1) * width * 8 + (1 << 20)


def test_pointwise_variation_is_antipodally_symmetric():
    # v[x XOR (2^n - 1)] is V_r of the column at x reversed
    n = 11
    rng = np.random.default_rng(5)
    for f in _oracle_inputs(n, rng):
        v = vr_pointwise_values(spherical_mean_stack(f, range(n + 1)), [1.0, 2.0, 2.5, 3.0])
        flipped = v[:, ::-1]
        assert (np.abs(flipped - v) <= 4 * np.spacing(np.maximum(v, flipped))).all()
