import json
import math

import numpy as np
import pytest

from cubevar import core
from cubevar import (
    CubeFunction,
    build_table,
    character,
    check_chain_lemma,
    check_variation_properties,
    dyadic_floor,
    dyadic_partition,
    spherical_mean_multiplier,
    vr_bruteforce,
    vr_exact,
    vr_pointwise,
    vr_pointwise_values,
)
from cubevar.checks import run_check


def test_vr_constant_is_zero():
    for r in (1.0, 2.0, 3.5):
        assert vr_exact([2.0] * 7, r).value == 0.0


def test_vr_alternating():
    for n in (1, 5, 10):
        for r in (1.0, 2.0, 3.0):
            seq = [(-1.0) ** k for k in range(n + 1)]
            assert vr_exact(seq, r).value == pytest.approx(2 * n ** (1 / r), rel=1e-13)


def test_vr_hand_example():
    res = vr_exact([0, 3, 1, 2], 2.0)
    assert res.value == pytest.approx(math.sqrt(14))
    assert res.chain == [0, 1, 2, 3]


def test_vr_single_element_and_errors():
    assert vr_bruteforce([5.0], 2.0) == 0.0
    assert vr_exact([5.0], 2.0).value == 0.0
    with pytest.raises(ValueError):
        vr_exact([], 2.0)
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            vr_exact([1.0, 2.0], r)
    with pytest.raises(ValueError):
        vr_bruteforce(list(range(20)), 1.0)


def test_vr_r1_is_total_variation():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(9)
    tv = np.abs(np.diff(a)).sum()
    assert vr_exact(a, 1.0).value == pytest.approx(tv, rel=1e-13)


def test_vr_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for r in (1.0, 1.5, 2.0, 3.0):
            dp = vr_exact(a, r).value
            bf = vr_bruteforce(a, r)
            assert dp == pytest.approx(bf, rel=1e-12, abs=1e-12)


def test_vr_homogeneity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(8)
    for lam in (0.0, 0.7, -3.0):
        assert vr_exact(lam * a, 2.0).value == pytest.approx(
            abs(lam) * vr_exact(a, 2.0).value, abs=1e-13
        )


def test_vr_chain_is_deterministic_and_serializable():
    res = vr_exact([1.0, 1.0, 1.0], 2.0)
    assert res.chain == [0]
    obj = json.loads(res.to_json())
    assert obj == {"r": 2.0, "value": 0.0, "chain": [0]}


def test_dyadic_floor():
    assert dyadic_floor(4.0) == 4.0
    assert dyadic_floor(5.0) == 4.0
    assert dyadic_floor(0.7) == 0.5
    assert dyadic_floor(1.0) == 1.0
    with pytest.raises(ValueError):
        dyadic_floor(0.0)


def test_dyadic_partition_examples():
    assert dyadic_partition(0, 8, 3) == [(0, 8)]
    assert dyadic_partition(1, 7, 3) == [(1, 2), (2, 4), (4, 6), (6, 7)]
    with pytest.raises(ValueError):
        dyadic_partition(3, 3, 3)
    with pytest.raises(ValueError):
        dyadic_partition(0, 9, 3)


@pytest.mark.parametrize("l", range(0, 9))
def test_dyadic_partition_exhaustive(l):
    assert run_check("dyadic_partition_failures", scales=[l])["value"] == 0


def test_variation_properties_sweep():
    report = check_variation_properties(300, seed=0)
    assert report["worst"] >= -1e-10


def test_variation_properties_requires_trials():
    with pytest.raises(ValueError):
        check_variation_properties(0)


def test_chain_lemma():
    for s in (1.5, 2.0, 3.0):
        report = check_chain_lemma(l=5, M=24, s=s, trials=100, seed=3)
        assert report["worst_slack"] >= -1e-10
    # constant sequences give slack exactly zero on both sides
    report = check_chain_lemma(l=3, M=8, s=2.0, trials=1, seed=0)
    assert report["worst_slack"] >= 0.0


def test_chain_lemma_errors():
    with pytest.raises(ValueError):
        check_chain_lemma(l=11, M=3, s=2.0, trials=1)
    with pytest.raises(ValueError):
        check_chain_lemma(l=3, M=3, s=0.9, trials=1)
    with pytest.raises(ValueError):
        check_chain_lemma(l=3, M=8, s=2.0, trials=0)


def test_vr_pointwise_matches_per_point():
    rng = np.random.default_rng(4)
    n = 6
    table = build_table(n)
    f = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    means = [spherical_mean_multiplier(f, k, table) for k in range(n + 1)]
    out = vr_pointwise(means, 2.0)
    seqs = np.vstack([m.values for m in means])
    for x in range(0, 1 << n, 5):
        assert out.values[x].real == pytest.approx(
            vr_exact(seqs[:, x], 2.0).value, rel=1e-12, abs=1e-12
        )


def test_vr_pointwise_single_function_is_zero():
    f = character(4, 3)
    assert np.abs(vr_pointwise([f], 2.0).values).max() == 0.0


def test_vr_pointwise_on_all_ones_character():
    n = 6
    r = 2.0
    f = character(n, (1 << n) - 1)
    table = build_table(n)
    means = [spherical_mean_multiplier(f, k, table) for k in range(n + 1)]
    out = vr_pointwise(means, r)
    assert np.abs(out.values - 2 * n ** (1 / r)).max() < 1e-9


def test_vr_pointwise_errors():
    with pytest.raises(ValueError):
        vr_pointwise([], 2.0)
    with pytest.raises(ValueError):
        vr_pointwise([character(3, 1), character(4, 1)], 2.0)
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            vr_pointwise_values(np.zeros((2, 4)), r)


@pytest.mark.parametrize("scale", [1e200, 1e-120])
def test_vr_no_overflow_or_underflow(scale):
    # |jump|^3 would overflow (1e600) or underflow (1e-360) without scaling
    seq = [0.0, scale, 0.0]
    with np.errstate(all="raise"):
        for r in (1.0, 2.0, 3.0, 2.5):
            expected = 2 ** (1 / r) * scale
            assert vr_exact(seq, r).value == pytest.approx(expected, rel=1e-14)
            column = vr_pointwise_values(np.array(seq)[:, None], r)
            assert column[0] == pytest.approx(expected, rel=1e-14)


def test_vr_pointwise_independent_of_block_width(monkeypatch):
    rng = np.random.default_rng(13)
    block = 7
    points = 2 * block + 5                  # two full blocks and a partial one
    magnitudes = 10.0 ** rng.uniform(-100, 100, size=points)
    stacks = [
        rng.standard_normal((6, points)) * magnitudes,
        (rng.standard_normal((5, points)) + 1j * rng.standard_normal((5, points))) * magnitudes,
    ]
    r_list = (1.0, 2.0, 3.0, 2.5)
    expected = [[vr_pointwise_values(s, r) for r in r_list] for s in stacks]
    monkeypatch.setattr(core, "BLOCK", block)
    for s, values in zip(stacks, expected):
        for r, v in zip(r_list, values):
            assert np.array_equal(vr_pointwise_values(s, r), v)
        x = int(rng.integers(points))
        assert values[1][x] == pytest.approx(vr_exact(s[:, x], 2.0).value, rel=1e-12)
