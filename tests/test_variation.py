import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubevar import core
from cubevar import (
    CubeFunction,
    character,
    check_chain_lemma,
    check_variation_properties,
    dyadic_floor,
    dyadic_partition,
    spherical_mean_multiplier,
    vr_bruteforce,
    vr_exact,
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
    f = CubeFunction(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    means = [spherical_mean_multiplier(f, k) for k in range(n + 1)]
    seqs = np.vstack([m.values for m in means])
    out = vr_pointwise_values(seqs, 2.0)
    for x in range(0, 1 << n, 5):
        assert out[x] == pytest.approx(
            vr_exact(seqs[:, x], 2.0).value, rel=1e-12, abs=1e-12
        )


def test_vr_pointwise_single_function_is_zero():
    f = character(4, 3)
    assert np.abs(vr_pointwise_values(f.values[None], 2.0)).max() == 0.0


def test_vr_pointwise_on_all_ones_character():
    n = 6
    r = 2.0
    f = character(n, (1 << n) - 1)
    means = [spherical_mean_multiplier(f, k) for k in range(n + 1)]
    out = vr_pointwise_values(np.vstack([m.values for m in means]), r)
    assert np.abs(out - 2 * n ** (1 / r)).max() < 1e-9


def test_vr_pointwise_errors():
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
        assert np.array_equal(vr_pointwise_values(s, r_list), values)
        x = int(rng.integers(points))
        assert values[1][x] == pytest.approx(vr_exact(s[:, x], 2.0).value, rel=1e-12)


@pytest.mark.parametrize("r_list", [[2.0, 3.0, 2.5, 4.0], [3.0, 2.0, 2.0, 4.0, 1.0], [4.0, 2.5, 3.0, 2.0, 3.0]])
def test_vr_pointwise_orders_in_one_pass(r_list):
    # each row of a multi-order call is the single-order call, bit for bit,
    # whatever the order, repeats and mix of orders in the list
    rng = np.random.default_rng(15)
    magnitudes = 10.0 ** rng.uniform(-100, 100, size=40)
    for stack in (rng.standard_normal((7, 40)) * magnitudes,
                  (rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))) * magnitudes):
        rows = vr_pointwise_values(stack, r_list)
        assert rows.shape == (len(r_list), 40)
        for r, row in zip(r_list, rows):
            assert np.array_equal(row, vr_pointwise_values(stack, r))
    assert vr_pointwise_values(stack, [2.0]).shape == (1, 40)
    with pytest.raises(ValueError):
        vr_pointwise_values(stack, [])
    with pytest.raises(ValueError):
        vr_pointwise_values(stack, [2.0, 0.5])


def test_vr_r1_sum_matches_chain_dp():
    # V_1 as the sum of adjacent jumps against the max-plus chain DP over
    # every pair, which it replaced: 3000 random columns, within 4 ulp
    rng = np.random.default_rng(16)
    for m in range(2, 14):
        stack = rng.standard_normal((m, 250)) * 10.0 ** rng.uniform(-5, 5, size=250)
        if m % 2:
            stack = stack + 1j * rng.standard_normal((m, 250))
        best = np.zeros(stack.shape)
        for j in range(1, m):
            for i in range(j):
                best[j] = np.maximum(best[j], np.abs(stack[i] - stack[j]) + best[i])
        dp = best.max(axis=0)
        assert (np.abs(vr_pointwise_values(stack, 1.0) - dp) <= 4 * np.spacing(dp)).all()


def test_vr_large_r_does_not_underflow():
    # jumps of 2^-20 against values near 1: scaling by the largest |value|
    # left (2^-21)^100, which flushes to zero
    assert vr_exact([1, 1 + 2**-20], 100).value == 2**-20
    assert vr_pointwise_values(np.array([[1.0], [1 + 2**-20]]), 100)[0] == 2**-20
    # a spread far below the values' size must not overflow the scaled values
    seq = np.array([1e300, 1e300 + 1e-300j, 1e300])
    assert math.isfinite(vr_exact(seq, 3).value)
    assert np.isfinite(vr_pointwise_values(seq[:, None], 3)).all()


# Property tests: each V_r route (the scalar DP and one column through the
# pointwise DP) against the brute-force oracle on transformed sequences.  The
# oracle does not scale, so entries are 0 or of size 1e-3..1e3, where no
# |jump|^r leaves the range of a double.
ORDERS = st.sampled_from([1.0, 2.0, 3.0, 2.5])
ENTRIES = st.floats(-1e3, 1e3).map(lambda v: v if abs(v) >= 1e-3 else 0.0)
SEQUENCES = st.one_of(
    st.lists(ENTRIES, min_size=1, max_size=8),
    st.lists(st.builds(complex, ENTRIES, ENTRIES), min_size=1, max_size=8),
).map(np.array)
EPS = np.finfo(float).eps


def routes(a, r):
    return vr_exact(a, r).value, vr_pointwise_values(a[:, None], r)[0]


def assert_routes_match(a, r, expected, abs_tol=0.0):
    for value in routes(a, r):
        assert value == pytest.approx(expected, rel=1e-12, abs=abs_tol + 1e-300)


@settings(deadline=None, max_examples=60)
@given(SEQUENCES, ORDERS, st.floats(-1e6, 1e6))
def test_vr_property_homogeneity(a, r, lam):
    assert_routes_match(lam * a, r, abs(lam) * vr_bruteforce(a, r),
                        abs_tol=4 * a.size * EPS * abs(lam) * np.abs(a).max(initial=0))


@settings(deadline=None, max_examples=60)
@given(SEQUENCES, ORDERS)
def test_vr_property_reversal(a, r):
    assert_routes_match(a[::-1].copy(), r, vr_bruteforce(a, r))


@settings(deadline=None, max_examples=60)
@given(SEQUENCES, ORDERS, st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                             allow_infinity=False))
def test_vr_property_translation(a, r, shift):
    # a + shift rounds each entry by at most eps |a_j + shift|, which moves
    # V_r by at most V_r of those errors, below 2 m times the largest
    moved = a + shift
    assert_routes_match(moved, r, vr_bruteforce(a, r),
                        abs_tol=4 * a.size * EPS * np.abs(moved).max())


@settings(deadline=None, max_examples=60)
@given(SEQUENCES, ORDERS, st.data())
def test_vr_property_refinement(a, r, data):
    # dropping points coarsens the chain: V_r can only go down
    keep = data.draw(st.lists(st.booleans(), min_size=a.size, max_size=a.size))
    coarse = a[np.array(keep, dtype=bool)]
    fine = vr_bruteforce(a, r)
    assert_routes_match(a, r, fine)
    if coarse.size:
        assert vr_bruteforce(coarse, r) <= fine * (1 + 1e-12)
        for value in routes(coarse, r):
            assert value <= fine * (1 + 1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(
    st.lists(ENTRIES, min_size=m, max_size=m), min_size=1, max_size=5)))
def test_vr_property_r1_columns(columns):
    # every column of a stack against the oracle at r = 1, the sum route
    stack = np.array(columns).T
    values = vr_pointwise_values(stack, 1.0)
    for column, value in zip(columns, values):
        assert value == pytest.approx(vr_bruteforce(column, 1.0), rel=1e-12, abs=1e-300)
