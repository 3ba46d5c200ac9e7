import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubevar import core
from cubevar import (
    CubeFunction,
    build_table,
    character,
    check_chain_lemma,
    check_variation_properties,
    counterexample_all_ones,
    dyadic_floor,
    dyadic_partition,
    spherical_mean_multiplier,
    variation,
    vr_pointwise_values,
)
from cubevar.checks import run_check
from variation_oracles import vr_bruteforce, vr_exact


def test_vr_constant_is_zero():
    for r in (1.0, 2.0, 3.5):
        assert vr_exact([2.0] * 7, r) == 0.0
    assert vr_exact([1.0, 1.0, 1.0], 2.0) == 0.0


def test_vr_alternating():
    for n in (1, 5, 10):
        for r in (1.0, 2.0, 3.0):
            seq = [(-1.0) ** k for k in range(n + 1)]
            assert vr_exact(seq, r) == pytest.approx(2 * n ** (1 / r), rel=1e-13)


def test_vr_hand_example():
    assert vr_exact([0, 3, 1, 2], 2.0) == pytest.approx(math.sqrt(14))


def test_vr_single_element_and_errors():
    assert vr_bruteforce([5.0], 2.0) == 0.0
    assert vr_exact([5.0], 2.0) == 0.0
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
    assert vr_exact(a, 1.0) == pytest.approx(tv, rel=1e-13)


def test_vr_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for r in (1.0, 1.5, 2.0, 3.0):
            dp = vr_exact(a, r)
            bf = vr_bruteforce(a, r)
            assert dp == pytest.approx(bf, rel=1e-12, abs=1e-12)


def test_vr_homogeneity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(8)
    for lam in (0.0, 0.7, -3.0):
        assert vr_exact(lam * a, 2.0) == pytest.approx(
            abs(lam) * vr_exact(a, 2.0), abs=1e-13
        )


def test_dyadic_floor():
    assert dyadic_floor(4.0) == 4.0
    assert dyadic_floor(5.0) == 4.0
    assert dyadic_floor(0.7) == 0.5
    assert dyadic_floor(1.0) == 1.0
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            dyadic_floor(t)


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


def test_chain_lemma_bound_does_not_overflow_at_large_s():
    # unscaled, |jump|^500 overflows to inf for jumps above about 4.1, and an
    # infinite bound passes whatever the left side
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slack = check_chain_lemma(l=5, M=24, s=500.0, trials=100)["worst_slack"]
    assert math.isfinite(slack) and slack >= 0.0


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
            vr_exact(seqs[:, x], 2.0), rel=1e-12, abs=1e-12
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
    for r in (0.5, math.inf, math.nan, variation.MAX_ORDER + 1):
        with pytest.raises(ValueError):
            vr_pointwise_values(np.zeros((2, 4)), r)


def test_vr_pointwise_at_the_largest_order():
    # the jumps of +-1 are scaled to 1/4, so each |jump|^r is 2^-1022, the
    # smallest normal double, at r = MAX_ORDER; from r = 538 they flush to 0
    r = variation.MAX_ORDER
    assert r == 511
    with pytest.raises(ValueError, match="finite"):
        vr_pointwise_values(np.array([[1.0], [-1.0], [1.0], [-1.0]]), r + 1)
    for n in range(4, 9):
        [rec] = counterexample_all_ones(n, [r])
        assert rec["value"] == pytest.approx(2 * n ** (1 / r), rel=1e-12, abs=0)
        assert rec["witness"]["satisfied"]


@pytest.mark.parametrize("scale", [1e200, 1e-120])
def test_vr_no_overflow_or_underflow(scale):
    # |jump|^3 would overflow (1e600) or underflow (1e-360) without scaling
    seq = [0.0, scale, 0.0]
    with np.errstate(all="raise"):
        for r in (1.0, 2.0, 3.0, 2.5):
            expected = 2 ** (1 / r) * scale
            assert vr_exact(seq, r) == pytest.approx(expected, rel=1e-14)
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
        assert values[1][x] == pytest.approx(vr_exact(s[:, x], 2.0), rel=1e-12)


def test_vr_pointwise_leaves_its_input_untouched(monkeypatch):
    # the DP scales its blocks in place, so it must work on a copy of its
    # input: a read-only stack is accepted and comes back bit-unchanged, for
    # real and complex columns and for columns re-centred before scaling
    rng = np.random.default_rng(25)
    monkeypatch.setattr(core, "BLOCK", 7)           # several blocks and a partial one
    points = 40
    magnitudes = 10.0 ** rng.uniform(-100, 100, size=points)
    recentred = np.tile(np.array([1e300, 1e300 + 1e-300j, 1e300])[:, None], (1, points))
    for stack in (rng.standard_normal((6, points)) * magnitudes,
                  (rng.standard_normal((6, points)) + 1j * rng.standard_normal((6, points))) * magnitudes,
                  recentred):
        expected = vr_pointwise_values(stack.copy(), [1.0, 2.0, 3.0, 2.5])
        before = stack.copy()
        stack.setflags(write=False)
        assert np.array_equal(vr_pointwise_values(stack, [1.0, 2.0, 3.0, 2.5]), expected)
        assert stack.tobytes() == before.tobytes()
    assert vr_pointwise_values(recentred, 2.0) == pytest.approx(1e-300 * math.sqrt(2.0), rel=1e-15)


def test_vr_pointwise_overwrite_gives_the_same_bits(monkeypatch):
    # with `overwrite` the DP scales a float64 or complex128 stack with
    # contiguous rows where it is, and returns the bits of the copying call;
    # any other stack is copied as without it and comes back unchanged
    rng = np.random.default_rng(27)
    monkeypatch.setattr(core, "BLOCK", 7)           # several blocks and a partial one
    points = 40
    magnitudes = 10.0 ** rng.uniform(-100, 100, size=points)
    orders = [1.0, 2.0, 3.0, 2.5]
    real = rng.standard_normal((6, points)) * magnitudes
    complex_ = (rng.standard_normal((6, points)) + 1j * rng.standard_normal((6, points))) * magnitudes
    recentred = np.tile(np.array([1e300, 1e300 + 1e-300j, 1e300])[:, None], (1, points))
    for stack in (real.copy(), complex_.copy(), recentred, complex_.copy()[:, 3:35]):
        expected = vr_pointwise_values(stack, orders)
        before = stack.copy()
        assert np.array_equal(vr_pointwise_values(stack, orders, overwrite=True), expected)
        assert stack.tobytes() != before.tobytes()
    read_only = real.copy()
    read_only.setflags(write=False)
    for stack in (read_only, rng.standard_normal((6, points)).astype(np.float32), np.asfortranarray(real),
                  complex_[:, ::2], np.arange(6 * points).reshape(6, points)):
        expected = vr_pointwise_values(stack, orders)
        before = stack.copy()
        assert np.array_equal(vr_pointwise_values(stack, orders, overwrite=True), expected)
        assert stack.tobytes() == before.tobytes()


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


def test_vr_exact_real_columns_match_complex_cast():
    # a real sequence runs in Python floats, a complex one in Python complex;
    # |complex(x, 0)| is |x| exactly, so the two give the same bits, in the
    # oracle and in the engine
    orders = [1.0, 2.0, 2.5, 3.0]
    for n in (9, 16, 33):
        table = build_table(n).float
        cast = table.astype(np.complex128)
        for w in range(n + 1):
            for r in orders:
                assert vr_exact(table[:, w], r) == vr_exact(cast[:, w], r)
        for r in (*orders, orders):
            assert np.array_equal(vr_pointwise_values(table, r), vr_pointwise_values(cast, r))


def test_vr_large_r_does_not_underflow():
    # jumps of 2^-20 against values near 1: scaling by the largest |value|
    # left (2^-21)^100, which flushes to zero
    assert vr_exact([1, 1 + 2**-20], 100) == 2**-20
    assert vr_pointwise_values(np.array([[1.0], [1 + 2**-20]]), 100)[0] == 2**-20
    # a spread far below the values' size must not overflow the scaled values
    seq = np.array([1e300, 1e300 + 1e-300j, 1e300])
    assert math.isfinite(vr_exact(seq, 3))
    assert np.isfinite(vr_pointwise_values(seq[:, None], 3)).all()


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_vr_tiny_spread_on_huge_values_does_not_flush(r):
    # |a_0| 2^s would overflow, so a_0 is subtracted before scaling; capping
    # s instead scaled the 1e-300 jump to about 1e-293, whose square is 0
    seq = np.array([1e300, 1e300 + 1e-300j])
    assert vr_exact(seq, r) == pytest.approx(1e-300, rel=1e-15, abs=0)
    other = np.array([1.0 + 2.0j, -3.0 + 0.5j])
    values = vr_pointwise_values(np.column_stack([seq, other]), r)
    assert values[0] == pytest.approx(1e-300, rel=1e-15, abs=0)
    # a column whose values fit is scaled as it is, beside one that is shifted
    assert values[1] == vr_pointwise_values(other[:, None], r)[0]


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
    return vr_exact(a, r), vr_pointwise_values(a[:, None], r)[0]


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


@settings(deadline=None, max_examples=60)
@given(st.one_of(
    st.lists(st.lists(ENTRIES, min_size=1, max_size=16), min_size=1, max_size=6),
    st.lists(st.lists(st.builds(complex, ENTRIES, ENTRIES), min_size=1, max_size=16),
             min_size=1, max_size=6),
).map(lambda seqs: [np.array(seq) for seq in seqs]))
def test_vr_padded_columns_match_unpadded(sequences):
    # ragged sequences padded by their last value into one stack give the
    # bits of each sequence alone, at every order
    orders = [1.0, 2.0, 2.5, 3.0]
    values = variation._ragged_values(sequences, orders)
    assert values.shape == (len(orders), len(sequences))
    for seq, column in zip(sequences, values.T):
        assert np.array_equal(column, vr_pointwise_values(seq[:, None], orders)[:, 0])


def test_variation_properties_draw_order():
    # the sweep's slacks at seed 0 as the scalar DP gave them, one sequence
    # at a time: the batched sweep draws the same sequences in the same order
    report = check_variation_properties(200, seed=0)
    assert report["triangle"] == pytest.approx(5.231964334750927e-05, rel=1e-14)
    assert report["ell_r_bound"] == pytest.approx(0.3731765106331708, rel=1e-14)
    assert report["dyadic_decomposition"] == pytest.approx(0.07348609218607605, rel=1e-14)


def test_variation_properties_sweep_memory():
    # the sweep evaluates SWEEP_GROUP trials per call: all 200 in one call
    # traced about 7 MB
    tracemalloc.start()
    try:
        check_variation_properties(200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_chain_lemma_runs_one_dp_call(monkeypatch):
    calls = []

    def counted(stack, r):
        calls.append(np.shape(stack))
        return vr_pointwise_values(stack, r)

    monkeypatch.setattr(variation, "vr_pointwise_values", counted)
    check_chain_lemma(l=5, M=24, s=2.0, trials=40, seed=3)
    assert calls == [(25, 40)]
