import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cubevar import core, experiments, operators
from cubevar import (
    CubeFunction,
    apply_radial_multipliers,
    build_table,
    character,
    noise_binomial,
    noise_multiplier,
    popcounts,
    spherical_mean_direct,
    spherical_mean_multiplier,
    spherical_mean_stack,
)
from cubevar.checks import run_check
from cubevar.core import SPECTRAL
from cubevar.experiments import random_halfspectrum_function, variation_norm_ratio
from spectral_helpers import fourier, inverse_fourier


def rand_fn(n, rng):
    size = 1 << n
    return CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def test_noise_binomial_parameter():
    n = 4
    f = character(n, 0b0011)
    # t = 0 mixes only S_0; t = log 2 gives u = 1/4, so chi_y picks up
    # sum_k C(n,k) u^k (1-u)^{n-k} kappa_k(2) = (1 - 2u)^2 = 1/4
    assert np.abs(noise_binomial(f, 0.0).values - f.values).max() < 1e-12
    out = noise_binomial(f, math.log(2))
    assert np.abs(out.values - 0.25 * f.values).max() < 1e-12
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            noise_binomial(f, t)


def test_spherical_mean_radius_zero_is_identity():
    rng = np.random.default_rng(0)
    f = rand_fn(5, rng)
    assert np.abs(spherical_mean_direct(f, 0).values - f.values).max() < 1e-14
    assert np.abs(spherical_mean_multiplier(f, 0).values - f.values).max() < 1e-12


def test_spherical_mean_contraction():
    rng = np.random.default_rng(1)
    n = 7
    f = rand_fn(n, rng)
    for k in range(n + 1):
        s = spherical_mean_direct(f, k)
        for p in (1, 2, math.inf):
            assert s.norm(p) <= f.norm(p) * (1 + 1e-12)


def test_spherical_mean_on_all_ones_character():
    n = 6
    f = character(n, (1 << n) - 1)
    for k in range(n + 1):
        s = spherical_mean_direct(f, k)
        assert np.abs(s.values - (-1) ** k * f.values).max() < 1e-10


def test_spherical_mean_multiplier_on_character():
    n = 7
    table = build_table(n)
    y = 0b0110100
    f = character(n, y)
    w = bin(y).count("1")
    for k in range(n + 1):
        s = spherical_mean_multiplier(f, k)
        assert np.abs(s.values - table.float[k, w] * f.values).max() < 1e-11


@pytest.mark.parametrize("method", ["enum", "conv"])
def test_direct_routes_agree_with_multiplier(method):
    rng = np.random.default_rng(2)
    n = 8
    f = rand_fn(n, rng)
    for k in range(n + 1):
        d = spherical_mean_direct(f, k, method=method)
        m = spherical_mean_multiplier(f, k)
        assert np.abs(d.values - m.values).max() < 1e-10


def test_spherical_mean_stack_matches_single_calls():
    rng = np.random.default_rng(3)
    n = 6
    f = rand_fn(n, rng)
    stack = spherical_mean_stack(f, range(n + 1))
    for k in range(n + 1):
        assert np.abs(stack[k] - spherical_mean_multiplier(f, k).values).max() < 1e-12


def test_spherical_mean_errors():
    f = CubeFunction(3, np.eye(8)[0])
    with pytest.raises(ValueError):
        spherical_mean_direct(f, 4)
    with pytest.raises(ValueError, match="radius -1"):
        spherical_mean_stack(f, [-1])
    with pytest.raises(ValueError, match="radius 4"):
        spherical_mean_stack(f, [0, 4])


def enum_stack(f, radii):
    phys = f if f.side == "physical" else inverse_fourier(f)
    return np.array([spherical_mean_direct(phys, k, method="enum").values for k in radii])


@pytest.mark.parametrize("case", ["character", "halfspectrum", "complex", "single_row"])
def test_engine_matches_enum(case):
    rng = np.random.default_rng(10)
    n = 8
    table = build_table(n)
    radii = list(range(n + 1))
    if case == "character":          # one level: projection route
        f = character(n, 0b10110100)
    elif case == "halfspectrum":     # levels 0..4 of 9 rows: projection route
        f = random_halfspectrum_function(n, rng)
        assert f.side == "spectral"
    else:                            # every level present: per-row route
        f = rand_fn(n, rng)
    if case == "single_row":
        radii = [3]
    rows = apply_radial_multipliers(f, table.float[radii])
    assert np.abs(rows - enum_stack(f, radii)).max() < 1e-10


def test_engine_real_input_stays_real_and_sides_agree():
    rng = np.random.default_rng(11)
    n = 7
    table = build_table(n)
    for f in (character(n, 0b1010011), CubeFunction(n, rng.standard_normal(1 << n))):
        phys = apply_radial_multipliers(f, table.float)
        assert phys.dtype == np.float64
        spec = apply_radial_multipliers(fourier(f), table.float)
        assert spec.dtype == np.float64
        assert np.abs(phys - spec).max() < 1e-12
    g = rand_fn(n, rng)
    assert np.abs(
        apply_radial_multipliers(g, table.float) - apply_radial_multipliers(fourier(g), table.float)
    ).max() < 1e-12
    with pytest.raises(ValueError):
        apply_radial_multipliers(g, table.float[:, :n])


def test_noise_multiplier_basics():
    rng = np.random.default_rng(4)
    n = 6
    f = rand_fn(n, rng)
    assert np.abs(noise_multiplier(f, 0.0).values - f.values).max() < 1e-12
    y = 0b101100
    chi = character(n, y)
    out = noise_multiplier(chi, 1.0)
    assert np.abs(out.values - math.exp(-3) * chi.values).max() < 1e-12
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            noise_multiplier(f, t)


def test_noise_semigroup_composition():
    rng = np.random.default_rng(5)
    f = rand_fn(6, rng)
    lhs = noise_multiplier(noise_multiplier(f, 0.3), 0.9)
    rhs = noise_multiplier(f, 1.2)
    assert np.abs(lhs.values - rhs.values).max() < 1e-12


def test_noise_binomial_agrees_with_multiplier():
    rng = np.random.default_rng(6)
    n = 10
    f = rand_fn(n, rng)
    for t in (0.0, 0.01, math.log(2), 2.5):
        nb = noise_binomial(f, t)
        nm = noise_multiplier(f, t)
        assert np.abs(nb.values - nm.values).max() < 1e-10


def test_noise_cross_validation_catches_engine_fault(monkeypatch):
    # the binomial route convolves on the physical side and does not go
    # through the engine, so a fault in the engine shows up as a gap
    assert run_check("noise_cross_validation", dims=[6], seed=0)["passed"]
    engine = operators.apply_radial_multipliers
    monkeypatch.setattr(operators, "apply_radial_multipliers",
                        lambda f, rows: engine(f, rows) * (1 + 1e-6))
    assert not run_check("noise_cross_validation", dims=[6], seed=0)["passed"]


def test_engine_blocks_tile_the_result(monkeypatch):
    monkeypatch.setattr(core, "BLOCK", 7)
    rng = np.random.default_rng(18)
    n = 6
    rows = build_table(n).float
    for f in (character(n, 0b011011), rand_fn(n, rng)):
        # a tile is valid until the next is drawn: keep a copy of each
        blocks = [b.copy() for b in operators._radial_multiplier_blocks(f, rows)]
        width = core.BLOCK * 8 // f.values.itemsize     # 7 or 3 columns
        full, last = divmod(1 << n, width)
        assert [b.shape for b in blocks] == [(n + 1, width)] * full + [(n + 1, last)] * (last > 0)
        assert np.array_equal(np.hstack(blocks), apply_radial_multipliers(f, rows))


def _fold_cases(n, rng):
    """Inputs for every route of the engine, real and complex."""
    size = 1 << n
    pc = popcounts(n)
    top = int(np.flatnonzero(pc == n // 2 + 1)[0])     # a point of level n//2 + 1
    one_level = np.where(pc == n // 2 + 1, rng.standard_normal(size), 0.0)
    return [
        CubeFunction(n, rng.standard_normal(size)),                     # per-row
        rand_fn(n, rng),
        CubeFunction(n, character(n, 0).values + character(n, top).values),   # projection
        random_halfspectrum_function(n, rng),
        character(n, top),                                              # single level
        CubeFunction(n, character(n, top).values * (1 - 2j)),
        CubeFunction(n, one_level, SPECTRAL),
        CubeFunction(n, one_level * (2 + 1j), SPECTRAL),
    ]


@pytest.mark.parametrize("n", [1, 2, 9, 14])
def test_folded_blocks_match_first_half(n, monkeypatch):
    # the half-cube engine folds each inverse transform onto 2^{n-1} points.
    # Each row is 2^{-n/2} H_{2^n} applied to its spectrum, whose norm is
    # the row's (Parseval), so the FWHT oracle bound of test_core,
    # 4 eps 2^{n/2} ||x||, becomes 4 eps ||row||
    monkeypatch.setattr(core, "BLOCK", 7)
    half = 1 << (n - 1)
    rows = build_table(n).float
    routes = set()
    for f in _fold_cases(n, np.random.default_rng(19 + n)):
        [(coef, terms)] = operators._radial_terms(f, rows, half)
        route = "per-row" if coef is None else "projection" if len(terms) > 1 else f.side
        routes.add((route, f.values.dtype.kind))
        full = apply_radial_multipliers(f, rows)
        blocks = [b.copy() for b in operators._radial_multiplier_blocks(f, rows, half)]
        width = core.BLOCK * 8 // f.values.itemsize     # 7 or 3 columns
        assert [b.shape for b in blocks[:-1]] == [(n + 1, width)] * (len(blocks) - 1)
        folded = np.hstack(blocks)
        assert folded.shape == (n + 1, half) and folded.dtype == full.dtype
        tol = 4 * np.finfo(float).eps * np.linalg.norm(full, axis=1, keepdims=True)
        assert (np.abs(folded - full[:, :half]) <= tol).all(), route
    if n > 1:      # at n = 1 an input with fewer levels than rows has one level
        # three routes, each real and complex; a single-level spectral input
        # takes the projection route with its one projection, labelled apart
        assert len(routes) == 8


def _estimate(n, m, levels, points, dtype, side):
    """The bytes `_check_memory` counts on every route and fold: the terms on
    `points` points, f with a physical f's spectrum copy, the popcounts,
    one `fwht` scratch and `ENGINE_SLACK`."""
    size, item = 1 << n, np.dtype(dtype).itemsize
    count, copies = min(len(levels), m), 2 if side == "physical" else 1
    return ((count * points + copies * size) * item + size
            + min(points * item, 8 * core.FWHT_SCRATCH) + operators.ENGINE_SLACK)


def _fold_budget(f, rows, points, bits, monkeypatch):
    """The PHYSICAL_MEMORY at which the engine's terms for f just fit on
    sub-cubes of 2^{n-bits} points, from the arguments of its estimate."""
    calls, check = [], operators._check_memory
    with monkeypatch.context() as m:
        m.setattr(operators, "PHYSICAL_MEMORY", None)
        m.setattr(operators, "_check_memory", lambda *args: calls.append(args) or check(*args))
        next(operators._radial_terms(f, rows, points))
    n, m, levels, _, dtype, side = calls[0]
    return _estimate(n, m, levels, (1 << n) >> bits, dtype, side)


@pytest.mark.parametrize("n", [3, 9, 14])
def test_sub_cube_folds_match_the_least_fold(n, monkeypatch):
    # a budget at the estimate of 2^{n-b}-point sub-cubes folds the terms
    # by b bits, the fewest that fit.  The tiles walk the sub-cubes in point
    # order, none spanning two, and match the unfolded (whole cube) or 1-bit
    # (half cube) tiles to the FWHT bound of
    # test_folded_blocks_match_first_half, 4 eps ||row||; the ratios agree
    # to a few ulp.  Both routes, real and complex, on both sides; tiles of
    # 7 or 3 points, or at n = 14 of 256 or 128, shorter than a sub-cube
    monkeypatch.setattr(core, "BLOCK", 7 if n < 14 else 256)
    size = 1 << n
    rng = np.random.default_rng(27 + n)
    rows = build_table(n).float
    top = int(np.flatnonzero(popcounts(n) == n // 2 + 1)[0])
    pair = character(n, 0).values + character(n, top).values
    draw = random_halfspectrum_function(n, rng)
    cases = [
        CubeFunction(n, rng.standard_normal(size)),                     # per-row
        rand_fn(n, rng),
        CubeFunction(n, rng.standard_normal(size), SPECTRAL),
        CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size), SPECTRAL),
        CubeFunction(n, pair),                                          # projection
        CubeFunction(n, pair * (1 - 2j)),
        CubeFunction(n, draw.values.real.copy(), SPECTRAL),
        draw,
    ]
    routes = set()
    for f in cases:
        coef, _ = next(operators._radial_terms(f, rows))
        routes.add((coef is None, f.values.dtype.kind, f.side))
        for points, radii in ((size, [0, 1, n]), (size >> 1, range(n + 1))):
            least = [b.copy() for b in operators._radial_multiplier_blocks(f, rows, points)]
            tol = 4 * np.finfo(float).eps * np.linalg.norm(np.hstack(least), axis=1, keepdims=True)
            ratios = variation_norm_ratio(f, radii, [1.0, 2.0, 3.0])
            for bits in range(int(points < size) + 1, 4):
                monkeypatch.setattr(operators, "PHYSICAL_MEMORY",
                                    _fold_budget(f, rows, points, bits, monkeypatch))
                blocks = [b.copy() for b in operators._radial_multiplier_blocks(f, rows, points)]
                sub = size >> bits
                starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
                assert all(s // sub == (s + b.shape[1] - 1) // sub for s, b in zip(starts, blocks))
                folded = np.hstack(blocks)
                assert folded.shape == (n + 1, points)
                assert (np.abs(folded - np.hstack(least)) <= tol).all(), (f.side, points, bits)
                monkeypatch.setattr(operators, "PHYSICAL_MEMORY", _fold_budget(
                    f, operators._kraw_rows(n, radii), points, bits, monkeypatch))
                assert variation_norm_ratio(f, radii, [1.0, 2.0, 3.0]) == pytest.approx(
                    ratios, rel=8 * np.finfo(float).eps)
                monkeypatch.setattr(operators, "PHYSICAL_MEMORY", None)
    assert len(routes) == 8


def test_fold_bits_takes_the_fewest_that_fit(monkeypatch):
    # the budget between two estimates picks the larger sub-cube that fits;
    # none fits below the estimate at MAX_FOLD_BITS (or n), whose refusal
    # is raised; the whole result (most = 0) is never folded
    for n, m, levels, side in ((12, 13, range(7), SPECTRAL), (12, 13, range(13), "physical"),
                               (3, 4, range(2), SPECTRAL)):
        most = min(n, operators.MAX_FOLD_BITS)
        need = [_estimate(n, m, levels, (1 << n) >> b, np.complex128, side) for b in range(most + 1)]
        for points in (1 << n, 1 << (n - 1)):
            least = int(points < 1 << n)
            monkeypatch.setattr(operators, "PHYSICAL_MEMORY", None)
            assert operators._fold_bits(n, m, levels, points, np.complex128, side) == least
            for b in range(least, most + 1):
                budgets = [need[b]] + ([need[b - 1] - 1] if b > least else [10 ** 12])
                for budget in budgets:
                    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", budget)
                    assert operators._fold_bits(n, m, levels, points, np.complex128, side) == b
            monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need[most] - 1)
            with pytest.raises(MemoryError, match=f"need {need[most]} bytes"):
                operators._fold_bits(n, m, levels, points, np.complex128, side)
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need[0] - 1)
        with pytest.raises(MemoryError, match=f"need {need[0]} bytes"):
            operators._fold_bits(n, m, levels, 1 << n, np.complex128, side, most=0)


def _engine_input(n, route, side, dtype):
    """An input that takes `route`, on `side`, with `dtype` values."""
    size, rng = 1 << n, np.random.default_rng(n)
    top = int(np.flatnonzero(popcounts(n) == n // 2 + 1)[0])
    if route == "signed character":
        values = character(n, 2**(n - 1) - 1).values
    elif route == "per-row":
        values = rng.standard_normal(size)
    elif side == SPECTRAL:         # two levels, fewer than the n + 1 rows
        values = np.zeros(size)
        values[[0, top]] = 1.0
    else:
        values = character(n, 0).values + character(n, top).values
    return CubeFunction(n, values * (1 - 2j) if dtype == "complex" else values, side)


#: Every route, side and dtype of the engine, as `_engine_input` makes them.
ENGINE_CASES = [
    ("signed character", "physical", "real"), ("signed character", "physical", "complex"),
    *((route, side, dtype) for route in ("level projections", "per-row")
      for side in ("physical", SPECTRAL) for dtype in ("real", "complex")),
]


@pytest.mark.parametrize("n", [14, 16])
@pytest.mark.parametrize("route, side, dtype", ENGINE_CASES)
def test_engine_peak_within_its_estimate(n, route, side, dtype, monkeypatch):
    # the traced peak of an engine call, plus f and the popcounts it reads,
    # is at most the largest estimate the call made and passed, and at
    # n = 16 that estimate is at most twice it: every route, side and
    # dtype, for the whole result (n + 1 rows, and one row, which takes the
    # per-row route) and for the terms streamed on the whole or the half
    # cube at each fold b <= 2 (forced by a budget at b's estimate).  A
    # streamed signed character is read in place and makes no estimate
    f = _engine_input(n, route, side, dtype)
    rows, size = build_table(n).float, 1 << n
    coef, terms = next(operators._radial_terms(f, rows))
    assert route == ("per-row" if coef is None else "signed character"
                     if np.shares_memory(terms, f.values) else "level projections")
    del coef, terms
    popcounts(n)         # an input, as f is: made before the call
    calls = [("whole", lambda: apply_radial_multipliers(f, rows), None),
             ("one row", lambda: apply_radial_multipliers(f, rows[3:4]), None)]
    if route != "signed character":
        calls += [(f"{points} points, b = {bits}", lambda points=points, bits=bits: [
                      terms.shape[1] == size >> bits or pytest.fail("wrong fold")
                      for _, terms in operators._radial_terms(f, rows, points)],
                   _fold_budget(f, rows, points, bits, monkeypatch))
                  for points in (size, size >> 1) for bits in range(int(points < size), 3)]
    check = operators._check_bytes
    for label, call, budget in calls:
        passed = []
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", budget)
        monkeypatch.setattr(operators, "_check_bytes",
                            lambda need, what: check(need, what) or passed.append(need))
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1] + f.values.nbytes + size
        finally:
            tracemalloc.stop()
        need = max(passed)
        assert peak <= need, label
        if n == 16:
            assert need <= 2 * peak, label


@pytest.mark.parametrize("route, side, dtype", ENGINE_CASES)
def test_chunk_boundaries_keep_every_bit(route, side, dtype, monkeypatch):
    # the engine folds its terms a CHUNK of points at a time; with chunks of
    # 2^5 points at n = 10 every sub-cube spans 8 to 32 of them, and the
    # whole result (n + 1 rows, and one row) and the tiles streamed on the
    # whole or the half cube at each fold b <= 2 keep the bytes of the
    # default chunks, under which each of these calls folds in one chunk
    n = 10
    f = _engine_input(n, route, side, dtype)
    rows, size = build_table(n).float, 1 << n
    folds = [(points, bits) for points in (size, size >> 1) for bits in range(int(points < size), 3)]
    budgets = [None if route == "signed character" else _fold_budget(f, rows, points, bits, monkeypatch)
               for points, bits in folds]

    def results():
        out = [apply_radial_multipliers(f, rows), apply_radial_multipliers(f, rows[3:4])]
        for (points, bits), budget in zip(folds, budgets):
            monkeypatch.setattr(operators, "PHYSICAL_MEMORY", budget)
            if budget is not None:
                assert [t.shape[1] for _, t in operators._radial_terms(f, rows, points)] == \
                    [size >> bits] * (points >> (n - bits))
            out.append(np.hstack([b.copy() for b in operators._radial_multiplier_blocks(f, rows, points)]))
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", None)
        return [r.tobytes() for r in out]

    default = results()
    monkeypatch.setattr(operators, "CHUNK", 1 << 5)
    assert results() == default


@pytest.mark.parametrize("n", [9, 10])
def test_ratio_leaves_f_untouched(n, monkeypatch):
    # the DP overwrites every engine tile, and no tile may be a view of f:
    # every route of the engine, on the half cube and on the full cube
    monkeypatch.setattr(core, "BLOCK", 7)
    for f in _fold_cases(n, np.random.default_rng(23 + n)):
        before = f.values.copy()
        for radii in (range(n + 1), [0, 1, n]):
            assert variation_norm_ratio(f, radii, [1.0, 2.0, 3.0])[0] > 0
            assert f.values.tobytes() == before.tobytes()


def test_one_row_skips_level_detection(monkeypatch):
    # one row takes one inverse transform whatever levels f has, so the
    # engine does not look for them; the bits are those of the per-row route
    # that a second row with f's levels takes, and the zero function still
    # gives +0.0 everywhere, as the empty level projection did
    bincount, calls = np.bincount, []
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    n = 9
    rng = np.random.default_rng(24)
    rows = np.vstack([build_table(n).float[3], np.exp(-0.4 * np.arange(n + 1))])
    size = 1 << n
    for f in (CubeFunction(n, rng.standard_normal(size)), rand_fn(n, rng),
              CubeFunction(n, rng.standard_normal(size), SPECTRAL),
              CubeFunction(n, rng.standard_normal(size) + 1j * rng.standard_normal(size), SPECTRAL),
              CubeFunction(n, np.zeros(size)), CubeFunction(n, np.zeros(size), SPECTRAL)):
        pair = apply_radial_multipliers(f, rows)
        assert calls
        for i, row in enumerate(rows):
            calls.clear()
            one = apply_radial_multipliers(f, row[None])
            assert not calls
            assert one.tobytes() == pair[i:i + 1].tobytes()
        if not f.values.any():
            assert not np.signbit(pair).any()


def test_folded_engine_rejects_other_widths():
    f = character(6, 5)
    for points in (0, 16, 48, 128):
        with pytest.raises(ValueError, match=f"{points} points"):
            list(operators._radial_multiplier_blocks(f, build_table(6).float, points))


def test_folded_engine_holds_half_the_projections(monkeypatch):
    # PHYSICAL_MEMORY between the half-cube and the full estimate: the
    # antipodal ratio runs, the full stack is refused before it is allocated.
    # Below the half-cube estimate the ratio folds onto quarter cubes, and
    # below the estimate of the most-folded sub-cubes it is refused
    n = 8
    rng = np.random.default_rng(20)
    cases = [
        (rand_fn(n, rng), range(n + 1), "physical"),                         # per-row route
        (random_halfspectrum_function(n, rng), range(n // 2 + 1), SPECTRAL),    # projection route
    ]
    for f, levels, side in cases:
        half, full, least = (_estimate(n, n + 1, levels, (1 << n) >> bits, np.complex128, side)
                             for bits in (1, 0, operators.MAX_FOLD_BITS))
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", half)
        ratio = variation_norm_ratio(f, range(n + 1), 2.0)
        assert ratio > 0
        with pytest.raises(MemoryError, match=f"{full} bytes, more than the {half} bytes"):
            spherical_mean_stack(f, range(n + 1))
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", half - 1)
        assert variation_norm_ratio(f, range(n + 1), 2.0) == pytest.approx(ratio, rel=1e-14)
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", least - 1)
        with pytest.raises(MemoryError, match=f"{least} bytes, more than the"):
            variation_norm_ratio(f, range(n + 1), 2.0)


def test_witness_level_detection_holds_one_copy_of_f():
    # a single-level physical f that is no signed character (two characters
    # of one weight) on the half cube: its spectrum (8 B/pt) and the
    # popcounts (1 B/pt) beside its one level projection (4 B/pt) and that
    # transform's scratch, with no 2^n FWHT scratch or popcount index array
    n = 18
    f = CubeFunction(n, character(n, 2**17 - 1).values + character(n, 2**18 - 2).values)
    rows = operators._kraw_rows(n, range(n + 1))
    popcounts.cache_clear()
    tracemalloc.start()
    try:
        [(coef, terms)] = operators._radial_terms(f, rows, 1 << (n - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coef.shape == (n + 1, 1) and terms.shape == (1, 1 << (n - 1))
    assert not np.shares_memory(terms, f.values)
    assert peak <= 13 * (1 << n) + core.FWHT_SCRATCH * 8 + 65536


def test_single_level_ratio_holds_no_spectrum_in_the_dp(monkeypatch):
    # once the engine has made the level projection of a single-level f
    # that is no signed character, its spectrum copy is gone: when the DP
    # first runs, no traced block is as large as f (n = 20, where a tile and
    # the half-cube projection are smaller than 2^n float64 values)
    n = 20
    f = CubeFunction(n, character(n, 2**19 - 1).values + character(n, 2**20 - 2).values)
    largest, dp = [], experiments.vr_pointwise_values

    def first_dp(tile, *args, **kwargs):
        if not largest:
            largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return dp(tile, *args, **kwargs)

    monkeypatch.setattr(experiments, "vr_pointwise_values", first_dp)
    tracemalloc.start()
    try:
        assert variation_norm_ratio(f, range(n + 1), 2.0) > 0
    finally:
        tracemalloc.stop()
    assert 0 < largest[0] < (1 << n) * 8


def _count_fwht(monkeypatch):
    calls = []
    fwht = operators.fwht
    monkeypatch.setattr(operators, "fwht", lambda values: calls.append(1) or fwht(values))
    return calls


@pytest.mark.parametrize("n", [1, 2, 9, 14])
def test_signed_characters_skip_the_spectrum(n, monkeypatch):
    # f = c chi_y is confirmed blockwise and read in place: no transform, and
    # the bits of the transform route, which finds the same single level.
    # At even n the spectral-side input c 2^{n/2} e_y is exact, and its
    # projection route gives the same bits too; at odd n, a few ulp apart
    rows = build_table(n).float
    y_random = int(np.random.default_rng(n).integers(1 << n))
    for y in {0, (1 << n) - 1, (1 << (n - 1)) - 1, y_random}:
        for c in (1, -1, 2, 0.75, 1 - 2j):
            f = CubeFunction(n, c * character(n, y).values)
            calls = _count_fwht(monkeypatch)
            for block, points in itertools.product((7, core.BLOCK), (1 << n, 1 << (n - 1))):
                with monkeypatch.context() as m:
                    m.setattr(core, "BLOCK", block)    # 7: several slabs per block
                    [(coef, terms)] = operators._radial_terms(f, rows, points)
                assert coef.shape == (n + 1, 1) and np.array_equal(coef[:, 0], rows[:, y.bit_count()])
                assert np.shares_memory(terms, f.values) and terms.shape == (1, points)
            assert not calls
            spec = np.zeros(1 << n, dtype=f.values.dtype)
            spec[y] = c * 2 ** (n / 2)
            for radii in (range(n + 1), [0, 1, n]):
                ratios = variation_norm_ratio(f, radii, [1.0, 2.0, 3.0])
                assert not calls
                with monkeypatch.context() as m:
                    m.setattr(operators, "_signed_character", lambda values: None)
                    assert variation_norm_ratio(f, radii, [1.0, 2.0, 3.0]) == ratios
                    assert calls
                spectral = variation_norm_ratio(CubeFunction(n, spec, SPECTRAL), radii,
                                                [1.0, 2.0, 3.0])
                if n % 2 == 0:
                    assert spectral == ratios
                assert np.allclose(spectral, ratios, rtol=8 * np.finfo(float).eps, atol=0)
                calls.clear()


def test_other_inputs_take_the_transform_route(monkeypatch):
    # one flipped point, two characters of one weight, a NaN, f(0) = 0 and
    # an infinite c are not confirmed; they read their levels off a spectrum
    n = 9
    rows = build_table(n).float
    chi = character(n, 0b101100111).values
    flipped = chi.copy()
    flipped[300] *= -1
    nan = chi.copy()
    nan[17] = math.nan
    for values in (flipped, chi + character(n, 0b011100111).values, nan,
                   chi * np.arange(1 << n), chi * math.inf):
        assert operators._signed_character(values) is None
        calls = _count_fwht(monkeypatch)
        with np.errstate(invalid="ignore"):     # inf - inf in the transform
            list(operators._radial_terms(CubeFunction(n, values), rows))
        assert calls        # the forward transform, then one per projection or row
    # flipping any one point of any block is seen, with one-value slabs too
    monkeypatch.setattr(core, "BLOCK", 1)
    for x in range(1 << n):
        flipped = chi.copy()
        flipped[x] *= -1
        assert operators._signed_character(flipped) is None
    assert operators._signed_character(-2.5 * chi) == 0b101100111


def test_one_level_tiles_are_products(monkeypatch):
    # a one-column coef forms each tile by one broadcast multiply, with no
    # call into matmul: the bits of the matrix product it replaces, but for
    # the sign of a zero product (kappa_5(9) = 0 at n = 10; 0 * -1 is -0
    # here, +0 in BLAS), which adding +0.0 clears
    monkeypatch.setattr(core, "BLOCK", 7)
    n = 10
    rng = np.random.default_rng(25)
    rows = build_table(n).float
    one_level = np.where(popcounts(n) == 4, rng.standard_normal(1 << n), 0.0)
    for f in (character(n, 2**9 - 1), CubeFunction(n, character(n, 7).values * (1 - 2j)),
              CubeFunction(n, one_level, SPECTRAL), CubeFunction(n, one_level * (2 + 1j), SPECTRAL)):
        [(coef, terms)] = operators._radial_terms(f, rows)
        assert coef.shape == (n + 1, 1)
        matmul = np.matmul
        with monkeypatch.context() as m:
            m.setattr(operators, "_radial_terms", lambda *args: [(coef, terms)])
            m.setattr(np, "matmul", None)
            blocks = [b.copy() for b in operators._radial_multiplier_blocks(f, rows)]
        tiles, product = np.hstack(blocks), matmul(coef, terms)
        assert (tiles + 0.0).tobytes() == (product + 0.0).tobytes()


def _single_level_cases(n):
    """The multipliers and single-level inputs at a level w with a zero
    multiplier kappa_k(w) where there is one: c chi_y for three c, two
    characters of weight w and a one-level spectral input."""
    rows = build_table(n).float
    zeros = np.flatnonzero((rows == 0).any(axis=0))
    w = int(zeros[-1]) if len(zeros) else n
    pc = popcounts(n)
    ys = [int(y) for y in np.flatnonzero(pc == w)]
    chi = character(n, ys[0]).values
    cases = [CubeFunction(n, c * chi) for c in (1, -0.75, 1 - 2j)]
    if len(ys) > 1:
        cases.append(CubeFunction(n, chi + character(n, ys[-1]).values))
    one_level = np.where(pc == w, np.random.default_rng(n).standard_normal(1 << n), 0.0)
    return rows, cases + [CubeFunction(n, one_level, SPECTRAL)]


@pytest.mark.parametrize("n", [1, 9, 14])
def test_single_level_result_equals_its_tiles(n, monkeypatch):
    # the whole result and its tiles are formed by one product, so they
    # agree byte for byte, the sign of a zero product kappa_k(w) x included
    monkeypatch.setattr(core, "BLOCK", 7)
    rows, cases = _single_level_cases(n)
    for f in cases:
        assert next(operators._radial_terms(f, rows))[0].shape == (n + 1, 1)
        tiles = np.hstack([b.copy() for b in operators._radial_multiplier_blocks(f, rows)])
        assert apply_radial_multipliers(f, rows).tobytes() == tiles.tobytes()


@pytest.mark.parametrize("n", [1, 9, 14])
def test_one_row_characters_make_no_transform(n, monkeypatch):
    # one-row calls read c chi_y in place as multi-row calls do: no forward
    # or inverse transform, and the bits of the transform route but for the
    # sign of a zero, which adding +0.0 clears
    calls, signed_character = _count_fwht(monkeypatch), operators._signed_character
    for y in {(1 << n) - 1, (1 << (n - 1)) - 1}:
        for c in (1, -0.75, 1 - 2j):
            f = CubeFunction(n, c * character(n, y).values)
            routes = []
            for signed in (signed_character, lambda values: None):
                monkeypatch.setattr(operators, "_signed_character", signed)
                routes.append([g.values + 0.0 for g in (
                    *(spherical_mean_multiplier(f, k) for k in (0, n // 2, n)),
                    noise_multiplier(f, 0.7))])
                assert len(calls) == (0 if len(routes) == 1 else 8)
                calls.clear()
            in_place, transformed = routes
            assert [v.tobytes() for v in in_place] == [v.tobytes() for v in transformed]


def test_one_column_product_calls_no_matmul(monkeypatch):
    # the whole single-level result is one broadcast multiply, as each tile
    # is: a spy view of the terms sees every ufunc, `@` included
    calls = []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append(ufunc.__name__)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    rows, cases = _single_level_cases(10)
    for f in cases:
        [(coef, terms)] = operators._radial_terms(f, rows)
        expected = apply_radial_multipliers(f, rows)
        with monkeypatch.context() as m:
            m.setattr(operators, "_radial_terms", lambda *args, **kwargs: [(coef, terms.view(Spy))])
            m.setattr(np, "matmul", None)
            calls.clear()
            assert apply_radial_multipliers(f, rows).tobytes() == expected.tobytes()
        assert calls == ["multiply"]


def test_single_level_result_above_physical_memory_raises(monkeypatch):
    # a signed character's whole result is estimated before it is formed,
    # as its (n+1, 2^n) result with f, held once (no spectrum copy is made),
    # the popcounts and ENGINE_SLACK; its tile stream never holds it, so the
    # ratio still runs.  Two characters of one weight take the projection
    # route, whose one projection, f, its spectrum copy, the popcounts and
    # the engine's workspace do not fit: at b = 0 for the whole result, at
    # b = MAX_FOLD_BITS for the ratio
    n = 16
    need = (n + 1 + 1) * (1 << n) * 8 + (1 << n) + operators.ENGINE_SLACK
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", 1 << 20)
    chi = character(n, 2**15 - 1)
    with pytest.raises(MemoryError, match=f"need {need} bytes, more than the {1 << 20} bytes"):
        spherical_mean_stack(chi, range(n + 1))
    assert variation_norm_ratio(chi, range(n + 1), 2.0) > 0
    assert need == 10027008
    pair = CubeFunction(n, chi.values + character(n, 2**16 - 2).values)
    whole, folded = (_estimate(n, n + 1, [n - 1], (1 << n) >> bits, np.float64, "physical")
                     for bits in (0, operators.MAX_FOLD_BITS))
    with pytest.raises(MemoryError, match=f"need {whole} bytes, more than the {1 << 20} bytes"):
        spherical_mean_stack(pair, range(n + 1))
    with pytest.raises(MemoryError, match=f"need {folded} bytes, more than the {1 << 20} bytes"):
        variation_norm_ratio(pair, range(n + 1), 2.0)
    assert (whole, folded) == (2686976, 1703936)


def test_noise_binomial_weights_sum_to_one():
    # mixture of means applied to the constant function returns the constant
    n = 8
    ones = CubeFunction(n, np.ones(1 << n))
    for t in (0.05, 1.0, 7.0):
        out = noise_binomial(ones, t)
        assert np.abs(out.values - 1.0).max() < 1e-12


def test_semigroup_axioms():
    res = run_check("semigroup_max_violation", cases=[(8, 10)], seed=0)
    assert res["passed"] and res["value"] <= 1e-10


def test_semigroup_symmetry_on_basis():
    n = 5
    for y, z in ((3, 3), (3, 5), (0, 31)):
        cy = character(n, y).values / 2 ** (n / 2)
        cz = character(n, z).values / 2 ** (n / 2)
        lhs = np.vdot(cz, noise_multiplier(CubeFunction(n, cy), 1.3).values)
        expected = math.exp(-1.3 * bin(y).count("1")) * (1.0 if y == z else 0.0)
        assert abs(lhs - expected) < 1e-12


def test_reflection_sign_identity():
    # S_k g(z) = (-1)^{k+|z|} S_k (reflect g)(z), where the reflection
    # g^(y) -> g^(y XOR 1_n) multiplies g by the character of 1_n
    rng = np.random.default_rng(8)
    n = 8
    g = rand_fn(n, rng)
    signs = (-1.0) ** popcounts(n)
    rg = CubeFunction(n, g.values * signs)
    for k in range(n + 1):
        lhs = spherical_mean_multiplier(g, k).values
        rhs = (-1) ** k * signs * spherical_mean_multiplier(rg, k).values
        assert np.abs(lhs - rhs).max() < 1e-10


def test_antipodal_identity():
    # S_k f(x XOR 1_n) = S_{n-k} f(x), through the check battery
    res = run_check("antipodal_max_violation", dims=[4, 10], seed=9)
    assert res["passed"] and res["value"] < 1e-10


@pytest.mark.parametrize("name, per_f", [("spherical_cross_validation", lambda n: 1 + (n + 1)),
                                          ("antipodal_max_violation", lambda n: 1 + 2 * (n // 2 + 1))])
def test_check_transforms_each_f_forward_once(name, per_f, monkeypatch):
    # one forward transform per random f, then one inverse per engine S_k;
    # the direct side convolves through `core` and is not counted
    calls = []
    fwht = operators.fwht
    monkeypatch.setattr(operators, "fwht", lambda values: calls.append(1) or fwht(values))
    dims = [6, 9]
    assert run_check(name, dims=dims, seed=0)["passed"]
    assert len(calls) == sum(per_f(n) for n in dims)


def test_result_above_physical_memory_raises(monkeypatch):
    n = 8
    rng = np.random.default_rng(16)
    cases = [
        # the terms are the result: `_check_memory`'s estimate on the whole cube
        (rand_fn(n, rng), _estimate(n, n + 1, range(n + 1), 1 << n, np.complex128, "physical")),
        # the result with the level projections it is formed from, f once,
        # the popcounts and ENGINE_SLACK
        (random_halfspectrum_function(n, rng),
         (n + 1 + n // 2 + 1 + 1) * (1 << n) * 16 + (1 << n) + operators.ENGINE_SLACK),
    ]
    for f, need in cases:
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need - 1)
        with pytest.raises(MemoryError, match=f"{need} bytes, more than the {need - 1} bytes"):
            spherical_mean_stack(f, range(n + 1))
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need)
        assert spherical_mean_stack(f, range(n + 1)).shape == (n + 1, 1 << n)
