import math
import tracemalloc

import numpy as np
import pytest

from cubevar import core, operators
from cubevar import (
    CubeFunction,
    apply_radial_multipliers,
    build_table,
    character,
    noise_binomial,
    noise_multiplier,
    popcounts,
    semigroup_axioms_check,
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
        coef, terms = operators._radial_terms(f, rows, half)
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
    # antipodal ratio runs, the full stack is refused before it is allocated
    n = 8
    rng = np.random.default_rng(20)
    cases = [
        (rand_fn(n, rng), n + 1),                                 # per-row route
        (random_halfspectrum_function(n, rng), n // 2 + 1),       # projection route
    ]
    for f, count in cases:
        need = count * (1 << n) * 16
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need // 2)
        assert variation_norm_ratio(f, range(n + 1), 2.0) > 0
        with pytest.raises(MemoryError, match=f"{need} bytes, more than the {need // 2} bytes"):
            spherical_mean_stack(f, range(n + 1))
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need // 2 - 1)
        with pytest.raises(MemoryError, match=f"{need // 2} bytes, more than the"):
            variation_norm_ratio(f, range(n + 1), 2.0)


def test_witness_level_detection_holds_one_copy_of_f():
    # a single-level physical f on the half cube: its spectrum (8 B/pt), the
    # popcounts (1 B/pt) and the nonzero mask (1 B/pt), with no 2^n FWHT
    # scratch or popcount index array beside them
    n = 18
    f = character(n, 2**17 - 1)
    rows = operators._kraw_rows(n, range(n + 1))
    popcounts.cache_clear()
    tracemalloc.start()
    try:
        coef, terms = operators._radial_terms(f, rows, 1 << (n - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coef.shape == (n + 1, 1) and np.shares_memory(terms, f.values)
    assert peak <= 10 * (1 << n) + core.FWHT_SCRATCH * 8 + 65536


def test_noise_binomial_weights_sum_to_one():
    # mixture of means applied to the constant function returns the constant
    n = 8
    ones = CubeFunction(n, np.ones(1 << n))
    for t in (0.05, 1.0, 7.0):
        out = noise_binomial(ones, t)
        assert np.abs(out.values - 1.0).max() < 1e-12


def test_semigroup_axioms():
    report = semigroup_axioms_check(8, [0.01, 0.1, 1.0, 5.0], trials=10, seed=0)
    assert report["max_violation"] <= 1e-10


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
        (rand_fn(n, rng), n + 1),                                 # per-row route
        (random_halfspectrum_function(n, rng), n // 2 + 1),       # projection route
    ]
    for f, count in cases:
        need = count * (1 << n) * 16
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need - 1)
        with pytest.raises(MemoryError, match=f"{need} bytes, more than the {need - 1} bytes"):
            spherical_mean_stack(f, range(n + 1))
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need)
        assert spherical_mean_stack(f, range(n + 1)).shape == (n + 1, 1 << n)
