import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from cubevar import (
    bound_scan_a,
    bound_scan_b_c,
    build_table,
    estimate_exp_constant,
    kraw_exact,
)
from cubevar.checks import krawtchouk_identity_failures


def test_kraw_exact_hand_values():
    for n in (1, 3, 7, 12):
        for k in range(n + 1):
            assert kraw_exact(n, k, 0) == 1
    assert kraw_exact(2, 1, 1) == 0
    assert kraw_exact(4, 2, 2) == Fraction(-1, 3)


def test_kraw_exact_range_errors():
    with pytest.raises(ValueError):
        kraw_exact(4, 5, 0)
    with pytest.raises(ValueError):
        kraw_exact(4, 0, -1)


def test_build_table_small():
    t1 = build_table(1)
    assert t1.exact == [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    t2 = build_table(2)
    assert t2.exact[1] == [Fraction(1), Fraction(0), Fraction(-1)]
    for n in (1, 2, 5, 9):
        assert all(v == 1 for v in build_table(n).exact[0])


def test_build_table_range_error():
    with pytest.raises(ValueError):
        build_table(0)
    with pytest.raises(ValueError):
        build_table(65)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_fact_properties_exact(n):
    # the four basic properties and, from n = 2, the difference identity
    assert krawtchouk_identity_failures([n]) == (0, None)


@pytest.mark.parametrize("n", [2, 3, 8, 12])
def test_difference_identity(n):
    # kappa^(n)_k(x) - kappa^(n)_k(x-1) = -(2k/n) kappa^(n-1)_{k-1}(x-1),
    # checked on the tables directly, independent of the checks module
    t, s = build_table(n).exact, build_table(n - 1).exact
    pairs = [(k, x) for k in range(1, n + 1) for x in range(1, n + 1)]
    assert len(pairs) == n * n
    for k, x in pairs:
        assert t[k][x] - t[k][x - 1] == Fraction(-2 * k, n) * s[k - 1][x - 1]


def test_difference_identity_hand_case():
    # n=2, k=1, x=1: (0 - 1) = -(2/2) * kappa^(1)_0(0)
    t2, t1 = build_table(2), build_table(1)
    assert t2.exact[1][1] - t2.exact[1][0] == Fraction(-2, 2) * t1.exact[0][0]


def test_float_table_matches_exact():
    for n in (5, 15, 30):
        t = build_table(n)
        for k in range(n + 1):
            for x in range(n + 1):
                assert abs(t.float[k, x] - float(t.exact[k][x])) < 1e-12


def test_bound_scan_a():
    value, witness = bound_scan_a(2)
    assert value == 2
    assert witness["argmax"] in ((1, 1), (1, 2), (2, 1))
    for n in (5, 10, 16):
        assert bound_scan_a(n)[0] <= 2


def test_bound_scan_b_c_finite():
    seen = []
    for n in range(4, 17):
        (c_b, _), (c_c, _) = bound_scan_b_c(n)
        assert math.isfinite(c_b) and math.isfinite(c_c)
        seen.append(max(c_b, c_c))
    assert max(seen) < math.inf


def test_bound_scans_at_n_2():
    # C_b's one quadrant entry, kappa^(2)_1(1) = 0, still names its argmax;
    # no entry constrains c, so c_hat does not exist
    assert bound_scan_b_c(2) == ((0.0, {"argmax": (1, 1)}), (1.0, {"argmax": (1, 1)}))
    assert estimate_exp_constant(2) == (None, {"argmin": None})


def test_estimate_exp_constant():
    value, witness = estimate_exp_constant(16)
    assert value > 0
    # n=2 contributes nothing: its only quadrant entry kappa^(2)_1(1) = 0 is skipped
    assert witness["argmin"][0] > 2


def test_export_csv(tmp_path):
    path = tmp_path / "table.csv"
    build_table(4).export_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "k", "x", "numerator", "denominator", "float"]
    assert len(rows) == 1 + 25
    match = [r for r in rows[1:] if r[:3] == ["4", "2", "2"]]
    assert match and match[0][3] == "-1" and match[0][4] == "3"
    assert float(match[0][5]) == pytest.approx(-1 / 3)
