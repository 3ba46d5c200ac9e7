"""The check battery itself: each lemma check fails on a planted fault, and
every check body lives in `checks.py`."""
import copy
import inspect
import os
import subprocess
import sys

import cubevar
from cubevar import CubeFunction, krawtchouk, operators, variation
from cubevar.checks import CHECKS, run_check


def test_identity_check_finds_one_changed_entry(monkeypatch):
    exact = krawtchouk.build_table

    def planted(n):
        table = copy.copy(exact(n))          # the cached table stays as it is
        table.exact = [row[:] for row in table.exact]
        table.exact[2][3] += 1
        return table

    monkeypatch.setattr(krawtchouk, "build_table", planted)
    assert not run_check("krawtchouk_identity_failures", dims=[5])["passed"]


def test_semigroup_check_finds_a_scaled_noise_operator(monkeypatch):
    exact = operators.noise_multiplier
    monkeypatch.setattr(operators, "noise_multiplier",
                        lambda f, t: CubeFunction(f.n, exact(f, t).values * (1 + 1e-6)))
    assert not run_check("semigroup_max_violation", cases=[(6, 3)], seed=0)["passed"]


def test_variation_checks_find_a_scaled_engine(monkeypatch):
    exact = variation.vr_pointwise_values
    monkeypatch.setattr(variation, "vr_pointwise_values", lambda stack, r: 10 * exact(stack, r))
    assert not run_check("variation_worst_slack", trials=5, seed=0)["passed"]
    assert not run_check("chain_lemma_worst_slack", cases=[(5, 24, 2.0)], trials=5, seed=0)["passed"]


def test_check_bodies_live_in_checks():
    for module in (krawtchouk, operators, variation):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            public = not name.startswith("_")
            assert not (public and (name.startswith("check_") or name.endswith("_check"))), name
    for name, (measure, _, _) in CHECKS.items():
        assert measure.__module__ == "cubevar.checks", name


def test_sweep_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 10 ms inside the
    # timed battery; the sweep takes a sorted array's distinct values itself
    code = ("import sys; from cubevar.checks import run_check; "
            "assert 'numpy.ma' not in sys.modules; "
            "run_check('variation_worst_slack', trials=200, seed=0); "
            "print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cubevar.__file__))
    child = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "False"
