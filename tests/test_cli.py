import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from cubevar import cli, core, experiments, operators
from cubevar.checks import CHECKS, battery_bytes
from cubevar.cli import main
from cubevar.experiments import ExperimentConfig, halfspectrum_bytes, record, witness_bytes

KEYS = ["n", "r", "q", "metric", "value", "witness"]


def traced_main(argv) -> int:
    """Peak bytes traced by tracemalloc while `main(argv)` runs; it must exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict JSON parsers do."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # there is no timing command: perfbench times the other commands
    assert len(cli.COMMANDS) == 6
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "4"])
    assert exc.value.code == 2


def test_verify_passes(tmp_path, capsys):
    code = main(["verify", "--n", "6", "--seed", "42", "--trials", "5",
                 "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verify:" in out
    passed = [line.split()[1] for line in out.splitlines()
              if line.startswith("CHECK ") and line.split()[4] == "PASS"]
    assert passed == list(CHECKS)
    records = json.loads((tmp_path / "verify.json").read_text())["records"]
    assert [rec["metric"] for rec in records] == list(CHECKS)


def test_verify_counts_identity_failures_and_names_them(tmp_path, capsys, monkeypatch):
    _, within, tol = CHECKS["krawtchouk_identity_failures"]     # n failures at each n
    monkeypatch.setitem(CHECKS, "krawtchouk_identity_failures",
                        (lambda dims: (sum(dims), None), within, tol))
    code = main(["verify", "--n", "4", "--trials", "2", "--out", str(tmp_path), "--format", "json"])
    assert code == 1
    assert capsys.readouterr().err == "verify: failed checks: krawtchouk_identity_failures\n"
    record = json.loads((tmp_path / "verify.json").read_text())["records"][0]
    assert record == {"n": 4, "r": None, "q": None, "metric": "krawtchouk_identity_failures",
                      "value": 1 + 2 + 3 + 4, "witness": None}
    # the failed-checks line follows the report write: a report refused for
    # a non-finite value, or an --out that cannot be made, prints only its
    # error line
    (tmp_path / "file").write_text("")
    assert main(["verify", "--n", "4", "--trials", "2", "--out", str(tmp_path / "file")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    monkeypatch.setitem(CHECKS, "krawtchouk_identity_failures", (lambda dims: (math.nan, None), within, tol))
    assert main(["verify", "--n", "4", "--trials", "2", "--out", str(tmp_path / "nan")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON compliant" in err and err.count("\n") == 1
    assert not (tmp_path / "nan").exists()


def test_verify_reports_an_undrawn_property_as_null(tmp_path, capsys):
    # one trial at seed 1 draws no triangle case (it needs b as long as a)
    assert main(["verify", "--n", "6", "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path), "--format", "json"]) == 0
    records = strict_json((tmp_path / "verify.json").read_text())["records"]
    [rec] = [rec for rec in records if rec["metric"] == "variation_worst_slack"]
    assert rec["witness"]["triangle"] is None
    assert rec["value"] == min(v for v in rec["witness"].values() if v is not None)


def test_verify_names_a_broken_antipodal_identity(tmp_path, capsys, monkeypatch):
    exact = operators.spherical_mean_multiplier       # S_{k+1} in place of S_k, k < n
    monkeypatch.setattr(operators, "spherical_mean_multiplier", lambda f, k: exact(f, min(k + 1, f.n)))
    code = main(["verify", "--n", "4", "--trials", "2", "--out", str(tmp_path), "--format", "json"])
    assert code == 1
    assert "antipodal_max_violation" in capsys.readouterr().err
    record = json.loads((tmp_path / "verify.json").read_text())["records"][-1]
    assert record["metric"] == "antipodal_max_violation" and record["value"] > 1e-3


def test_counterexample_command_and_value(tmp_path, capsys):
    code = main(["counterexample", "--kind", "all-ones", "--n", "8", "--r", "2",
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    with open(tmp_path / "counterexample-all-ones.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "experiment"
    value = float(rows[1][5])
    assert value == pytest.approx(2 * 8**0.5, abs=1e-9)


def test_kraw_table_export(tmp_path, capsys):
    code = main(["kraw-table", "--n", "4", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "kraw-table-n4.csv") as fh:
        text = fh.read()
    assert text.splitlines()[0] == "n,k,x,numerator,denominator,float"
    assert "4,2,2,-1,3,-0.3333333333333333" in text


def test_kraw_table_at_n_2_has_no_c_hat(tmp_path, capsys):
    assert main(["kraw-table", "--n", "2", "--out", str(tmp_path), "--format", "json"]) == 0
    records = strict_json((tmp_path / "kraw-scans.json").read_text())["records"]
    assert {rec["metric"]: rec["witness"] for rec in records} == {
        "bound_a_max_ratio": {"argmax": [1, 1]}, "C_b": {"argmax": [1, 1]},
        "C_c": {"argmax": [1, 1]}, "c_hat": {"argmin": None}}
    assert records[-1]["value"] is None


@pytest.mark.parametrize("c_hat,code", [(None, 0), (0.5, 0), (0.0, 1), (-0.5, 1)])
def test_kraw_table_fails_only_a_nonpositive_c_hat(tmp_path, capsys, monkeypatch, c_hat, code):
    monkeypatch.setattr(cli, "estimate_exp_constant", lambda n_max: (c_hat, {"argmin": None}))
    assert main(["kraw-table", "--n", "4", "--out", str(tmp_path), "--format", "json"]) == code


def test_parity_scan_and_phi_psi(tmp_path, capsys):
    assert main(["parity-scan", "--n", "6", "--r", "3", "--q", "0",
                 "--out", str(tmp_path), "--format", "json"]) == 0
    assert main(["phi-psi", "--n", "6", "--out", str(tmp_path), "--format", "json"]) == 0
    # Both read only the (n+1) x (n+1) table, so n may pass any 2^n command's limit.
    assert main(["parity-scan", "--n", "40", "--r", "2", "--out", str(tmp_path), "--format", "json"]) == 0
    assert main(["phi-psi", "--n", "64", "--out", str(tmp_path), "--format", "json"]) == 0
    assert main(["half-spectrum", "--n", "6", "--r", "3", "--trials", "3",
                 "--seed", "1", "--out", str(tmp_path), "--format", "json"]) == 0


def test_csv_determinism(tmp_path):
    for sub in ("a", "b"):
        main(["counterexample", "--kind", "truncated", "--n", "8,10", "--r", "1,2",
              "--seed", "5", "--out", str(tmp_path / sub), "--format", "both"])
    for name in ("counterexample-truncated.csv", "counterexample-truncated.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


# r = 1000 is finite, but above variation.MAX_ORDER its |jump|^r flushes to 0
@pytest.mark.parametrize("command,r", [("counterexample", "nan"), ("parity-scan", "1e400"),
                                       ("counterexample", "1000")])
def test_non_finite_r_exits_2(tmp_path, capsys, command, r):
    code = main([command, "--n", "6", "--r", r, "--out", str(tmp_path)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["verify", "kraw-table", "parity-scan", "phi-psi",
                                     "half-spectrum"])
def test_threads_only_where_read(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "6", "--threads", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["phi-psi", "--r", "3"], ["phi-psi", "--q", "1"],
                                  ["phi-psi", "--trials", "5"], ["kraw-table", "--seed", "4"],
                                  ["verify", "--r", "2"], ["parity-scan", "--trials", "3"],
                                  ["counterexample", "--trials", "3"], ["half-spectrum", "--q", "0"],
                                  *([name, "--alpha", "0.25"] for name in cli.COMMANDS
                                    if name != "counterexample")])
def test_config_flags_only_where_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "6", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_config_file_is_a_usage_error(tmp_path, capsys, command):
    # every setting is a flag: there is no config-file syntax
    path = tmp_path / "run.cfg"
    path.write_text("n_list = 4\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_alpha_out_of_range_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["counterexample", "--kind", "corollary", "--alpha", "1.5", "--out", str(out)]) == 2
    assert "exponent" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--n", "4,x"), ("--n", ""), ("--r", "2,"),
                                        ("--alpha", "half")])
def test_malformed_value_is_a_usage_error(tmp_path, capsys, flag, value):
    # each flag is parsed once, by argparse, which names the flag it cannot parse
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--kind", "corollary", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    (["counterexample", "--kind", "truncated", "--n", "8,10", "--r", "{}"], "counterexample-truncated"),
    (["half-spectrum", "--n", "6,7", "--trials", "3", "--seed", "2", "--r", "{}"], "half-spectrum"),
])
def test_orders_in_one_pass_match_single_runs(tmp_path, argv, name):
    def records(r_text):
        out = tmp_path / r_text
        assert main([arg.format(r_text) for arg in argv] + ["--out", str(out), "--format", "json"]) == 0
        return json.loads((out / f"{name}.json").read_text())["records"]

    joint = records("3,1,2")
    single = [rec for r in ("3", "1", "2") for rec in records(r)]
    key = lambda rec: (rec["n"], [3.0, 1.0, 2.0].index(rec["r"]))
    assert joint == sorted(single, key=key)


# counterexample runs its n values in order; --threads is kept, with the one
# value 1, only because perfbench's witness workload passes it
@pytest.mark.parametrize("count", ["0", "-1", "2", "4"])
def test_threads_below_one_exit_2(tmp_path, capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--n", "4", "--threads", count, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--n", "3", "--trials", "1", "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out and "seed" in captured.err
    assert not out.exists()


def test_seed_is_64_bit(tmp_path, capsys):
    argv = ["half-spectrum", "--n", "2", "--trials", "1", "--format", "json", "--seed"]
    assert main([*argv, str(1 << 64), "--out", str(tmp_path / "over")]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "over").exists()
    assert main([*argv, str((1 << 64) - 1), "--out", str(tmp_path / "top")]) == 0


CUBE_COMMANDS = ("verify", "counterexample", "half-spectrum")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_dimension_above_cap_exits_2(tmp_path, capsys, monkeypatch, command):
    # Memory caps the 2^n commands: n = 40 is past it (the table-only commands
    # run n = 40, up to the table's 64).  2^70 is past every command's limit,
    # and its 2^n, were it formed, overflows.
    argvs = [[command, "--n", str(n)] for n in ((40, 1 << 70) if command in CUBE_COMMANDS else (1 << 70,))]
    if command == "counterexample":
        argvs.append([command, "--kind", "corollary", "--n", str(1 << 70)])
    for argv in argvs:
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if command in CUBE_COMMANDS and "corollary" not in argv:
            assert "bytes of physical memory" in err
        assert not out.exists()
    if command in CUBE_COMMANDS:         # unreported memory: 2^n overflows, and is caught
        monkeypatch.setattr(operators, "PHYSICAL_MEMORY", None)
        assert main([command, "--n", str(1 << 70), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(cfg, args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setitem(cli.COMMANDS, "phi-psi", (exhausted, ()))
    assert main(["phi-psi", "--n", "6", "--out", str(tmp_path)]) == 2
    assert "Unable to allocate" in capsys.readouterr().err


def test_result_above_physical_memory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", 1)
    code = main(["half-spectrum", "--n", "6", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "bytes of physical memory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_above_physical_memory_exits_2(tmp_path, capsys, monkeypatch):
    # the battery is estimated at the largest n before its first check runs
    need = battery_bytes(12)
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need - 1)
    out = tmp_path / "out"
    assert main(["verify", "--n", "4,12", "--trials", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out
    assert f"at n=12 need {need} bytes, more than the {need - 1} bytes of physical memory" in captured.err
    assert not out.exists()
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need)
    assert main(["verify", "--n", "12", "--trials", "2", "--out", str(out)]) == 0


@pytest.mark.parametrize("n", [10, 12, 14])
def test_verify_peak_within_its_estimate(tmp_path, capsys, n):
    assert traced_main(["verify", "--n", str(n), "--trials", "200", "--out", str(tmp_path)]) <= battery_bytes(n)


@pytest.mark.parametrize("n", [16, 18])
def test_verify_estimate_within_twice_its_peak(tmp_path, capsys, n):
    peak = traced_main(["verify", "--n", str(n), "--trials", "2", "--out", str(tmp_path)])
    assert peak <= battery_bytes(n) <= 2 * peak


def test_witness_above_physical_memory_exits_2(tmp_path, capsys, monkeypatch):
    # every n's witness is estimated before the first character is built
    need = witness_bytes(12, [2.0])
    built = []
    monkeypatch.setattr(experiments, "character", lambda n, y: built.append(n) or core.character(n, y))
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need - 1)
    out = tmp_path / "out"
    argv = ["counterexample", "--kind", "truncated", "--r", "2", "--out", str(out)]
    assert main([*argv, "--n", "4,12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert (f"the truncated witness at n=12 need {need} bytes, "
            f"more than the {need - 1} bytes of physical memory") in captured.err
    assert not out.exists()
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need)
    assert main([*argv, "--n", "12"]) == 0
    assert built == [12]


@pytest.mark.parametrize("kind", ["all-ones", "truncated"])
def test_witness_peak_within_its_estimate(tmp_path, capsys, kind):
    for n in (10, 12, 14, 16, 18, 20):
        peak = traced_main(["counterexample", "--kind", kind, "--n", str(n), "--r", "1,2,3",
                            "--out", str(tmp_path)])
        need = witness_bytes(n, [1.0, 2.0, 3.0])
        assert peak <= need
        if n >= 18:
            assert need <= 2 * peak


def test_half_spectrum_peak_within_its_estimate(tmp_path, capsys):
    for n in (10, 12, 14, 16, 18):
        peak = traced_main(["half-spectrum", "--n", str(n), "--r", "2,3", "--trials", "2",
                            "--out", str(tmp_path)])
        need = halfspectrum_bytes(n, [2.0, 3.0])
        assert peak <= need
        if n >= 16:
            assert need <= 2 * peak


def test_preflight_counts_the_input(tmp_path, capsys, monkeypatch):
    # 9 x 2^12 complex level projections alone, the terms of the most-folded
    # sub-cubes: f's 2^16 complex values and its popcounts take the estimate
    # past this budget at every fold
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", 9 * 2**12 * 16)
    code = main(["half-spectrum", "--n", "16", "--r", "2", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "9 x 4096 values and f need 2293760 bytes, more than the 589824 bytes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_half_spectrum_refusal_draws_nothing(tmp_path, capsys, monkeypatch):
    # the budget of test_preflight_counts_the_input, with a draw that raises:
    # the estimate is made before the first draw
    def draw(n, rng):
        raise AssertionError("drew an input")

    need = halfspectrum_bytes(16, [2.0])
    assert need == 14876672
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", 9 * 2**12 * 16)
    monkeypatch.setattr(experiments, "random_halfspectrum_function", draw)
    code = main(["half-spectrum", "--n", "16", "--r", "2", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "2293760 bytes, more than the 589824 bytes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # a budget equal to the command's estimate lets the same command reach the draw
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", need)
    with pytest.raises(AssertionError, match="drew an input"):
        main(["half-spectrum", "--n", "16", "--r", "2", "--trials", "1", "--out", str(tmp_path)])


def test_half_spectrum_checks_every_n_before_any_draw(tmp_path, capsys, monkeypatch):
    # n = 6 fits, n = 16 does not (its engine terms fit at b = 1, but not
    # with the tile and DP rows beside them): the command refuses before it
    # draws for n = 6, and writes no report
    calls = []
    draw = experiments.random_halfspectrum_function
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", 14876671)
    monkeypatch.setattr(experiments, "random_halfspectrum_function",
                        lambda n, rng: calls.append(n) or draw(n, rng))
    code = main(["half-spectrum", "--n", "6,16", "--r", "2", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2
    assert ("a half-spectrum draw at n=16 need 14876672 bytes, more than the 14876671 bytes"
            in capsys.readouterr().err)
    assert not calls and not list(tmp_path.iterdir())
    # n = 6 alone runs under the same budget
    assert main(["half-spectrum", "--n", "6", "--r", "2", "--trials", "1", "--out", str(tmp_path)]) == 0
    assert calls == [6]


def test_kraw_table_bad_n_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["kraw-table", "--n", "4,65", "--out", str(out)]) == 2
    assert "65" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_counterexample_corollary_reads_alpha(tmp_path, capsys):
    code = main(["counterexample", "--kind", "corollary", "--n", "2,16,64", "--r", "2",
                 "--alpha", "0.25", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    report = json.loads((tmp_path / "counterexample-corollary.json").read_text())
    assert report["parameters"]["alpha"] == 0.25
    skipped, *ratios = report["records"]
    assert skipped["n"] == 2 and skipped["metric"] == "corollary_skipped"
    assert skipped["value"] is None
    assert [rec["metric"] for rec in ratios] == ["corollary_ratio"] * 2
    for rec in ratios:
        assert rec["witness"]["b_n"] == rec["n"] ** 0.25
        assert rec["witness"]["satisfied"]


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "4", "--trials", "3"],
    ["verify", "--n", "6", "--trials", "1", "--seed", "1"],
    ["kraw-table", "--n", "2"],
    ["kraw-table", "--n", "3,6"],
    ["counterexample", "--kind", "all-ones", "--n", "3", "--r", "1,2"],
    ["counterexample", "--kind", "truncated", "--n", "5", "--r", "2"],
    ["counterexample", "--kind", "corollary", "--n", "2"],
    ["counterexample", "--kind", "corollary", "--n", "2,16", "--r", "1,3"],
    ["parity-scan", "--n", "5", "--r", "2"],
    ["phi-psi", "--n", "2,5"],
    ["half-spectrum", "--n", "4", "--r", "2", "--trials", "2"],
], ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_every_command_writes_strict_records(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path), "--format", "both"]) == 0
    [path] = tmp_path.glob("*.json")
    records = strict_json(path.read_text())["records"]
    assert records and all(list(rec) == KEYS for rec in records)
    with open(path.with_suffix(".csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert (row[5] == "") == (rec["value"] is None)
        assert strict_json(row[6]) == rec["witness"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("planted", [record(2, "phi_max", math.nan),
                                     record(2, "phi_max", 0.0, {"per_level": [math.inf]})],
                         ids=["value", "witness"])
def test_non_finite_record_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, fmt, planted):
    monkeypatch.setattr(cli, "phi_scan", lambda n: planted)
    out = tmp_path / "out"
    assert main(["phi-psi", "--n", "2", "--out", str(out), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "JSON compliant" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, routes", [
    ("counterexample --kind truncated --n 10 --r 1,2,3", {"signed character"}),
    ("half-spectrum --n 8 --r 2,3 --trials 2", {"level projections"}),
    ("verify --n 6 --trials 2", {"per-row", "signed character"}),   # ones = chi_0
], ids=lambda arg: arg.split()[0] if isinstance(arg, str) else None)
def test_commands_take_their_engine_routes(tmp_path, capsys, monkeypatch, command, routes):
    # each benchmarked command reaches the engine by the routes it measures:
    # moving one to another route would change what its workload times
    taken, terms_of = set(), operators._radial_terms

    def spy(f, *args, **kwargs):
        for coef, terms in terms_of(f, *args, **kwargs):
            taken.add("per-row" if coef is None else "signed character"
                      if np.shares_memory(terms, f.values) else "level projections")
            yield coef, terms

    monkeypatch.setattr(operators, "_radial_terms", spy)
    assert main([*command.split(), "--out", str(tmp_path)]) == 0
    assert taken == routes
