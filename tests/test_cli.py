import csv
import json

import pytest

from cubevar import cli, krawtchouk, operators
from cubevar.checks import CHECKS
from cubevar.core import MAX_DIM
from cubevar.cli import main, parse_config
from cubevar.experiments import ExperimentConfig


def test_parse_config_empty_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.n_list == [8] and cfg.r_list == [2.0]
    assert cfg.seed == 0 and cfg.trials == 100


def test_parse_config_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "n_list = 4, 6\n"
        "r_list = 1,2,3\n"
        "seed = 42   # trailing comment\n"
        "trials = 7\n"
        "q = 1\n"
    )
    cfg = parse_config(path)
    assert cfg.n_list == [4, 6]
    assert cfg.r_list == [1.0, 2.0, 3.0]
    assert cfg.seed == 42 and cfg.trials == 7 and cfg.q == 1


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery = 3\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config(path)


def test_parse_config_rejects_bad_alpha(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha = 1.5\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # there is no timing command: perfbench times the other commands
    assert len(cli.COMMANDS) == 6
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "4"])
    assert exc.value.code == 2


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["phi-psi", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)])
    assert code == 2


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
    monkeypatch.setattr(krawtchouk, "check_fact_properties", lambda m: {"failures": m})
    code = main(["verify", "--n", "4", "--trials", "2", "--out", str(tmp_path), "--format", "json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "krawtchouk_identity_failures" in err and "bound_a_max_ratio" not in err
    record = json.loads((tmp_path / "verify.json").read_text())["records"][0]
    assert record == {"n": 4, "metric": "krawtchouk_identity_failures", "value": 1 + 2 + 3 + 4}


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


def test_parity_scan_and_phi_psi(tmp_path, capsys):
    assert main(["parity-scan", "--n", "6", "--r", "3", "--q", "0",
                 "--out", str(tmp_path), "--format", "json"]) == 0
    assert main(["phi-psi", "--n", "6", "--out", str(tmp_path), "--format", "json"]) == 0
    # Both read only the (n+1) x (n+1) table, so n may exceed MAX_DIM.
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
                                  ["counterexample", "--trials", "3"], ["half-spectrum", "--q", "0"]])
def test_config_flags_only_where_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "6", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


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


@pytest.mark.parametrize("how", ["flag", "config"])
def test_negative_seed_exits_2(tmp_path, capsys, how):
    path = tmp_path / "run.cfg"
    path.write_text("seed = -1\n")
    source = ["--seed", "-1"] if how == "flag" else ["--config", str(path)]
    out = tmp_path / "out"
    assert main(["verify", "--n", "3", "--trials", "1", *source, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out and "seed" in captured.err
    assert not out.exists()


def test_seed_is_64_bit(tmp_path, capsys):
    argv = ["half-spectrum", "--n", "2", "--trials", "1", "--format", "json", "--seed"]
    assert main([*argv, str(1 << 64), "--out", str(tmp_path / "over")]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "over").exists()
    assert main([*argv, str((1 << 64) - 1), "--out", str(tmp_path / "top")]) == 0


@pytest.mark.parametrize("command", ["verify", "counterexample", "half-spectrum"])
def test_dimension_above_cap_exits_2(tmp_path, capsys, command):
    code = main([command, "--n", "40", "--out", str(tmp_path)])
    assert code == 2
    assert f"1..{MAX_DIM}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setitem(cli.COMMANDS, "phi-psi", exhausted)
    assert main(["phi-psi", "--n", "6", "--out", str(tmp_path)]) == 2
    assert "Unable to allocate" in capsys.readouterr().err


def test_result_above_physical_memory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(operators, "PHYSICAL_MEMORY", 1)
    code = main(["half-spectrum", "--n", "6", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "bytes of physical memory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_counterexample_corollary_reads_alpha(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n_list = 2, 16, 64\nr_list = 2\nalpha = 0.25\n")
    code = main(["counterexample", "--kind", "corollary", "--config", str(path),
                 "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    report = json.loads((tmp_path / "counterexample-corollary.json").read_text())
    assert report["parameters"]["alpha"] == 0.25
    skipped, *ratios = report["records"]
    assert skipped["n"] == 2 and skipped["metric"] == "corollary_skipped"
    assert [rec["metric"] for rec in ratios] == ["corollary_ratio"] * 2
    for rec in ratios:
        assert rec["witness"]["b_n"] == rec["n"] ** 0.25
        assert rec["witness"]["satisfied"]
