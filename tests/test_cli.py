import csv
import os

import pytest

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


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["phi-psi", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)])
    assert code == 2


def test_verify_passes(tmp_path, capsys):
    code = main(["verify", "--n", "6", "--seed", "42", "--trials", "5",
                 "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verify:" in out
    assert (tmp_path / "verify.json").exists()


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
    assert main(["half-spectrum", "--n", "6", "--r", "3", "--trials", "3",
                 "--seed", "1", "--out", str(tmp_path), "--format", "json"]) == 0


def test_bench_small(tmp_path, capsys):
    assert main(["bench", "--n", "1", "--out", str(tmp_path), "--format", "json"]) == 0
    assert main(["bench", "--n", "10", "--out", str(tmp_path), "--format", "json"]) == 0


def test_csv_determinism(tmp_path):
    for sub in ("a", "b"):
        main(["counterexample", "--kind", "truncated", "--n", "8,10", "--r", "1,2",
              "--seed", "5", "--out", str(tmp_path / sub), "--format", "both"])
    for name in ("counterexample-truncated.csv", "counterexample-truncated.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


@pytest.mark.parametrize("command,r", [("counterexample", "nan"), ("parity-scan", "1e400")])
def test_non_finite_r_exits_2(tmp_path, capsys, command, r):
    code = main([command, "--n", "6", "--r", r, "--out", str(tmp_path)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_threads_flag_keeps_order(tmp_path):
    main(["counterexample", "--kind", "all-ones", "--n", "4,6", "--r", "2",
          "--threads", "1", "--out", str(tmp_path / "serial"), "--format", "csv"])
    main(["counterexample", "--kind", "all-ones", "--n", "4,6", "--r", "2",
          "--threads", "4", "--out", str(tmp_path / "pooled"), "--format", "csv"])
    a = (tmp_path / "serial" / "counterexample-all-ones.csv").read_bytes()
    b = (tmp_path / "pooled" / "counterexample-all-ones.csv").read_bytes()
    assert a == b


def test_env_threads_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBEVAR_THREADS", "2")
    from cubevar.cli import build_parser

    args = build_parser().parse_args(["bench", "--n", "2"])
    assert args.threads == 2
