"""Report bytes pinned: each command in fingerprints.json runs in-process
through `cli.main`, and every file it writes must have the sha256 recorded
there.  A mismatch names the command, the file, and the numpy and BLAS that
recorded the bytes beside the ones running now, since another BLAS may round
a matrix product differently.

After a change that is meant to move report bytes, rewrite the record with
`PYTHONPATH=src python tests/test_fingerprints.py`, which prints every file
whose digest changed with its command and the old and new digests.
"""
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from cubevar.cli import main

RECORD_PATH = pathlib.Path(__file__).with_name("fingerprints.json")
RECORD = json.loads(RECORD_PATH.read_text())


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run(command: str, out: pathlib.Path) -> dict:
    """The sha256 of every file `cubevar <command>` writes under `out`."""
    assert main(command.split() + ["--out", str(out)]) == 0, command
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(RECORD["commands"]))
def test_report_bytes_match_record(name, tmp_path, capsys):
    entry = RECORD["commands"][name]
    written = run(entry["command"], tmp_path)
    capsys.readouterr()
    assert sorted(written) == sorted(entry["sha256"]), entry["command"]
    for file, digest in entry["sha256"].items():
        assert written[file] == digest, (
            f"{entry['command']}: {file} changed; recorded with numpy {RECORD['numpy']} "
            f"and {RECORD['blas']}, running numpy {versions()['numpy']} and {versions()['blas']}")


if __name__ == "__main__":
    changed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, entry in enumerate(RECORD["commands"].values()):
            old, entry["sha256"] = entry["sha256"], run(entry["command"], pathlib.Path(tmp, str(i)))
            changed += [f"{entry['command']}: {file} {old.get(file)} -> {entry['sha256'].get(file)}"
                        for file in sorted(old.keys() | entry["sha256"].keys())
                        if old.get(file) != entry["sha256"].get(file)]
    RECORD.update(versions())
    RECORD_PATH.write_text(json.dumps(RECORD, indent=1) + "\n")
    print("changed digests:", *changed or ["none"], sep="\n")
