"""SHA-256 pins of small seed-0 artifacts of every experiment command.

A refactor of the SGD loops, the diagnostic or the streams must leave each
CSV and sidecar byte-identical; any change to these bytes is an
``artifact_version`` bump and must be declared as one.  The runs are small
but cover every stepping path: all four ``compare`` methods with a
diagnostic (``--t1-epochs 1``) and a divergent rate on both families, the
pflug detector and the split detector in ``race``, raw ``mc`` on both
families and normalized ``mc`` (lockstep burn-in plus two-thread
windows), one ``sensitivity`` cell and ``gen-data``.
"""

import hashlib

import pytest
from click.testing import CliRunner

from splitsgd.cli import cli

RUNS = {
    "compare-linear": [
        "compare", "--problem", "linear", "--methods", "splitsgd,const,sqrt,half",
        "--etas", "1e-2,1", "--epochs", "4", "--seeds", "2", "--t1-epochs", "1",
        "--threads", "1",
    ],
    "compare-logistic": [
        "compare", "--problem", "logistic", "--methods", "splitsgd,const,sqrt,half",
        "--etas", "1e-2,1", "--epochs", "4", "--seeds", "2", "--t1-epochs", "1",
        "--threads", "1",
    ],
    "race": [
        "race", "--eta", "1e-2", "--start", "near-opt", "--reps", "4",
        "--max-epochs", "10", "--t1-epochs", "1", "--threads", "1",
    ],
    "mc": [
        "mc", "--eta", "1e-2", "--reps", "30", "--l", "10", "--burn-in-epochs", "2",
        "--window-index", "3", "--windows", "4",
    ],
    "mc-logistic": [
        "mc", "--problem", "logistic", "--eta", "1e-2", "--reps", "30", "--l", "10",
        "--burn-in-epochs", "2", "--window-index", "3", "--windows", "4",
    ],
    "mc-normalized": [
        "mc", "--eta", "1e-2", "--reps", "30", "--l", "10", "--burn-in-epochs", "2",
        "--window-index", "3", "--normalized",
    ],
    "sensitivity": [
        "sensitivity", "--w-values", "20", "--q-values", "0.4", "--etas", "1e-2",
        "--seeds", "1", "--epochs", "3", "--t1-epochs", "1", "--threads", "1",
    ],
    "gen-data": ["gen-data", "--n", "30", "--d", "3"],
}

# (CSV, sidecar) digests for `--seed 0 --out out.csv`.
EXPECTED = {
    "compare-linear": (
        "d48a144478fdfef2b9c3a188702438a760aa6559d07c16d88bde6a6236b7b82d",
        "71b36c8bdff39ddbf4ba717a129f82bf471629163657847d075407b884c1cd88",
    ),
    "compare-logistic": (
        "96627c0e4058284166b2bcd296c9eb6f4e00fafe3cb43d0e09837df37cfb00d7",
        "d36f59daf181b7faccb29ff0a9ff8d1163f7aef86aa9bdd7cf15149c3f436c0a",
    ),
    "race": (
        "592980d66e66b60bd07377261d512d96db14aba620b067e5683f3d42912e407d",
        "fe39e99054a9b513e4bf244dd70dabd127b97f265b572d09bf096d58a09703ac",
    ),
    "mc": (
        "08b301581d3a2cda7c4343fdff67b081237045c7f4f501889712f688bb327d0b",
        "79f4fbb6a4f5c49e7ab43f617b097a7b7b232b42937a0671169a570c72c6c0fa",
    ),
    "mc-logistic": (
        "7fd8644778aa31f78662d9bc3d50e4ccd6f04c5cd1485ee2413df8c0bf77da11",
        "73d453432ea07d169a9eb9d3656a0eab35eedfad4c4efd84f951e483062245a7",
    ),
    "mc-normalized": (
        "eef27d572b4907d3427d8a653decd08ec40de7d3cb45125d9b094cfc03aab518",
        "4e4c88f04fc743d4ffe524887f9bdc99a80aae364a84ee8bd0c2c4c11e70e51d",
    ),
    "sensitivity": (
        "7c0eaeacdc91a3c1f4c94f4e695828678e3aec7cb886f400dca4c6488eb7f549",
        "89b018d2d334541e2bf1cb73733e1ec7945c0b480301e2cd83a3e777bb550d13",
    ),
    "gen-data": (
        "652c080881723819beb76e23d260e47ea0a2d936834889f84268d6912d0a2823",
        "113f37b5f563eb44e40b01db39e99a0df1776b8789dd9b0d0a9aadf94e5bbac7",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifact_bytes_are_pinned(name, tmp_path, monkeypatch):
    # The sidecar records `out`, so every run writes the same relative path.
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(cli, RUNS[name] + ["--seed", "0", "--out", "out.csv"])
    assert result.exit_code == 0, result.output
    digests = (_sha256(tmp_path / "out.csv"), _sha256(tmp_path / "out.csv.meta"))
    assert digests == EXPECTED[name]
