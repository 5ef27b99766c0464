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
        "6e387091121ff99b074823a17fe935c52516c5a5ce019e55dd9063115d62d5be",
        "b68cfee67bae84f3df94ba018fdf3185ce2087a3ce4a6d3a846b51c51b7cebef",
    ),
    "compare-logistic": (
        "96627c0e4058284166b2bcd296c9eb6f4e00fafe3cb43d0e09837df37cfb00d7",
        "79b6de97ac4b33226d72311cd0c2358331387ba7851cec42da4bf33ad1c2506b",
    ),
    "race": (
        "592980d66e66b60bd07377261d512d96db14aba620b067e5683f3d42912e407d",
        "3bedd1840d2d3126a4beb065e7b73d80db7addd9673b9089d8aad547cf21dd19",
    ),
    "mc": (
        "ccd10a00020fe1d6293d1e72745bb3b574204be6790aa8c9e93c62eced2478c2",
        "83591e2b57843b04ac3df35e4dfe2c27ecb6361e5c9c12bae71360e13c9aed78",
    ),
    "mc-logistic": (
        "44cc73212e115b6f4f0eba044fc3d63df7cb2cac83d2258165a8d26960a60787",
        "ddb90be7085d75b5d4656ce4a0d1721df14404107261fffd204cdee7ea5f19da",
    ),
    "mc-normalized": (
        "dddbbf7f668c328ddb240baab6ed12837ee6cb9f38c45da2e3d8caf18572c441",
        "1e51e7c0bc4e48fe2f6e52c9a5968fc2de47f8286749ed37ea1678add878bf40",
    ),
    "sensitivity": (
        "7c0eaeacdc91a3c1f4c94f4e695828678e3aec7cb886f400dca4c6488eb7f549",
        "e921bbd5a9335c5af52e3ee3509eca97fa8862b34c305ac4aeb6113cd1b5354c",
    ),
    "gen-data": (
        "652c080881723819beb76e23d260e47ea0a2d936834889f84268d6912d0a2823",
        "c6faaf8b9d6530a0018059fe64703c9e53a9a89edd50f7d81dec1698f46fe20d",
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
