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
        "c86a958780b5c2e657c24f770e6a2b11850d3165d48f844b017e2863f2c4b519",
    ),
    "compare-logistic": (
        "96627c0e4058284166b2bcd296c9eb6f4e00fafe3cb43d0e09837df37cfb00d7",
        "8150bb765f399cfb6ae3e8e049a1abbc630ba6cb4d4646b2e6d73e5918116a77",
    ),
    "race": (
        "592980d66e66b60bd07377261d512d96db14aba620b067e5683f3d42912e407d",
        "008f860035d137d1afe9d0a9c741c5558d5c69bb710c1055840721973dff9876",
    ),
    "mc": (
        "16cc711c13ffdf76c020a8e627e0395f8d18884d8fc2dd8ff78835b047c1ec55",
        "abe21f17aa8b943a26406ab16e20ff3ac24f73705c89a7450c689dec84342fe7",
    ),
    "mc-logistic": (
        "e0af19c3941daccd9d02a2672273cc66e421eb9eaa757b9618f00dc2871fe7ba",
        "18d7e49ad3feaa59f5db0f8b35b896e0e6a822c3a2b6865b38437199d86e60cd",
    ),
    "mc-normalized": (
        "440a13552a8387d23c69a09de77eca3a69c1df555cdf379fc018e62050f74352",
        "23785f51eeaf4e92cb414d93551d630146fd523d1afee349df243dd8603cb588",
    ),
    "sensitivity": (
        "b82373e5b58e3efb0350fd26a9f42464c30b9fa83b7cd0426cfe92abc079c9fc",
        "f709c052187abd1b5658574ef448ee70f6fcb1ffec32e9e05f47efb5f5eac1fe",
    ),
    "gen-data": (
        "652c080881723819beb76e23d260e47ea0a2d936834889f84268d6912d0a2823",
        "55954642dd066014ec79ef3d2fd7426e0dc8d788f4f37b1546d7cf6e4c604ac2",
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
