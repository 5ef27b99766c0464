"""SHA-256 pins of small seed-0 artifacts of every experiment command.

A refactor of the SGD loops, the diagnostic or the streams must leave each
CSV and sidecar byte-identical; any change to these bytes is an
``artifact_version`` bump and must be declared as one.  The runs are small
but cover every stepping path: all four ``compare`` methods with a
diagnostic (``--t1-epochs 1``) and a divergent rate on both families, the
pflug detector and the split detector in ``race``, raw ``mc`` on both
families and normalized ``mc`` (lockstep burn-in plus two-thread
windows), one ``sensitivity`` cell and ``gen-data`` on both families.

The pins hold under OpenBLAS's ``SkylakeX`` core, the one it picks on an
AVX-512 x86-64 CPU (``OPENBLAS_VERBOSE=2`` prints it).  Margins go through
its ``ddot``, so another core can move the last bits: forcing
``OPENBLAS_CORETYPE=Haswell`` on such a CPU fails the two ``compare`` pins
and the three ``mc`` pins.
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
        "--max-epochs", "10", "--t1-epochs", "1",
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
    "gen-data-logistic": ["gen-data", "--problem", "logistic", "--n", "30", "--d", "3"],
}

# (CSV, sidecar) digests for `--seed 0 --out out.csv`.
EXPECTED = {
    "compare-linear": (
        "d48a144478fdfef2b9c3a188702438a760aa6559d07c16d88bde6a6236b7b82d",
        "3da74db78427dc827a121dc948c1701c4368dc443c4c00b567c042867a5d5b2c",
    ),
    "compare-logistic": (
        "96627c0e4058284166b2bcd296c9eb6f4e00fafe3cb43d0e09837df37cfb00d7",
        "a3b2494edf6c5c645d34f23355b1f1f75438801beeceaefec8a66fb1a44a92c8",
    ),
    "race": (
        "592980d66e66b60bd07377261d512d96db14aba620b067e5683f3d42912e407d",
        "86a57b5ba20c0346bad2aa3d1717674d222051b921840ab17801374a744fd594",
    ),
    "mc": (
        "bbbcf355071f66d350886a4f19fe95f4c325d3910f905df267b70a62150840ed",
        "d7936026d487407ed473e86a696a225747cae5e26075aeaea2e9e75e81330ac6",
    ),
    "mc-logistic": (
        "bb4c3a3b360507291a1da1af74cf75f74c38b6cfdb892de047bf16a185dd82af",
        "e350f5c7a1ec5823afb1cf58869c26d14f770fc1a50e81cdfc411d9ad0d910a0",
    ),
    "mc-normalized": (
        "6518ff771d2fe4b7d5e7b9227891fd8fd3f8e271b1f4d4d32c55db9502343b00",
        "0988a932a05bf499a45cb4148fadd6cdcd5620845a59f8984f9d8ddec828aa9d",
    ),
    "sensitivity": (
        "7c0eaeacdc91a3c1f4c94f4e695828678e3aec7cb886f400dca4c6488eb7f549",
        "b0f7ea92c81cec254ee45e53952fd9cb68c0d1445bbb6d6456c9aa94e03f131c",
    ),
    "gen-data": (
        "652c080881723819beb76e23d260e47ea0a2d936834889f84268d6912d0a2823",
        "c0e1646a6d24c754c3aee72e77f6f2f4065b8940a4d997c4b6543928e48991c4",
    ),
    "gen-data-logistic": (
        "6ff69cdaaad759317c626d1292ad477f8db39e21e03b12aa6bc61da02d5e7da9",
        "01e47cce4de04b2e27c222d0f4579b10f928235c3864b204c19751a9541462d8",
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
