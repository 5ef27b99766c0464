"""Property test of the input contract: every argv exits 0, 2 or 3.

Argument vectors for all six commands are drawn from small, bounded value
sets.  Each flag gets a valid value, except up to two flags per argv that
get an edge case (zero, a negative, NaN, an infinity, a huge or malformed
number, an unknown choice, an --out under a missing directory), so each
edge case is tried with the rest of the command valid.  The sizes that set
a run's cost (epochs, seeds, replications, dataset size) stay tiny and
every command runs in one process, so the whole test takes well under a
minute.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitsgd.cli import main

_BAD_FLOATS = ["-1", "nan", "inf", "-inf", "1e308", "abc"]
_BAD_INTS = ["-1", "0", "1.5", "nan", str(2**64), "x"]

# flag -> (valid values, edge cases); None as a value marks a bare flag.
_COMMON = {
    "--problem": (["linear", "logistic"], ["cubic"]),
    "--noise-sd": (["0", "1", "2.5"], _BAD_FLOATS),
    "--seed": (["0", "7", str(2**64 - 1)], ["-1", str(2**64), "x"]),
}
_SCHEDULE = {
    "--start": (["reversed", "near-opt"], ["far"]),
    "--t1-epochs": (["1", "4"], ["-1", "0"]),
}
_GAMMA = {"--gamma": (["0.5", "0.9"], ["0", "1", "1.5", *_BAD_FLOATS])}
_WINDOWS = {
    "--w": (["2", "20"], _BAD_INTS),
    "--l": (["5", "50"], _BAD_INTS),
    "--q": (["0", "0.4", "1"], ["1.5", *_BAD_FLOATS]),
}
_ETA = (["0", "1e-3", "1e-2", "1"], _BAD_FLOATS)
_ETAS = (["1e-3", "1e-2,1", "0"], ["1e-3,nan", "inf", "-1", "1e308", "1,abc", ","])
# Relative to the test's scratch directory.
_MISSING_DIR_OUT = os.path.join("nodir", "out.csv")
_OUT = {"--out": (["out.csv"], [_MISSING_DIR_OUT])}

# command -> (flags always given, flags given at will)
COMMANDS = {
    "compare": (
        {"--epochs": (["0", "1", "2"], ["-1"]), "--seeds": (["1", "2"], ["0", "-1"]),
         "--etas": _ETAS, **_OUT},
        {**_COMMON, **_SCHEDULE, **_GAMMA, **_WINDOWS,
         "--methods": (["splitsgd", "const,sqrt", "half,splitsgd"], ["adam", ","])},
    ),
    "race": (
        {"--max-epochs": (["1", "2"], ["0", "-1"]), "--reps": (["1", "2"], ["0", "-1"]), **_OUT},
        {**_COMMON, **_SCHEDULE, **_WINDOWS, "--eta": _ETA,
         "--eta-scale": (["large", "small"], ["huge"])},
    ),
    "mc": (
        {"--burn-in-epochs": (["0", "1"], ["-1"]), "--reps": (["1", "3"], ["0", "-1"]), **_OUT},
        {**_COMMON, "--eta": _ETA,
         "--window-index": (["1", "2"], ["0", "-1", "4"]),
         "--windows": (["2", "3"], ["0", "-1", "1"]),
         "--l": (["1", "5"], ["0", "-1"]),
         "--normalized": ([None], []),
         "--raw": ([None], []),
         "--start": (["reversed", "near-opt"], ["far"]),
         "--start-noise-sd": (["0", "0.1"], _BAD_FLOATS)},
    ),
    "qrisk": (
        {"--w": (["1", "5", "20", "60", "2000"], ["0", "-1", "x"]),
         "--q": (["0", "0.4", "1"], ["1.5", *_BAD_FLOATS])},
        _OUT,
    ),
    "sensitivity": (
        {"--epochs": (["0", "1"], ["-1"]), "--seeds": (["1"], ["0", "-1"]),
         "--etas": _ETAS, **_OUT},
        {**_COMMON, **_SCHEDULE, **_GAMMA,
         "--w-values": (["10", "10,1000"], ["7", "0", "-1", "2.5", "nan", "inf", ","]),
         "--q-values": (["0.4", "0.35,0.5"], ["1.5", "nan", "-inf", "x"])},
    ),
    "gen-data": (
        {"--n": (["1", "5", "50"], ["0", "-1"]), **_OUT},
        {**_COMMON, "--d": (["1", "3"], ["0", "-1"])},
    ),
}
# Commands with a worker pool always run in one process here.
THREADED = {"compare", "sensitivity"}


def _subset(items, max_size=None):
    if not items:
        return st.just([])
    return st.lists(st.sampled_from(sorted(items)), unique=True, max_size=max_size)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = {**required, **optional}
    given_flags = [*required, *draw(_subset(optional))]
    edged = draw(_subset([f for f in given_flags if flags[f][1]], max_size=2))
    argv = [command]
    for flag in given_flags:
        valid, edges = flags[flag]
        value = draw(st.sampled_from(edges if flag in edged else valid))
        argv += [flag] if value is None else [flag, value]
    if command in THREADED:
        argv += ["--threads", "1"]
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_exits_0_2_or_3(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, arg) if flag == "--out" else arg
                for flag, arg in zip(["", *argv], argv)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code or 0
        assert code in (0, 2, 3), argv
        if code == 2:
            assert os.listdir(tmp) == [], argv
        if os.path.join(tmp, _MISSING_DIR_OUT) in argv:
            assert code == 2, argv
