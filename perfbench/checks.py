"""Artifact checks for one workload execution.

Every execution is checked against the structure its arguments imply (the
header, the row keys, and the sidecar's resolved configuration).  For a
seed with a golden in ``goldens.json`` the CSV and sidecar must also match
the golden's SHA-256, unless the sidecar's ``artifact_version`` differs from
the golden's: then the run must hold the golden's invariants instead (the
same ``inf`` cells for ``compare``; for ``mc``, the same kept and diverged
counts and a negative fraction inside a binomial band around the golden's).
Byte identity between the executions of one run is checked by the caller.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

COMPARE_HEADER = ["method", "eta", "seed", "final_log_loss"]
MC_HEADER = ["replication", "q_value", "normalized"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_sidecar(meta: bytes) -> dict[str, str]:
    entries = {}
    for line in meta.decode("utf-8").splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"sidecar line without '=': {line!r}")
        entries[key] = value
    return entries


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _floats(column) -> list[float]:
    values = [float(v) for v in column]
    if any(math.isnan(v) for v in values):
        raise ValueError("CSV holds a nan value")
    return values


def _compare_invariants(options: dict, side: dict, header, rows) -> dict:
    if header != COMPARE_HEADER:
        raise ValueError(f"compare header {header}")
    etas = [float(e) for e in options["--etas"].split(",")]
    methods = options["--methods"].split(",")
    seeds = int(options["--seeds"])
    expected = sorted((m, e, s) for m in methods for e in etas for s in range(seeds))
    keys = [(m, float(e), int(s)) for m, e, s, _ in rows]
    if keys != expected:
        raise ValueError("compare row keys differ from the (method, eta, seed) grid")
    values = _floats(r[3] for r in rows)
    if side.get("threads") != "1":
        raise ValueError(f"sidecar threads={side.get('threads')}, expected 1")
    return {"inf_cells": [list(k) for k, v in zip(keys, values) if math.isinf(v)]}


def _mc_invariants(options: dict, side: dict, header, rows) -> dict:
    if header != MC_HEADER:
        raise ValueError(f"mc header {header}")
    reps = int(options["--reps"])
    kept, diverged = int(side["kept"]), int(side["diverged"])
    if kept + diverged != reps or len(rows) != kept:
        raise ValueError(f"mc kept={kept} diverged={diverged} rows={len(rows)} reps={reps}")
    index = [int(r[0]) for r in rows]
    if index != sorted(set(index)) or (index and not 0 <= index[0] <= index[-1] < reps):
        raise ValueError("mc replication column is not increasing within [0, reps)")
    if any(r[2] != "0" for r in rows):
        raise ValueError("mc normalized column is not all 0 for a --raw run")
    values = np.array(_floats(r[1] for r in rows), dtype=np.float64)
    negative = (np.count_nonzero(values < 0.0) + 0.5 * np.count_nonzero(values == 0.0)) / kept
    if float(side["negative_fraction"]) != float(negative):
        raise ValueError(
            f"sidecar negative_fraction={side['negative_fraction']}, CSV gives {negative!r}"
        )
    for key, value in (("mean", values.mean()), ("sd", values.std(ddof=1))):
        if not math.isclose(float(side[key]), float(value), rel_tol=1e-12):
            raise ValueError(f"sidecar {key}={side[key]}, CSV gives {value!r}")
    return {"kept": kept, "diverged": diverged, "negative_fraction": float(negative)}


def _binomial_band(p: float, kept: int) -> float:
    # Four standard errors plus one replication, so p = 0 still allows one.
    return 4.0 * math.sqrt(p * (1.0 - p) / kept) + 1.0 / kept


def check_artifact(workload, seed: int, csv: bytes, meta: bytes, golden: dict | None) -> dict:
    """Raise ValueError on any miss; return the golden entry this artifact
    would have (hashes, version and invariants)."""
    side = parse_sidecar(meta)
    options = workload.options()
    for key, want in (
        ("artifact", "splitsgd"),
        ("command", workload.command),
        ("seed", str(seed)),
        ("out", workload.out),
    ):
        if side.get(key) != want:
            raise ValueError(f"sidecar {key}={side.get(key)!r}, expected {want!r}")
    header, rows = parse_csv(csv)
    if workload.command == "compare":
        invariants = _compare_invariants(options, side, header, rows)
    else:
        invariants = _mc_invariants(options, side, header, rows)
    entry = {
        "artifact_version": side["artifact_version"],
        "csv_sha256": sha256(csv),
        "meta_sha256": sha256(meta),
        **invariants,
    }
    if golden is None:
        return entry
    if golden["artifact_version"] == entry["artifact_version"]:
        for key in ("csv_sha256", "meta_sha256"):
            if entry[key] != golden[key]:
                raise ValueError(f"{key} {entry[key]} differs from golden {golden[key]}")
    elif workload.command == "compare":
        if entry["inf_cells"] != golden["inf_cells"]:
            raise ValueError(f"inf cells {entry['inf_cells']} differ from golden {golden['inf_cells']}")
    else:
        for key in ("kept", "diverged"):
            if entry[key] != golden[key]:
                raise ValueError(f"{key}={entry[key]} differs from golden {golden[key]}")
        p = golden["negative_fraction"]
        if abs(entry["negative_fraction"] - p) > _binomial_band(p, entry["kept"]):
            raise ValueError(
                f"negative_fraction {entry['negative_fraction']} outside the band around {p}"
            )
    return entry
