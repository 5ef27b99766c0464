"""End-to-end CLI checks: artifacts, determinism, config precedence, exits."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import splitsgd
import splitsgd.cli as cli_module
import splitsgd.optimizers as optimizers_module
from splitsgd.cli import cli, main
from splitsgd.core import START_STREAM_CHILD, DivergenceError, RngStream
from splitsgd.objectives import (
    DATA_STREAM_CHILD,
    build_problem,
    make_default_spec,
    perturbed_start,
)
from splitsgd.optimizers import EVENT_DIAG_S, SplitSgdConfig, run_splitsgd


@pytest.fixture()
def runner():
    return CliRunner()


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _meta(path):
    side = path.parent / (path.name + ".meta")
    entries = {}
    for line in side.read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


def _layout_streams(seed, rep):
    """(start, main) streams of replication ``rep`` under master seed
    ``seed``, spelled out from the stream layout: replication r is
    RngStream(seed).fork(0xE0).fork(r), its start noise that stream's child
    START_STREAM_CHILD and its main stream its child 1."""
    stream = RngStream(seed).fork(0xE0).fork(rep)
    return stream.fork(START_STREAM_CHILD), stream.fork(1)


class TestQrisk:
    def test_prints_exact_default_value(self, runner):
        result = runner.invoke(cli, ["qrisk", "--w", "20", "--q", "0.4"])
        assert result.exit_code == 0
        assert result.output.strip() == repr(137980 / 2.0**20)

    def test_zero_threshold(self, runner):
        result = runner.invoke(cli, ["qrisk", "--w", "7", "--q", "0"])
        assert result.exit_code == 0
        assert float(result.output) == 0.0

    def test_out_file_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "risk.txt"
        result = runner.invoke(cli, ["qrisk", "--w", "2", "--q", "0.5", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == "0.25\n"
        meta = _meta(out)
        assert meta["command"] == "qrisk"
        assert meta["schema_version"] == "1"

    def test_invalid_threshold_is_usage_error(self, runner):
        result = runner.invoke(cli, ["qrisk", "--w", "10", "--q", "1.5"])
        assert result.exit_code == 2


class TestCompare:
    def test_row_count_order_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "cmp.csv"
        result = runner.invoke(cli, [
            "compare", "--methods", "const,sqrt", "--etas", "1e-3,1e-2",
            "--epochs", "1", "--seeds", "2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        header, rows = _rows(out)
        assert header == ["method", "eta", "seed", "final_log_loss"]
        assert len(rows) == 2 * 2 * 2
        keys = [(r[0], float(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        assert all(math.isfinite(float(r[3])) for r in rows)
        meta = _meta(out)
        assert meta["command"] == "compare"
        assert meta["epochs"] == "1"
        assert meta["methods"] == "const,sqrt"
        assert "timestamp" not in meta

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        out = tmp_path / "cmp.csv"
        args = [
            "compare", "--methods", "splitsgd,const", "--etas", "1e-3",
            "--epochs", "2", "--seeds", "2", "--t1-epochs", "1", "--out", str(out),
        ]
        assert runner.invoke(cli, args).exit_code == 0
        first_csv = out.read_bytes()
        first_meta = (tmp_path / "cmp.csv.meta").read_bytes()
        assert runner.invoke(cli, args).exit_code == 0
        assert out.read_bytes() == first_csv
        assert (tmp_path / "cmp.csv.meta").read_bytes() == first_meta

    @pytest.mark.parametrize("args", [
        ["compare", "--methods", "splitsgd,const,sqrt,half", "--etas", "1e-2,1",
         "--epochs", "2", "--seeds", "2", "--t1-epochs", "1"],
        ["sensitivity", "--w-values", "10,20", "--q-values", "0.4", "--etas", "1e-2",
         "--epochs", "2", "--seeds", "1", "--t1-epochs", "1"],
    ], ids=lambda args: args[0])
    def test_worker_pool_matches_sequential(self, runner, tmp_path, args):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        assert runner.invoke(cli, args + ["--threads", "1", "--out", str(seq)]).exit_code == 0
        assert runner.invoke(cli, args + ["--threads", "2", "--out", str(par)]).exit_code == 0
        assert seq.read_bytes() == par.read_bytes()
        if args[0] == "compare":
            # The eta = 1 cells diverge in the workers too.
            assert ",inf\n" in seq.read_text()

    def test_drivers_are_looked_up_at_call_time(self, runner, tmp_path, monkeypatch):
        # A wrapper set on splitsgd.cli after import sees every cell of its
        # method, and only those.
        def diverge(*args):
            raise DivergenceError("iterate diverged at step 0", step=0)

        args = ["compare", "--etas", "1e-2", "--epochs", "1", "--seeds", "2", "--t1-epochs", "1"]
        plain, patched = tmp_path / "plain.csv", tmp_path / "patched.csv"
        assert runner.invoke(cli, args + ["--out", str(plain)]).exit_code == 0
        monkeypatch.setattr(cli_module, "run_sgd_half", diverge)
        result = runner.invoke(cli, args + ["--out", str(patched)])
        assert result.exit_code == 0, result.output
        for before, after in zip(_rows(plain)[1], _rows(patched)[1]):
            assert after[3] == ("inf" if after[0] == "half" else before[3])
            assert before[3] != "inf"

    def test_cell_driver_gets_the_cells_config(self, runner, tmp_path, monkeypatch):
        # Every driver takes (problem, cfg, start, stream, epochs), with the
        # cell's validated SplitSgdConfig; the method -> driver table is read
        # when the cell runs, so a stand-in set on splitsgd.cli receives it.
        calls, run = [], cli_module.run_sqrt_decay_sgd

        def record(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(cli_module, "run_sqrt_decay_sgd", record)
        result = runner.invoke(cli, [
            "compare", "--methods", "sqrt", "--etas", "1e-3", "--epochs", "1", "--seeds", "1",
            "--t1-epochs", "2", "--w", "5", "--l", "10", "--q", "0.3", "--gamma", "0.25",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 0, result.output
        [(problem, cfg, theta0, rng, epochs)] = calls
        assert cfg == SplitSgdConfig(eta=1e-3, w=5, l=10, q=0.3, t1=2 * problem.spec.n, gamma=0.25)
        assert epochs == 1

    def test_zero_rate_final_loss_ignores_budget(self, runner, tmp_path):
        values = []
        for epochs in ("1", "3"):
            out = tmp_path / f"zero{epochs}.csv"
            result = runner.invoke(cli, [
                "compare", "--methods", "const", "--etas", "0.0",
                "--epochs", epochs, "--seeds", "1", "--out", str(out),
            ])
            assert result.exit_code == 0
            _, rows = _rows(out)
            values.append(rows[0][3])
        assert values[0] == values[1]

    def test_near_optimum_start_beats_reversed_after_one_epoch(self, runner, tmp_path):
        finals = {}
        for start in ("near-opt", "reversed"):
            out = tmp_path / f"{start}.csv"
            result = runner.invoke(cli, [
                "compare", "--methods", "const", "--etas", "1e-3", "--epochs", "1",
                "--seeds", "1", "--start", start, "--out", str(out),
            ])
            assert result.exit_code == 0
            _, rows = _rows(out)
            finals[start] = float(rows[0][3])
        assert finals["near-opt"] < finals["reversed"]

    def test_config_file_supplies_defaults_flags_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "methods=const\n"
            "etas=1e-3\n"
            "epochs=1\n"
            "seeds=1\n"
        )
        out = tmp_path / "cfg.csv"
        result = runner.invoke(cli, [
            "compare", "--config", str(cfg), "--seeds", "2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        _, rows = _rows(out)
        assert len(rows) == 2  # 1 method x 1 eta x 2 seeds (flag wins over file)
        meta = _meta(out)
        assert meta["epochs"] == "1"
        assert meta["seeds"] == "2"

    def test_config_keys_are_flag_names(self, runner, tmp_path):
        # Keys are long flag names, with dashes or underscores.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=logistic\nmethods=const\netas=1e-3\nepochs=1\nseeds=1\nt1-epochs=2\n")
        out = tmp_path / "cfg.csv"
        result = runner.invoke(cli, ["compare", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        meta = _meta(out)
        assert meta["problem"] == "logistic"
        assert meta["t1_epochs"] == "2"

    def test_unknown_config_key_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("methods=const\nepochs=1\nseeds=1\netass=1e-2\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(cli, ["compare", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert "etass" in result.output
        assert not out.exists()
        assert not (tmp_path / "x.csv.meta").exists()

    def test_malformed_config_line_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        result = runner.invoke(cli, [
            "compare", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2

    def test_unknown_method_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "compare", "--methods", "adam", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2
        assert "adam" in result.output

    def test_malformed_etas_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "compare", "--etas", "1e-3,abc", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2

    def test_missing_out_is_usage_error(self, runner):
        assert runner.invoke(cli, ["compare"]).exit_code == 2

    def test_config_threads_beat_env(self, runner, tmp_path):
        # --threads resolves like every option: flag, then config, then 1.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        out = tmp_path / "cfg.csv"
        result = runner.invoke(
            cli,
            ["compare", "--config", str(cfg), "--methods", "const", "--etas", "1e-3",
             "--epochs", "1", "--seeds", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert _meta(out)["threads"] == "2"


class TestRace:
    def test_rows_structure_and_determinism(self, runner, tmp_path):
        out = tmp_path / "race.csv"
        args = ["race", "--reps", "2", "--max-epochs", "3", "--out", str(out)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        header, rows = _rows(out)
        assert header == ["rep", "method", "detection_epoch", "capped"]
        assert [(int(r[0]), r[1]) for r in rows] == [
            (0, "pflug"), (0, "split"), (1, "pflug"), (1, "split"),
        ]
        for r in rows:
            epoch, capped = int(r[2]), r[3]
            assert capped in {"0", "1"}
            assert 1 <= epoch <= 3
            if capped == "1":
                assert epoch == 3
        first = out.read_bytes()
        assert runner.invoke(cli, args).exit_code == 0
        assert out.read_bytes() == first

    def test_split_detection_cannot_precede_first_diagnostic(self, runner, tmp_path):
        out = tmp_path / "race.csv"
        result = runner.invoke(cli, [
            "race", "--reps", "3", "--max-epochs", "8", "--eta-scale", "large",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        _, rows = _rows(out)
        for r in rows:
            if r[1] == "split" and r[3] == "0":
                assert int(r[2]) >= 5  # 4 thread epochs + 1 charged diagnostic epoch
        meta = _meta(out)
        assert meta["eta"] == "0.001"
        assert meta["eta_scale"] == "large"

    def test_divergent_rate_exits_3(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "race", "--eta", "1e6", "--reps", "1", "--max-epochs", "2",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 3
        assert not (tmp_path / "x.csv").exists()

    def test_divergence_names_the_replication(self, tmp_path, capsys):
        # At eta = 0.18 replications 0-3 fire at their first split
        # diagnostic, and replication 4's second one ends on finite threads
        # whose window means overflow from window 4 on.
        with pytest.raises(SystemExit) as exc:
            main([
                "race", "--eta", "0.18", "--reps", "6", "--max-epochs", "6", "--t1-epochs", "1",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 3
        message = "replication 4, split detector: diagnostic coherence 4 of 20 is not finite"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_pflug_divergence_names_the_replication_of_its_row(self, runner, tmp_path,
                                                                monkeypatch):
        # Row r of each detector's lockstep run is replication r.
        def diverge(problem, cfg, thetas0, rngs, max_epochs):
            raise DivergenceError("iterate diverged at step 7", step=7, row=2)

        monkeypatch.setattr(cli_module, "run_pflug_detection", diverge)
        out = tmp_path / "x.csv"
        result = runner.invoke(cli, ["race", "--reps", "3", "--max-epochs", "1", "--out", str(out)])
        err = result.exception
        assert isinstance(err, DivergenceError)
        assert str(err) == "replication 2, pflug detector: iterate diverged at step 7"
        assert (err.step, err.row) == (7, 2)
        assert not out.exists()

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_split_rows_are_the_first_stationary_epochs_of_splitsgd(self, runner, tmp_path,
                                                                     family):
        # Both detectors step on each replication's main stream, from which
        # a `compare` cell's SplitSGD run draws too, so each split row is the
        # epoch of that run's first stationary verdict.
        out = tmp_path / "race.csv"
        result = runner.invoke(cli, [
            "race", "--problem", family, "--eta", "1e-2", "--start", "near-opt", "--reps", "6",
            "--max-epochs", "30", "--t1-epochs", "1", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        problem = build_problem(make_default_spec(family, RngStream(0).fork(DATA_STREAM_CHILD)))
        cfg = SplitSgdConfig(eta=1e-2, t1=problem.spec.n)
        expected = []
        for rep in range(6):
            start, main_stream = _layout_streams(0, rep)
            theta0 = perturbed_start(problem.spec.theta_star, start)
            trace = run_splitsgd(problem, cfg, theta0, main_stream, 30)
            epoch = next((r.epoch for r in trace.records if EVENT_DIAG_S in r.event.split(";")), None)
            expected.append([str(rep), "split", str(epoch or 30), "1" if epoch is None else "0"])
        assert [row for row in _rows(out)[1] if row[1] == "split"] == expected


class TestMc:
    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_rows_are_the_first_diagnostics_of_compare_cells(self, runner, tmp_path,
                                                             monkeypatch, family):
        # With the thread length as burn-in, replication r's row is the
        # window-3 coherence of the first diagnostic that `compare`'s
        # splitsgd cell r runs, bit for bit.
        out = tmp_path / "mc.csv"
        result = runner.invoke(cli, [
            "mc", "--problem", family, "--eta", "1e-3", "--burn-in-epochs", "4", "--window-index", "3",
            "--raw", "--reps", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        diagnostics, run_diagnostic = [], optimizers_module.run_diagnostic

        def record(*args):
            diagnostics.append(run_diagnostic(*args))
            return diagnostics[-1]

        monkeypatch.setattr(optimizers_module, "run_diagnostic", record)
        result = runner.invoke(cli, [
            "compare", "--problem", family, "--methods", "splitsgd", "--etas", "1e-3", "--seeds", "5",
            "--epochs", "5", "--t1-epochs", "4", "--threads", "1", "--out", str(tmp_path / "c.csv"),
        ])
        assert result.exit_code == 0, result.output
        assert len(diagnostics) == 5
        rows = _rows(out)[1]
        assert [int(row[0]) for row in rows] == list(range(5))
        assert [float(row[1]) for row in rows] == [d.coherences[2] for d in diagnostics]

    def test_artifact_and_summary(self, runner, tmp_path):
        out = tmp_path / "mc.csv"
        result = runner.invoke(cli, [
            "mc", "--reps", "10", "--l", "5", "--window-index", "2",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        header, rows = _rows(out)
        assert header == ["replication", "q_value", "normalized"]
        assert len(rows) == 10
        assert all(r[2] == "0" for r in rows)
        meta = _meta(out)
        assert meta["kept"] == "10"
        assert meta["diverged"] == "0"
        assert meta["windows"] == "2"
        for key in ("mean", "sd", "negative_fraction"):
            assert key in meta
        assert "negative_fraction=" in result.output

    def test_normalized_flag_bounds_values(self, runner, tmp_path):
        out = tmp_path / "mcn.csv"
        result = runner.invoke(cli, [
            "mc", "--reps", "8", "--l", "4", "--window-index", "1",
            "--normalized", "--out", str(out),
        ])
        assert result.exit_code == 0
        _, rows = _rows(out)
        assert all(-1.0 <= float(r[1]) <= 1.0 for r in rows)
        assert all(r[2] == "1" for r in rows)

    def test_divergent_diagnostic_is_counted(self, runner, tmp_path):
        # At eta = 1 the diagnostic threads blow up: such replications are
        # counted in `diverged`, quietly, and the command succeeds.
        out = tmp_path / "mcd.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, [
                "mc", "--eta", "1", "--windows", "20", "--window-index", "1",
                "--reps", "50", "--out", str(out),
            ])
        assert result.exit_code == 0, result.output
        assert "Warning" not in result.output
        meta = _meta(out)
        assert int(meta["diverged"]) > 0
        assert int(meta["kept"]) + int(meta["diverged"]) == 50

    def test_divergent_burn_in_is_counted(self, runner, tmp_path):
        # At eta = 1 every replication blows up during its burn-in epoch:
        # all are counted in `diverged`, quietly, and the command succeeds.
        out = tmp_path / "mcb.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, [
                "mc", "--eta", "1", "--burn-in-epochs", "1", "--reps", "20",
                "--window-index", "1", "--l", "5", "--out", str(out),
            ])
        assert result.exit_code == 0, result.output
        assert "Warning" not in result.output
        meta = _meta(out)
        assert (meta["kept"], meta["diverged"]) == ("0", "20")
        assert _rows(out)[1] == []

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        out = tmp_path / "mc.csv"
        args = ["mc", "--reps", "6", "--l", "4", "--out", str(out)]
        assert runner.invoke(cli, args).exit_code == 0
        first = out.read_bytes()
        assert runner.invoke(cli, args).exit_code == 0
        assert out.read_bytes() == first


class TestSensitivity:
    def test_grid_artifact(self, runner, tmp_path):
        out = tmp_path / "sens.csv"
        result = runner.invoke(cli, [
            "sensitivity", "--w-values", "10,20", "--q-values", "0.4",
            "--etas", "1e-3", "--seeds", "1", "--epochs", "1", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        header, rows = _rows(out)
        assert header == ["w", "q", "eta", "seed", "final_log_loss"]
        assert len(rows) == 2
        keys = [(int(r[0]), float(r[1]), float(r[2]), int(r[3])) for r in rows]
        assert keys == sorted(keys)

    def test_cell_is_the_compare_splitsgd_cell(self, runner, tmp_path):
        # A grid cell runs exactly what `compare` runs for SplitSGD with the
        # same w, l = n / w and q: same start stream, draws and schedule.
        shared = ["--etas", "1e-2,1", "--seeds", "2", "--epochs", "3", "--t1-epochs", "1"]
        sens, comp = tmp_path / "sens.csv", tmp_path / "comp.csv"
        result = runner.invoke(cli, [
            "sensitivity", "--w-values", "20", "--q-values", "0.4", *shared, "--out", str(sens),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli, [
            "compare", "--methods", "splitsgd", "--w", "20", "--l", "50", "--q", "0.4",
            *shared, "--out", str(comp),
        ])
        assert result.exit_code == 0, result.output
        _, sens_rows = _rows(sens)
        _, comp_rows = _rows(comp)
        assert len(sens_rows) == 4
        assert [row[2:] for row in sens_rows] == [row[1:] for row in comp_rows]
        assert all(row[:2] == ["20", "0.4"] for row in sens_rows)

    def test_indivisible_w_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "sensitivity", "--w-values", "7", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2


class TestGenData:
    def test_round_trips_the_generator(self, runner, tmp_path):
        out = tmp_path / "data.csv"
        result = runner.invoke(cli, [
            "gen-data", "--n", "30", "--d", "3", "--seed", "9", "--out", str(out),
        ])
        assert result.exit_code == 0
        header, rows = _rows(out)
        assert header == ["x1", "x2", "x3", "y"]
        assert len(rows) == 30
        loaded = np.loadtxt(out, delimiter=",", skiprows=1)
        spec = make_default_spec("linear", RngStream(9).fork(DATA_STREAM_CHILD), n=30, d=3)
        expected = build_problem(spec).dataset
        assert np.array_equal(loaded[:, :-1], expected.features)
        assert np.array_equal(loaded[:, -1], expected.targets)


class TestInputContract:
    @pytest.mark.parametrize("args", [
        ["mc", "--reps", "0"],
        ["race", "--w", "0"],
        ["compare", "--gamma", "1.5"],
        ["gen-data", "--n", "0"],
        ["sensitivity", "--w-values", "0"],
        ["compare", "--epochs", "-1"],
        ["compare", "--etas", "nan"],
        ["compare", "--etas", "inf", "--methods", "const", "--epochs", "1", "--seeds", "1"],
        ["sensitivity", "--etas", "inf", "--w-values", "20", "--q-values", "0.4", "--seeds", "1",
         "--epochs", "1"],
        ["mc", "--eta", "inf", "--reps", "2", "--l", "2"],
        ["race", "--eta", "inf", "--reps", "2", "--max-epochs", "2"],
        ["compare", "--seeds", "0"],
        ["compare", "--seeds", "-1"],
        ["race", "--reps", "0"],
        ["race", "--reps", "-1"],
        ["race", "--gamma", "0.5"],
        ["race", "--threads", "2"],
        ["compare", "--threads", "0"],
        ["sensitivity", "--seeds", "0"],
        ["mc", "--start-noise-sd", "-1"],
        ["mc", "--start-noise-sd", "nan"],
        ["mc", "--start-noise-sd", "1e308", "--reps", "5", "--l", "2"],
        ["mc", "--start-noise-sd", "inf", "--reps", "5", "--l", "2"],
        ["compare", "--noise-sd", "nan"],
        ["race", "--noise-sd", "nan"],
        ["mc", "--noise-sd", "nan"],
        ["sensitivity", "--noise-sd", "nan"],
        ["gen-data", "--noise-sd", "nan"],
        ["compare", "--noise-sd", "inf"],
        ["gen-data", "--noise-sd", "1e308"],
        ["gen-data", "--seed", "-1"],
        ["mc", "--seed", str(2**64)],
        ["sensitivity", "--w-values", "10.5"],
        ["compare", "--etas", ","],
        ["sensitivity", "--w-values", " , "],
    ], ids=" ".join)
    def test_bad_value_is_usage_error(self, runner, tmp_path, recwarn, args):
        out = tmp_path / "x.csv"
        result = runner.invoke(cli, args + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert not out.exists()
        assert not (tmp_path / "x.csv.meta").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--methods", "splitsgd", "--etas", "1e-2,-1"], "eta must be >= 0",
                     id="splitsgd"),
        pytest.param(["--methods", "const,sqrt,half", "--etas", "1e-2,-1"], "eta must be >= 0",
                     id="const,sqrt,half"),
        # Options that no chosen method reads are checked all the same.
        pytest.param(["--methods", "const,half", "--etas", "1e-2", "--epochs", "20", "--seeds", "3",
                      "--t1-epochs", "0"], "t1 must be", id="const,half t1-epochs 0"),
        pytest.param(["--methods", "const", "--etas", "1e-2", "--w", "0"], "w and l must be",
                     id="const w 0"),
        pytest.param(["--methods", "sqrt", "--etas", "1e-2", "--gamma", "1"], "gamma must lie",
                     id="sqrt gamma 1"),
        pytest.param(["--methods", "const", "--etas", "1e-2", "--epochs", "-1"], "--epochs",
                     id="const epochs -1"),
    ])
    def test_compare_rejects_every_eta_before_any_cell(self, runner, tmp_path, monkeypatch, args,
                                                       message):
        def driver(*args):
            raise AssertionError("a cell ran")

        for name in ("run_splitsgd", "run_constant_sgd", "run_sqrt_decay_sgd", "run_sgd_half"):
            monkeypatch.setattr(cli_module, name, driver)
        out = tmp_path / "x.csv"
        result = runner.invoke(cli, ["compare", "--epochs", "1", "--seeds", "1", *args,
                                     "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()
        assert not (tmp_path / "x.csv.meta").exists()

    @staticmethod
    def _forbid_runs(monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("a run started")

        # Every command but qrisk builds its problem first; qrisk computes one value.
        monkeypatch.setattr(cli_module, "_make_problem", run)
        monkeypatch.setattr(cli_module, "type1_error_probability", run)

    @pytest.mark.parametrize("args", [
        ["compare", "--seeds", "1", "--etas", "1e-3", "--epochs", "1", "--out", "{missing}"],
        ["race", "--reps", "1", "--max-epochs", "1", "--out", "{missing}"],
        ["mc", "--reps", "2", "--out", "{missing}"],
        ["sensitivity", "--seeds", "1", "--out", "{missing}"],
        ["gen-data", "--out", "{missing}"],
        ["gen-data", "--out", ""],
        ["gen-data", "--out", "{file}/x.csv"],
        ["qrisk", "--w", "20", "--q", "0.4", "--out", "{missing}"],
        ["qrisk", "--w", "20", "--q", "0.4", "--out", "{file}/x.csv"],
    ], ids=" ".join)
    def test_unwritable_out_exits_2_before_any_run(self, runner, tmp_path, monkeypatch, args):
        # An --out that names no file in an existing directory is rejected
        # while the options are parsed, before any work starts.
        self._forbid_runs(monkeypatch)
        existing = tmp_path / "file.txt"
        existing.write_text("kept\n")
        paths = {"missing": tmp_path / "nodir" / "x.csv", "file": existing}
        result = runner.invoke(cli, [arg.format(**paths) for arg in args])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--out'" in result.output
        assert sorted(tmp_path.iterdir()) == [existing]
        assert existing.read_text() == "kept\n"

    def test_non_utf8_config_is_usage_error(self, runner, tmp_path, monkeypatch):
        self._forbid_runs(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seeds=\xff\xfe\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(cli, ["compare", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "not UTF-8 text" in result.output
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_race_config_gamma_is_usage_error(self, runner, tmp_path):
        # Neither race detector decays its rate, so race takes no gamma.
        cfg = tmp_path / "race.cfg"
        cfg.write_text("reps=1\nmax-epochs=1\ngamma=0.5\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(cli, ["race", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "gamma" in result.output
        assert not out.exists()


class TestSidecar:
    SMALL_RUNS = {
        "compare": ["--methods", "const", "--etas", "1e-3", "--epochs", "1", "--seeds", "1"],
        "race": ["--reps", "1", "--max-epochs", "1"],
        "mc": ["--reps", "3", "--l", "2"],
        "qrisk": ["--w", "20", "--q", "0.4"],
        "sensitivity": ["--w-values", "10", "--q-values", "0.4", "--etas", "1e-3",
                        "--seeds", "1", "--epochs", "1"],
        "gen-data": ["--n", "5", "--d", "2"],
    }
    FIXED = {"artifact", "artifact_version", "schema_version", "command"}
    MC_SUMMARY = {"kept", "diverged", "mean", "sd", "negative_fraction"}

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_records_every_option(self, runner, tmp_path, command):
        out = tmp_path / "out.csv"
        result = runner.invoke(cli, [command, *self.SMALL_RUNS[command], "--out", str(out)])
        assert result.exit_code == 0, result.output
        options = {
            p.name for p in cli.commands[command].params
            if isinstance(p, click.Option) and p.expose_value
        }
        expected = options | self.FIXED | (self.MC_SUMMARY if command == "mc" else set())
        assert set(_meta(out)) == expected

    def test_qrisk_sidecar_bytes(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(cli, ["qrisk", "--w", "20", "--q", "0.4", "--out", "risk.txt"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "risk.txt").read_bytes() == b"0.13158798217773438\n"
        assert (tmp_path / "risk.txt.meta").read_bytes() == (
            b"artifact=splitsgd\nartifact_version=0.5.0\ncommand=qrisk\nout=risk.txt\n"
            b"q=0.4\nschema_version=1\nw=20\n"
        )


class TestEntryPoints:
    def test_version(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0
        assert "splitsgd" in result.output

    def test_short_help_alias(self, runner):
        result = runner.invoke(cli, ["-h"])
        assert result.exit_code == 0
        assert "Usage" in result.output

    def test_import_leaves_process_pool_unloaded(self):
        # Only a command that fans out to worker processes loads the pool.
        src = str(Path(splitsgd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        probe = (
            "import sys, splitsgd.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_main_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
