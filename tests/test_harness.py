import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sinegordon.harness
import sinegordon.linear_solver
import sinegordon.schemes
from sinegordon.harness import (ConfigError, RunConfig, _snapshot_steps,
                                cmd_compare, cmd_converge, cmd_run, main)
from sinegordon.linear_solver import NumericalError
from sinegordon.schemes import TimeGrid

from oracles import peak_fields


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigValidation:
    def test_unknown_scheme(self):
        cfg = RunConfig(problem="ring", scheme="verlet")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="pendulum").validate()

    def test_bad_cadence(self):
        cfg = RunConfig(problem="ring", record_every=0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_tau_must_divide_T(self, tmp_path):
        cfg = RunConfig(problem="double-pole-1d", n1=50, tau=0.3, T=1.0,
                        out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_run(cfg)

    def test_snapshot_matched_to_nearest_step(self):
        # times within tau/2 of a step are matched to it
        cfg = RunConfig(problem="ring", snap_times=(0.305,), tau=0.1, T=1.0)
        steps = _snapshot_steps(cfg, TimeGrid(0.1, 10))
        assert steps == {3: 0.305}

    def test_snapshot_out_of_range_rejected(self):
        cfg = RunConfig(problem="ring", snap_times=(2.0,), tau=0.1, T=1.0)
        with pytest.raises(ConfigError):
            _snapshot_steps(cfg, TimeGrid(0.1, 10))


class TestCmdRun:
    def test_zero_horizon_single_snapshot(self, tmp_path):
        cfg = RunConfig(problem="double-pole-1d", n1=50, tau=0.01, T=0.0,
                        out_dir=str(tmp_path))
        assert cmd_run(cfg) == 0
        energy = read_csv(tmp_path / "energy.csv")
        assert energy[0] == ["t", "e_modified", "e_original", "deviation"]
        assert len(energy) == 2  # header + t=0 record
        fields = sorted(p.name for p in tmp_path.glob("field_*.csv"))
        assert fields == ["field_t0.csv"]

    def test_snapshots_written_at_requested_times(self, tmp_path):
        cfg = RunConfig(problem="double-pole-1d", n1=50, tau=0.01, T=0.1,
                        snap_times=(0.0, 0.05, 0.1), out_dir=str(tmp_path))
        assert cmd_run(cfg) == 0
        names = sorted(p.name for p in tmp_path.glob("field_*.csv"))
        assert names == ["field_t0.05.csv", "field_t0.1.csv", "field_t0.csv"]
        rows = read_csv(tmp_path / "field_t0.csv")
        assert rows[0] == ["x", "y", "value"]
        assert len(rows) == 1 + 50

    def test_meta_echoes_config(self, tmp_path):
        cfg = RunConfig(problem="double-pole-1d", n1=40, tau=0.02, T=0.1,
                        out_dir=str(tmp_path), record_every=2)
        assert cmd_run(cfg) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["command"] == "run"
        for key in ("problem", "scheme", "n1", "n2", "tau", "T", "record_every",
                    "snap_times", "out_dir", "cg_tol", "fp_max", "display"):
            assert key in meta["config"]
        assert meta["config"]["tau"] == 0.02
        assert meta["n_steps"] == 5
        assert "wall_seconds_stepping" in meta

    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = RunConfig(problem="breather", n1=24, tau=0.02, T=0.1,
                            snap_times=(0.0, 0.1), out_dir=str(out))
            assert cmd_run(cfg) == 0
        assert (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()
        assert (out_a / "field_t0.1.csv").read_bytes() == (out_b / "field_t0.1.csv").read_bytes()

    def test_field_csv_matches_csv_writer(self, tmp_path):
        from sinegordon import make_grid
        from sinegordon.harness import write_field_csv
        rng = np.random.default_rng(0)
        # 2D, 1D, and hundreds of nodes in each formatted grid row
        for n1, n2 in ((5, 3), (9, 1), (200, 3)):
            g = make_grid(-1.5, 2.0, 0.0, 0.7, n1=n1, n2=n2)
            # a reversed view, as the display option emits
            values = (rng.normal(size=g.shape) * 1e5)[::-1, ::-1]
            values.flat[:7] = [-0.0, 0.0, 1e-300, 1e300, -5e-324, 1.0 / 3.0, np.nan]
            values.flat[-2:] = [np.inf, -np.inf]
            write_field_csv(tmp_path / "field.csv", g, values)
            with open(tmp_path / "reference.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["x", "y", "value"])
                X, Y = g.meshgrid
                for xv, yv, vv in zip(X.ravel(), Y.ravel(), values.ravel()):
                    w.writerow([repr(float(xv)), repr(float(yv)), repr(float(vv))])
            expected = (tmp_path / "reference.csv").read_bytes()
            assert (tmp_path / "field.csv").read_bytes() == expected, (n1, n2)
            assert expected.count(b"\r\n") == g.num_nodes + 1
            for cell in (b"-0.0", b"1e-300", b"nan", b"inf", b"-inf"):
                assert b"," + cell + b"\r\n" in expected, (n1, n2, cell)

    def test_transform_and_mirror(self, tmp_path):
        base = RunConfig(problem="collide4", n1=20, tau=0.02, T=0.0,
                         out_dir=str(tmp_path / "plain"))
        assert cmd_run(base) == 0
        assert cmd_run(dataclasses.replace(base, display=True, out_dir=str(tmp_path / "tm"))) == 0
        plain = np.array([[float(r[2])] for r in read_csv(tmp_path / "plain" / "field_t0.csv")[1:]])
        tm = np.array([[float(r[2])] for r in read_csv(tmp_path / "tm" / "field_t0.csv")[1:]])
        expected = np.sin(0.5 * plain.reshape(20, 20))[::-1, ::-1].reshape(-1, 1)
        np.testing.assert_allclose(tm, expected, rtol=1e-13)

    def test_snapshot_written_at_the_next_recorder_call(self, tmp_path, monkeypatch):
        # the t = 0 snapshot holds level 0's own u and is written after step
        # 1, not after the run; run looks the regular step up as a global
        real_step = sinegordon.schemes.li_leps_step
        rows_at_step_2 = []

        def step(state, *args, **kwargs):
            if not rows_at_step_2:
                field = tmp_path / "field_t0.csv"
                rows_at_step_2.append(len(read_csv(field)) if field.exists() else None)
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(sinegordon.schemes, "li_leps_step", step)
        cfg = RunConfig(problem="ring", n1=12, tau=0.05, T=0.15, snap_times=(0.0, 0.15),
                        out_dir=str(tmp_path))
        assert cmd_run(cfg) == 0
        assert rows_at_step_2 == [12 * 12 + 1]
        assert len(read_csv(tmp_path / "field_t0.15.csv")) == 12 * 12 + 1

    def test_ring_five_snapshots(self, tmp_path):
        # the production setup emits one field file per requested time
        cfg = RunConfig(problem="ring", n1=24, tau=0.05, T=0.2,
                        snap_times=(0.0, 0.05, 0.1, 0.15, 0.2),
                        out_dir=str(tmp_path))
        assert cmd_run(cfg) == 0
        assert len(list(tmp_path.glob("field_*.csv"))) == 5


class TestCmdConverge:
    def test_two_level_smoke_table(self, tmp_path):
        cfg = RunConfig(problem="double-pole-1d", n1=100, tau=0.02, T=0.2,
                        out_dir=str(tmp_path))
        assert cmd_converge(cfg, levels=2) == 0
        rows = read_csv(tmp_path / "convergence.csv")
        assert rows[0] == ["h", "tau", "l2", "l2_order", "linf", "linf_order",
                           "h1", "h1_order", "cpu_s"]
        assert len(rows) == 3
        assert rows[1][3] == ""  # no order on the first level
        order = float(rows[2][3])
        assert 1.5 < order < 2.5
        h_first, h_second = float(rows[1][0]), float(rows[2][0])
        assert h_first == pytest.approx(2 * h_second, rel=1e-12)

    def test_failure_keeps_finished_levels(self, tmp_path, monkeypatch):
        real_run = sinegordon.harness.run

        def run_failing_on_third_level(problem, grid, *args, **kwargs):
            if grid.n1 > 100:
                raise NumericalError("forced")
            return real_run(problem, grid, *args, **kwargs)

        monkeypatch.setattr(sinegordon.harness, "run", run_failing_on_third_level)
        cfg = RunConfig(problem="double-pole-1d", n1=50, tau=0.02, T=0.1,
                        out_dir=str(tmp_path))
        assert cmd_converge(cfg, levels=3) == 1
        rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 3  # header + the two finished levels
        assert rows[1][3] == ""
        assert 1.5 < float(rows[2][3]) < 2.5
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["failure"] == "level 2: forced"

    def test_rejects_single_level(self, tmp_path):
        cfg = RunConfig(problem="double-pole-1d", n1=50, tau=0.02, T=0.1,
                        out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_converge(cfg, levels=1)

    def test_rejects_zero_horizon(self, tmp_path):
        # at T = 0 every level's error is 0, which has no order
        cfg = RunConfig(problem="double-pole-1d", n1=50, tau=0.02, T=0.0,
                        out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="T > 0"):
            cmd_converge(cfg, levels=2)
        assert not (tmp_path / "out").exists()

    def test_rejects_problem_without_exact(self, tmp_path):
        cfg = RunConfig(problem="ring", n1=20, tau=0.02, T=0.1,
                        out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_converge(cfg, levels=2)


class TestCmdCompare:
    def test_outputs_and_cpu_table(self, tmp_path):
        cfg = RunConfig(problem="double-pole-1d", n1=100, tau=0.02, T=0.2,
                        out_dir=str(tmp_path))
        assert cmd_compare(cfg) == 0
        assert (tmp_path / "energy_li-leps.csv").exists()
        assert (tmp_path / "energy_ep-fds.csv").exists()
        rows = read_csv(tmp_path / "cpu.csv")
        assert rows[0] == ["scheme", "nodes", "wall_seconds"]
        assert {r[0] for r in rows[1:]} == {"li-leps", "ep-fds"}
        assert all(float(r[2]) > 0 for r in rows[1:])
        li = read_csv(tmp_path / "energy_li-leps.csv")
        deviations = [float(r[3]) for r in li[2:]]
        assert max(deviations) <= 1e-10


class TestMainCli:
    def test_run_roundtrip(self, tmp_path):
        rc = main(["run", "--problem", "double-pole-1d", "--scheme", "li-leps",
                   "--n", "50", "--tau", "0.02", "--T", "0.1",
                   "--snap", "0,0.1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "energy.csv").exists()
        assert (tmp_path / "meta.json").exists()

    @pytest.mark.parametrize("command,extra", [("run", ()), ("converge", ("--levels", "2")),
                                               ("compare", ())])
    def test_parsed_defaults_are_run_config_defaults(self, monkeypatch, command, extra):
        seen = []
        monkeypatch.setattr(sinegordon.harness, f"cmd_{command}",
                            lambda cfg, *rest: seen.append(cfg) or 0)
        assert main([command, "--problem", "ring", "--n", "8", "--tau", "0.1",
                     "--T", "0.2", *extra]) == 0
        # and every flag of the command, at a value other than its default,
        # sets its own field
        every = ["--problem", "breather", "--n", "12,10", "--tau", "0.05", "--T", "0.5",
                 "--out", "elsewhere", "--record-every", "3", "--cg-tol", "1e-10",
                 "--fp-max", "7"]
        fields = dict(problem="breather", n1=12, n2=10, tau=0.05, T=0.5, out_dir="elsewhere",
                      record_every=3, cg_tol=1e-10, fp_max=7)
        if command != "compare":
            every += ["--scheme", "ep-fds"]
            fields["scheme"] = "ep-fds"
        if command == "run":
            every += ["--snap", "0,0.25", "--display"]
            fields.update(snap_times=(0.0, 0.25), display=True)
            assert set(fields) == {f.name for f in dataclasses.fields(RunConfig)}
        defaults = RunConfig(problem="ring")
        assert all(getattr(defaults, name) != value for name, value in fields.items())
        assert main([command, *every, *extra]) == 0
        assert seen == [RunConfig(problem="ring", n1=8, tau=0.1, T=0.2), RunConfig(**fields)]

    def test_bad_problem_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--problem", "nope", "--n", "50", "--tau", "0.02",
                   "--T", "0.1", "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_n_exits_2(self, tmp_path):
        rc = main(["run", "--problem", "ring", "--n", "a,b", "--tau", "0.02",
                   "--T", "0.1", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flag", [
        ("--cg-tol", "0"), ("--cg-tol", "inf"), ("--cg-tol", "nan"), ("--T", "inf"),
        ("--tau", "inf"), ("--tau", "0"), ("--T", "-1"), ("--fp-max", "-1"),
        ("--tau", "1e-320"),  # T / tau overflows to inf steps
        ("--n", "8,1"),       # a one-node-wide strip of a 2D problem
    ])
    def test_bad_numeric_flag_exits_2(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        # the bad flag comes last, so it overrides a valid --tau or --T
        rc = main([command, "--problem", "ring", "--n", "8", "--tau", "0.1", "--T", "0.1",
                   "--out", str(out), *flag])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "meta.json").exists()

    @pytest.mark.parametrize("snap", ["nan", "0,inf", "x"])
    def test_bad_snapshot_time_exits_2(self, tmp_path, capsys, snap):
        rc = main(["run", "--problem", "ring", "--n", "8", "--tau", "0.1", "--T", "0.1",
                   "--snap", snap, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tau,snap", [
        ("0.01", "0.1,0.104"),       # one step, two file names
        ("0.01", "0.1,0.1000001"),   # one step, one file name
        ("0.01", "0.1,0.1"),
        ("1e-7", "0.1,0.1000001"),   # two steps, one file name
    ])
    def test_snapshot_times_that_collide_exit_2(self, tmp_path, capsys, tau, snap):
        out = tmp_path / "out"
        rc = main(["run", "--problem", "ring", "--n", "8", "--tau", tau, "--T", "0.2",
                   "--snap", snap, "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "meta.json").exists()

    def test_converge_cli(self, tmp_path):
        rc = main(["converge", "--problem", "double-pole-1d", "--n", "80",
                   "--tau", "0.02", "--T", "0.1", "--levels", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "convergence.csv").exists()

    def test_converge_1d_refines_n1_alone(self, tmp_path):
        # a 1D problem's n2 stays 1 at every level, so --n 40,1 is --n 40
        args = ["converge", "--problem", "double-pole-1d", "--tau", "0.1", "--T", "0.2",
                "--levels", "2"]
        tables = []
        for name, n in (("n1", "40"), ("n1-n2", "40,1")):
            assert main([*args, "--n", n, "--out", str(tmp_path / name)]) == 0
            tables.append([row[:-1] for row in read_csv(tmp_path / name / "convergence.csv")])
        assert len(tables[0]) == 3 and tables[1] == tables[0]  # cpu_s aside

    @pytest.mark.parametrize("command,extra", [
        ("run", ()), ("converge", ("--levels", "2")), ("compare", ()),
    ])
    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_created_exits_2(self, tmp_path, capsys, command, extra, below):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        rc = main([command, "--problem", "double-pole-1d", "--n", "20", "--tau", "0.1",
                   "--T", "0.1", "--out", str(blocker.joinpath(*below)), *extra])
        assert rc == 2
        assert "error: cannot create output directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept"

    def test_compare_cli(self, tmp_path):
        rc = main(["compare", "--problem", "double-pole-1d", "--n", "60",
                   "--tau", "0.02", "--T", "0.1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "cpu.csv").exists()

    def test_2d_grid_flag(self, tmp_path):
        rc = main(["run", "--problem", "collide2", "--n", "40,28", "--tau", "0.05",
                   "--T", "0.05", "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["config"]["n1"] == 40
        assert meta["config"]["n2"] == 28

    def test_numerical_failure_exits_1_and_flushes(self, tmp_path, capsys):
        # fp_max=0 makes the implicit solve fail immediately after the first
        # recorded level; the partial energy trace must still be written
        rc = main(["run", "--problem", "ring", "--scheme", "ep-fds", "--n", "20",
                   "--tau", "0.05", "--T", "0.5", "--fp-max", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        energy = read_csv(tmp_path / "energy.csv")
        assert len(energy) == 2  # header + t=0 record
        # the t = 0 snapshot, still pending when step 1 failed
        assert len(read_csv(tmp_path / "field_t0.csv")) == 20 * 20 + 1
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["failure"] == ("step 1, t=0.05: fixed-point iteration did not "
                                   "converge within 0 sweeps")

    def test_converge_failure_exits_1_and_flushes(self, tmp_path, capsys):
        # ep-fds with fp_max=0 fails on the first level, so the table has no rows
        rc = main(["converge", "--problem", "double-pole-1d", "--scheme", "ep-fds",
                   "--n", "40", "--tau", "0.05", "--T", "0.5", "--levels", "2",
                   "--fp-max", "0", "--out", str(tmp_path)])
        assert rc == 1
        rows = read_csv(tmp_path / "convergence.csv")
        assert rows == [["h", "tau", "l2", "l2_order", "linf", "linf_order",
                         "h1", "h1_order", "cpu_s"]]
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["failure"].startswith("level 0: step 1, t=0.05: ")
        assert "numerical failure: level 0: " in capsys.readouterr().err

    def test_compare_failure_exits_1_and_flushes(self, tmp_path):
        # li-leps takes no fixed-point sweeps and finishes; ep-fds fails at its
        # first step, after recording t=0
        rc = main(["compare", "--problem", "ring", "--n", "20", "--tau", "0.05",
                   "--T", "0.5", "--fp-max", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert len(read_csv(tmp_path / "energy_li-leps.csv")) == 1 + 11
        assert len(read_csv(tmp_path / "energy_ep-fds.csv")) == 2
        cpu = read_csv(tmp_path / "cpu.csv")
        assert [r[0] for r in cpu[1:]] == ["li-leps"]
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["failure"].startswith("ep-fds: step 1, t=0.05: ")
        assert list(meta["solver"]) == ["li-leps"]


class TestPreconditionerReported:
    def test_run_meta_names_the_preconditioner(self, tmp_path):
        # tau/h 0.57 on ring 16²: above the spectral threshold
        rc = main(["run", "--problem", "ring", "--n", "16", "--tau", "1", "--T", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["preconditioner"] == "spectral"

    def test_compare_meta_names_each_scheme_preconditioner(self, tmp_path):
        rc = main(["compare", "--problem", "double-pole-1d", "--n", "60",
                   "--tau", "0.02", "--T", "0.1", "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert {s: v["preconditioner"] for s, v in meta["solver"].items()} == {
            "li-leps": "jacobi", "ep-fds": "jacobi"}

    def test_jacobi_runs_never_import_numpy_fft(self, tmp_path):
        # numpy.fft and its plans would add resident memory to every Jacobi run
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        script = (
            "import sys\n"
            "from sinegordon.harness import main\n"
            "assert main(['run', '--problem', 'ring', '--n', '16', '--tau', '0.01',\n"
            "             '--T', '0.05', '--out', sys.argv[1]]) == 0\n"
            "print('numpy.fft' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["preconditioner"] == "jacobi"


def test_compare_records_the_solver_stats_of_run(tmp_path):
    args = ["--problem", "double-pole-1d", "--n", "60", "--tau", "0.02", "--T", "0.1"]
    stats = {}
    for scheme in ("li-leps", "ep-fds"):
        out = tmp_path / scheme
        assert main(["run", *args, "--scheme", scheme, "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        stats[scheme] = {key: meta[key] for key in ("cg_iterations", "cg_iterations_max",
                                                    "fp_sweeps", "preconditioner")}
    assert main(["compare", *args, "--out", str(tmp_path / "compare")]) == 0
    solver = json.loads((tmp_path / "compare" / "meta.json").read_text())["solver"]
    for scheme, expected in stats.items():
        assert solver[scheme].pop("wall_seconds_stepping") > 0
        assert solver[scheme] == expected


def test_repeated_compare_is_byte_identical(tmp_path):
    # 120^2 nodes: OpenBLAS splits dots of more than 10,000 nodes across its
    # threads, so this pins repeatability at any fixed BLAS thread count
    args = ["compare", "--problem", "ring", "--n", "120", "--tau", "0.02", "--T", "0.4"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main([*args, "--out", str(out)]) == 0
    for scheme in ("li-leps", "ep-fds"):
        name = f"energy_{scheme}.csv"
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    solver = [json.loads((out / "meta.json").read_text())["solver"] for out in runs]
    for stats in solver:
        for scheme_stats in stats.values():
            del scheme_stats["wall_seconds_stepping"]
    assert solver[0] == solver[1]
    assert solver[0]["ep-fds"]["fp_sweeps"] > 0


def test_repeated_run_with_snapshots_is_byte_identical(tmp_path):
    # 120^2 nodes, so the BLAS dots split across threads, at tau/h 1.29, so
    # ep-fds' sweeps are direct spectral solves; the snapshots are written
    # inside the stepping loop
    args = ["run", "--problem", "ring", "--n", "120", "--scheme", "ep-fds",
            "--tau", "0.3", "--T", "0.9", "--snap", "0,0.9"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main([*args, "--out", str(out)]) == 0
    names = sorted(p.name for p in runs[0].glob("*.csv"))
    assert names == ["energy.csv", "field_t0.9.csv", "field_t0.csv"]
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    keys = ("cg_iterations", "cg_iterations_max", "fp_sweeps", "preconditioner")
    counts = [{key: json.loads((out / "meta.json").read_text())[key] for key in keys}
              for out in runs]
    assert counts[0] == counts[1]
    assert counts[0]["preconditioner"] == "spectral"


def test_every_csv_is_in_the_csv_module_dialect(tmp_path):
    # csv.writer, fed the cells csv.reader reads back, writes the same bytes:
    # no cell of any command's CSV needed quoting
    common = ["--n", "16", "--tau", "0.05", "--T", "0.1"]
    commands = {
        "run": ["run", "--problem", "line-kink-2d", "--scheme", "ep-fds", *common,
                "--snap", "0,0.1"],
        "converge": ["converge", "--problem", "double-pole-1d", *common, "--levels", "2"],
        "compare": ["compare", "--problem", "ring", *common],
    }
    names = []
    for name, args in commands.items():
        assert main([*args, "--out", str(tmp_path / name)]) == 0
        names += sorted(p.relative_to(tmp_path) for p in (tmp_path / name).glob("*.csv"))
    assert {p.name for p in names} >= {"energy.csv", "convergence.csv", "cpu.csv",
                                       "energy_li-leps.csv", "energy_ep-fds.csv",
                                       "field_t0.csv", "field_t0.1.csv"}
    for name in names:
        with open(tmp_path / "rewritten.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(read_csv(tmp_path / name))
        assert (tmp_path / "rewritten.csv").read_bytes() == (tmp_path / name).read_bytes(), name


class TestMemoryModel:
    """Traced peaks of whole commands on ring 128², in float fields of the grid.

    A step holds one old level (``u``, ``v``, ``r``, and li-leps' ``u_prev``),
    one new level and one set of solver work fields; no command keeps a
    finished run while the next one steps, and ``run`` holds a snapshot as
    its level's own ``u``.  Each bound is about half a field above the
    measured peak.  The solver caches are cleared first, so each peak counts
    them, whatever ran before.
    """

    @staticmethod
    def peak(tmp_path, *args):
        import numpy.fft  # noqa: F401  (loaded lazily by spectral runs; not a field)

        def command(n):
            assert main([*args, "--problem", "ring", "--n", str(n),
                         "--out", str(tmp_path)]) == 0

        command(16)  # loads what the command imports on first use
        sinegordon.linear_solver._workspace.cache_clear()
        sinegordon.linear_solver._spectral.cache_clear()
        sinegordon.schemes._sweep_fields.cache_clear()
        return peak_fields(lambda: command(128), (128, 128))

    def test_compare_frees_each_run_before_the_next(self, tmp_path):
        # 13.4 fields; 14.5 while ep-fds levels kept u_prev and run copied
        # its t = 0 snapshot, 19.4 while li-leps' final level outlived its run
        assert self.peak(tmp_path, "compare", "--tau", "0.015", "--T", "0.15") <= 13.8

    # Measured peaks (and while ep-fds levels kept u_prev, its sweeps a
    # spare quotient field and `run` a copy of its t = 0 snapshot): li-leps
    # 13.4 (14.4) and ep-fds 12.5 (15.5) on Jacobi, li-leps 13.0 (14.0) and
    # ep-fds 13.9 (16.0) on the spectral path.
    @pytest.mark.parametrize("scheme,tau,T,bound", [
        ("li-leps", "0.015", "0.15", 13.9), ("ep-fds", "0.015", "0.15", 13.0),
        ("li-leps", "0.3", "0.9", 13.5), ("ep-fds", "0.3", "0.9", 14.3),
    ], ids=["li-leps-jacobi", "ep-fds-jacobi", "li-leps-spectral", "ep-fds-spectral"])
    def test_run_peak(self, tmp_path, scheme, tau, T, bound):
        assert self.peak(tmp_path, "run", "--scheme", scheme, "--tau", tau, "--T", T) <= bound
