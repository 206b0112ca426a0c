"""Experiment drivers and the command line front end."""

import concurrent.futures
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obflow.experiments
from obflow.cli import main
from obflow.config import ConfigError, validate_config
from obflow.experiments import (
    linear_verify,
    load_snapshot_series,
    run_members,
    run_single,
    sweep_viscosity,
)
from obflow.linear import decay_envelope, dispersion_csv
from obflow.model import make_initial_data

SMALL_RUN = {
    "grid": {"d": 2, "n": 16},
    "model": {"eta": 1.0, "beta": 0.5, "b": 0.5},
    "stepper": {"dt": 0.01, "t_end": 0.3},
    "diagnostics": {"cadence_steps": 5},
    "initial_data": {"recipe": "random-band", "epsilon": 0.01, "seed": 3},
    "output": {"snapshot_cadence_steps": 10},
}

LINEAR_RUN = {
    "grid": {"d": 2, "n": 16},
    "model": {"eta": 2.0, "beta": 1.0,
              "toggles": {"advection": False, "q_term": False}},
    "stepper": {"dt": 1e-3, "t_end": 1.0},
    "diagnostics": {"cadence_steps": 100},
    "initial_data": {"recipe": "single-mode", "epsilon": 0.01,
                     "mode": [0, 1]},
}

BLOWUP_RUN = {
    "grid": {"d": 2, "n": 32},
    "model": {"eta": 0.5, "beta": 0.75, "b": 0.5},
    "stepper": {"dt": 0.5, "t_end": 50.0},
    "initial_data": {"recipe": "random-band", "epsilon": 20.0, "seed": 3},
}


def cfg_of(raw):
    cfg, _ = validate_config(raw)
    return cfg


class TestRunSingle:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        result = run_single(cfg_of(SMALL_RUN), out)
        assert (out / "diagnostics.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "config.json").exists()
        snaps = sorted((out / "snapshots").iterdir())
        # steps 0, 10, 20, 30 at cadence 10 over 30 steps
        assert [p.name for p in snaps] == [
            f"snap_{i:08d}.obsf" for i in (0, 10, 20, 30)]
        assert not result.blew_up
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 30
        assert summary["t_final"] == pytest.approx(0.3)
        assert summary["blow_up"] is None
        assert summary["checks"]["lyapunov_equivalence"] is True
        assert summary["lyapunov_violations"] == 0
        assert len(summary["snapshots"]) == 4
        # 7 records (cadence 5), whose Tendencies serve 6 steps' first stage
        assert summary["counts"]["records"] == 7
        assert summary["counts"]["evaluations"] == 4 * 30 - 6 + 7

    def test_record_stream_matches_cadence(self, tmp_path):
        result = run_single(cfg_of(SMALL_RUN), tmp_path / "r")
        times = [r.t for r in result.records]
        assert times == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3])

    @pytest.mark.parametrize("band, whole", [([1, 8], True), ([1, 4], False)])
    def test_summary_counts_whole_table_records(self, band, whole):
        """A band past kc = 6 runs every record on the whole table, one
        inside the 2/3 box none."""
        result = run_single(cfg_of(dict(
            SMALL_RUN, stepper={"dt": 0.01, "t_end": 0.05},
            diagnostics={"cadence_steps": 1},
            initial_data=dict(SMALL_RUN["initial_data"], band=band))))
        count = result.summary["record_count"]
        assert count == 6
        assert result.summary["whole_table_records"] == (count if whole else 0)

    @pytest.mark.parametrize("n, bound", [(128, "wave"), (64, "cap")])
    def test_summary_names_the_bound_of_each_dt(self, n, bound):
        """With auto dt and band [1, 4] data the advective bound never
        binds: at 2D n=128 the wave bound 0.4 sqrt(2) / 64 = 0.00884, below
        the cap of 0.01, sets every step but the last, which lands on
        t_end; at n=64 the wave bound is 0.0177, and the cap sets them."""
        result = run_single(cfg_of(dict(
            SMALL_RUN, grid={"d": 2, "n": n},
            stepper={"dt": "auto", "t_end": 0.045},
            initial_data=dict(SMALL_RUN["initial_data"], band=[1, 4]))))
        summary = result.summary
        dt = {"wave": 0.4 * math.sqrt(2.0) / (n // 2), "cap": 0.01}[bound]
        steps = summary["steps"]
        assert steps == math.ceil(0.045 / dt)
        assert summary["dt_set_by"] == {
            "advective": 0, "wave": 0, "cap": 0, "fixed": 0,
            bound: steps - 1, "t_end": 1}
        assert summary["dt_max"] == dt
        assert summary["dt_min"] == pytest.approx(0.045 - (steps - 1) * dt)

    def test_summary_counts_fixed_steps(self):
        """A fixed dt sets every full step; the remainder lands on t_end."""
        summary = run_single(cfg_of(dict(
            SMALL_RUN, stepper={"dt": 0.01, "t_end": 0.055}))).summary
        assert summary["steps"] == 6
        assert summary["dt_set_by"] == {
            "advective": 0, "wave": 0, "cap": 0, "fixed": 5, "t_end": 1}
        assert summary["dt_max"] == 0.01
        assert summary["dt_min"] == pytest.approx(0.005)

    # (config, box table, SupportTable.batched), each run with a record
    # and a snapshot every step
    RERUNS = {
        "small-run": (SMALL_RUN, True, True),
        # 3D data inside the 2/3 box (|k| <= 3 < n/3): the box table, and
        # the largest 3D grid whose stacks are inverted whole
        "3d-12-box": ({"grid": {"d": 3, "n": 12},
                       "initial_data": {"band": [1, 3]},
                       "stepper": {"t_end": 0.05}}, True, True),
        # data outside it (|k| <= 8, kc = 6): the whole table in both
        # dimensions; only the scan picks a table, as to_physical always
        # inverts on the whole one
        "2d-16-whole": ({"grid": {"n": 16}, "initial_data": {"band": [1, 8]},
                         "stepper": {"t_end": 0.05}}, False, True),
        "3d-16-whole": ({"grid": {"d": 3, "n": 16},
                         "initial_data": {"band": [1, 8]},
                         "stepper": {"t_end": 0.05}}, False, False),
        # one group per call into new arrays; at 2D n=128 a record inverts
        # tau's values alone
        "3d-32-box": ({"grid": {"d": 3, "n": 32},
                       "stepper": {"dt": 0.01, "t_end": 0.03}}, True, False),
        "2d-128-box": ({"grid": {"n": 128},
                        "stepper": {"dt": 0.005, "t_end": 0.015}},
                       True, False),
        # advection and Q off: no kernel evaluation inverts u, so each
        # step's CFL bound falls back to cfl_dt's own inverse
        "linear-auto-dt": ({"grid": {"n": 16},
                            "stepper": {"dt": "auto", "t_end": 0.05},
                            "model": {"toggles": {"advection": False,
                                                  "q_term": False}}},
                           True, True),
    }

    @pytest.mark.parametrize("name", RERUNS)
    def test_byte_identical_reruns(self, tmp_path, name):
        """Two runs of one config through the command line write the same
        tree, byte for byte, on either table and either inversion plan."""
        raw, boxed, batched = self.RERUNS[name]
        raw = dict(raw, diagnostics={"cadence_steps": 1},
                   output={"snapshot_cadence_steps": 1})
        cfg = cfg_of(raw)
        table = obflow.model._state_table(make_initial_data(
            cfg.grid, s=cfg.diagnostics.resolve_s(cfg.grid),
            **dataclasses.asdict(cfg.initial_data)))
        assert (table.boxed, table.batched) == (boxed, batched)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        trees = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["run", "--config", str(path),
                         "--output", str(out)]) == 0
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert trees[0] == trees[1]
        assert {"config.json", "diagnostics.csv", "summary.json"} <= {
            str(p) for p in trees[0]}

    def test_blow_up_recorded_not_raised(self, tmp_path):
        out = tmp_path / "boom"
        result = run_single(cfg_of(BLOWUP_RUN), out)
        assert result.blew_up
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blow_up"] is not None
        assert summary["blow_up"]["step"] > 0
        assert summary["blow_up"]["field"] in (
            "u[0]", "u[1]", "tau[0,0]", "tau[0,1]", "tau[1,1]")
        # the steps taken, the one that blew up among them
        assert summary["dt_set_by"]["fixed"] == summary["blow_up"]["step"]
        assert summary["dt_min"] == summary["dt_max"] == 0.5
        assert (out / "diagnostics.csv").exists()

    def test_failed_initial_data_leaves_no_snapshot_directory(self, tmp_path):
        """A directory is made when its first file lands, so a config whose
        initial data cannot be built leaves neither the run directory nor
        its snapshot directory behind."""
        cfg = cfg_of(SMALL_RUN)
        # a band past n/2 that bypassed validate_config
        cfg = dataclasses.replace(cfg, initial_data=dataclasses.replace(
            cfg.initial_data, band=(1, 12)))
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="band"):
            run_single(cfg, out)
        assert not out.exists()

    def test_snapshot_series_round_trip(self, tmp_path):
        out = tmp_path / "run"
        run_single(cfg_of(SMALL_RUN), out)
        series = load_snapshot_series(out)
        assert [t for t, _ in series] == pytest.approx([0.0, 0.1, 0.2, 0.3])
        # d=2: 2 velocity + 3 stress components
        assert series[0][1].shape == (5, 16, 16)
        assert np.all(np.isfinite(series[-1][1]))

    def test_imports_no_process_pool(self):
        """Only a sweep with threads > 1 imports the process pool, with
        multiprocessing and socket behind it; a fresh process that imports
        obflow and runs one config has none of them."""
        src = Path(obflow.experiments.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "import obflow\n"
            "from obflow.config import validate_config\n"
            "from obflow.experiments import run_single\n"
            f"cfg, _ = validate_config({SMALL_RUN!r})\n"
            "run_single(cfg)\n"
            "print('concurrent.futures.process' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestRunMembers:
    def members(self, root):
        """Three short n=16 runs that differ in seed; the last writes no
        files."""
        out = []
        for seed, name in ((3, "a"), (4, "b"), (5, None)):
            raw = json.loads(json.dumps(SMALL_RUN))
            raw["stepper"]["t_end"] = 0.1
            raw["initial_data"]["seed"] = seed
            out.append((cfg_of(raw), None if name is None else root / name))
        return out

    def test_worker_count_does_not_change_summaries_or_bytes(self, tmp_path):
        one = run_members(self.members(tmp_path / "t1"), threads=1)
        two = run_members(self.members(tmp_path / "t2"), threads=2)
        assert one == two
        assert [s["config"]["initial_data"]["seed"] for s in one] == [3, 4, 5]
        files = sorted(p.relative_to(tmp_path / "t1")
                       for p in (tmp_path / "t1").rglob("*") if p.is_file())
        assert Path("a/diagnostics.csv") in files
        assert Path("b/snapshots/snap_00000010.obsf") in files
        assert files == sorted(p.relative_to(tmp_path / "t2")
                               for p in (tmp_path / "t2").rglob("*")
                               if p.is_file())
        for name in files:
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t2" / name).read_bytes()

    def test_zero_threads_is_rejected_before_any_member_runs(self, tmp_path):
        with pytest.raises(ConfigError, match="threads must be >= 1, got 0"):
            run_members(self.members(tmp_path / "m"), threads=0)
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("threads, workers", [(2, 2), (64, 3)])
    def test_pool_has_no_more_workers_than_members(self, tmp_path,
                                                   monkeypatch, threads,
                                                   workers):
        """A process pool forks all its workers at once, so a thread count
        above the number of runs is cut to it; the pool is replaced by one
        that runs in this process."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_members imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        summaries = run_members(self.members(tmp_path), threads=threads)
        assert sizes == [workers]
        assert len(summaries) == 3


class TestLinearVerify:
    def test_toggles_off_hits_oracle(self, tmp_path):
        report = linear_verify(cfg_of(LINEAR_RUN), tmp_path / "lv")
        assert report.linear_toggles
        assert report.max_deviation < 1e-10
        assert report.checks == {"oracle_agreement": True}
        payload = json.loads((tmp_path / "lv" / "linear_verify.json").read_text())
        assert payload["max_deviation"] == report.max_deviation
        lines = (tmp_path / "lv" / "linear_verify.csv").read_text().splitlines()
        assert lines[0] == "t,deviation"
        assert len(lines) == len(report.times) + 1

    def test_full_physics_deviation_quadratic_in_amplitude(self):
        """With the nonlinear terms on, deviation/eps^2 stays O(1) while
        deviation/eps shrinks with eps, pinning the quadratic scaling."""
        ratios = {}
        for eps in (1e-2, 5e-3):
            raw = json.loads(json.dumps(LINEAR_RUN))
            raw["model"]["toggles"] = {}
            raw["model"]["b"] = 0.5
            raw["initial_data"]["epsilon"] = eps
            report = linear_verify(cfg_of(raw))
            assert not report.linear_toggles
            assert report.checks == {}
            ratios[eps] = report.max_deviation / eps ** 2
        ratio = ratios[1e-2] / ratios[5e-3]
        assert 0.4 <= ratio <= 2.5

    def test_requires_single_mode_recipe(self):
        with pytest.raises(ConfigError):
            linear_verify(cfg_of(SMALL_RUN))

    @pytest.mark.parametrize("model", [
        {"a": 0.5}, {"nu": 0.1}, {"eta": 0.0},
        {"nu": 0.1, "alpha": 0.5, "a": 0.5, "eta": 0.0}])
    def test_oracle_covers_viscosity_damping_and_toggles(self, model):
        """The closed form uses eta, nu and a, so the linear run agrees
        with it whichever dissipation terms are on (eta = 0 included)."""
        raw = json.loads(json.dumps(LINEAR_RUN))
        raw["stepper"] = {"dt": 0.01, "t_end": 1.0}
        raw["diagnostics"]["cadence_steps"] = 10
        raw["model"].update(model)
        report = linear_verify(cfg_of(raw))
        assert report.max_deviation < 1e-10
        assert report.checks == {"oracle_agreement": True}

    def test_decoupled_system_is_rejected(self):
        raw = json.loads(json.dumps(LINEAR_RUN))
        raw["model"]["toggles"]["coupling"] = False
        with pytest.raises(ConfigError, match="model.toggles.coupling"):
            linear_verify(cfg_of(raw))


class TestSweep:
    def base(self, t_end=0.5):
        raw = json.loads(json.dumps(SMALL_RUN))
        raw["stepper"]["t_end"] = t_end
        raw["initial_data"]["epsilon"] = 0.1
        raw["output"]["snapshot_cadence_steps"] = 25
        return cfg_of(raw)

    def test_validation(self, tmp_path):
        cfg = self.base()
        with pytest.raises(ConfigError):
            sweep_viscosity(cfg, [1e-2, 1e-3], tmp_path)
        with pytest.raises(ConfigError):
            sweep_viscosity(cfg, [1e-2, 5e-3, 2e-3], tmp_path)
        with pytest.raises(ConfigError):
            sweep_viscosity(cfg, [1e-2, 1e-3, 0.0], tmp_path)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="positive and finite"):
                sweep_viscosity(cfg, [1e-2, 1e-4, bad], tmp_path)
        raw = json.loads(json.dumps(SMALL_RUN))
        raw["stepper"]["dt"] = "auto"
        with pytest.raises(ConfigError):
            sweep_viscosity(cfg_of(raw), [1e-2, 1e-3, 1e-4], tmp_path)

    @pytest.mark.parametrize("band, threads, message", [
        pytest.param((1.1, 0.9), 1, "slope_band", id="reversed-band"),
        pytest.param((float("nan"), 2.0), 1, "slope_band", id="nan-band"),
        pytest.param((0.9, float("inf")), 1, "slope_band", id="inf-band"),
        pytest.param((0.9, 1.1), 0, "threads", id="no-threads")])
    def test_bad_slope_band_or_threads_is_rejected(self, tmp_path, band,
                                                   threads, message):
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match=message):
            sweep_viscosity(self.base(), [1e-2, 1e-3, 1e-4], out,
                            threads=threads, slope_band=band)
        assert not out.exists()

    @pytest.mark.parametrize("nus", [[1e-2, 1e-3, 1.0001e-3, 1e-4],
                                     [1e-2, 1e-3, 1e-3, 1e-4]])
    def test_members_sharing_a_directory_are_rejected(self, tmp_path, nus):
        """Members are stored as nu_{nu:.3e}; two viscosities that print
        alike would overwrite each other's runs, so no member may run."""
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="nu_1.000e-03"):
            sweep_viscosity(self.base(), nus, out)
        assert not out.exists()

    def test_slope_near_one(self, tmp_path):
        """The discrete trajectory map is smooth in nu, so the distance to
        the nu = 0 baseline scales linearly for small nu."""
        result = sweep_viscosity(self.base(), [1e-2, 1e-3, 1e-4],
                                 tmp_path / "sweep")
        assert not result.blew_up
        assert 0.8 <= result.slope <= 1.2
        assert result.checks["slope_in_band"]
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        assert (tmp_path / "sweep" / "sweep_summary.json").exists()
        assert (tmp_path / "sweep" / "nu_0" / "diagnostics.csv").exists()
        # distances shrink with nu
        assert result.distances[0] > result.distances[1] > result.distances[2]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a = sweep_viscosity(self.base(0.2), [1e-2, 1e-3, 1e-4],
                            tmp_path / "s1", threads=1)
        b = sweep_viscosity(self.base(0.2), [1e-2, 1e-3, 1e-4],
                            tmp_path / "s2", threads=3)
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
            (tmp_path / "s2" / "sweep.csv").read_bytes()
        for member in ("nu_0", "nu_1.000e-02", "nu_1.000e-04"):
            assert (tmp_path / "s1" / member / "diagnostics.csv").read_bytes() \
                == (tmp_path / "s2" / member / "diagnostics.csv").read_bytes()
        assert a.slope == b.slope


class TestCli:
    def write_config(self, tmp_path, raw, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return path

    def test_check_config_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["check-config", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out

    def test_check_config_rejects_unknown_key(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"grid": {"d": 2, "n": 16},
                                            "solver": {}})
        assert main(["check-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown key" in err

    def test_check_config_rejects_non_finite_override(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["check-config", "--config", str(path),
                     "--override", "model.eta=NaN"]) == 2
        captured = capsys.readouterr()
        assert "model.eta must be finite" in captured.err
        assert "config ok" not in captured.out

    def test_check_config_rejects_a_huge_exponent(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["check-config", "--config", str(path),
                     "--override", "model.alpha=200"]) == 2
        captured = capsys.readouterr()
        assert "model.alpha must lie in [0, 16]" in captured.err
        assert "config ok" not in captured.out

    @pytest.mark.parametrize("raw, message", [
        ([1, 2], "config root must be an object, got list"),
        ({"model": 3}, "model must be an object, got 3"),
        ({"model": None}, "model must be an object, got None"),
        ({"stepper": {"scheme": "if-rk4"}}, "unknown key stepper.scheme"),
    ], ids=["root-list", "section-number", "section-null", "retired-key"])
    def test_check_config_names_the_bad_value(self, tmp_path, capsys, raw,
                                              message):
        """An override neither crashes on nor replaces a value that is not
        an object, and a retired key is unknown."""
        path = self.write_config(tmp_path, raw)
        assert main(["check-config", "--config", str(path),
                     "--override", "model.eta=2"]) == 2
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert "config ok" not in captured.out

    @pytest.mark.parametrize("key", ["nu_dissipation", "damping",
                                     "eta_dissipation"])
    @pytest.mark.parametrize("command", ["check-config", "sweep-nu"])
    def test_retired_dissipation_toggle_is_unknown(self, tmp_path, capsys,
                                                   command, key):
        """nu = 0, a = 0 and eta = 0 are the only off switches of their
        terms, so a toggle for any is a config error, not a sweep of equal
        runs."""
        self.assert_unknown_toggle(tmp_path, capsys, command, key)

    @pytest.mark.parametrize("key", ["advection_u", "advection_tau",
                                     "stress_divergence", "strain_source"])
    @pytest.mark.parametrize("command", ["check-config", "sweep-nu"])
    def test_retired_one_sided_toggle_is_unknown(self, tmp_path, capsys,
                                                 command, key):
        """Transport and the coupling are one toggle each (advection,
        coupling), so a switch for one equation's half is a config error."""
        self.assert_unknown_toggle(tmp_path, capsys, command, key)

    def assert_unknown_toggle(self, tmp_path, capsys, command, key):
        """command with model.toggles.<key>=false exits 2, names the key
        and makes no member directory."""
        path = self.write_config(tmp_path, SMALL_RUN)
        args = [command, "--config", str(path),
                "--override", f"model.toggles.{key}=false"]
        if command == "sweep-nu":
            args += ["--output", str(tmp_path / "sw"), "--nu", "1e-2",
                     "--nu", "1e-3", "--nu", "1e-4"]
        assert main(args) == 2
        assert f"unknown key model.toggles.{key}" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_run_writes_and_exits_zero(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_run_names_every_file_it_writes(self, tmp_path, capsys):
        """One wrote line per file, and one for the snapshot directory, in
        the order they were written."""
        path = self.write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output", str(out)]) == 0
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == [f"wrote {out / name}" for name in (
            "snapshots", "diagnostics.csv", "summary.json", "config.json")]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            line.rsplit("/", 1)[1] for line in wrote)

    def test_run_blow_up_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, BLOWUP_RUN)
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "b")]) == 3
        field = json.loads(
            (tmp_path / "b" / "summary.json").read_text())["blow_up"]["field"]
        assert f"{field} non-finite" in capsys.readouterr().err

    def test_run_override_changes_config_echo(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output", str(out),
                     "--override", "model.eta=2.5"]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["model"]["eta"] == 2.5

    def test_linear_verify_exit_zero(self, tmp_path):
        path = self.write_config(tmp_path, LINEAR_RUN)
        out = tmp_path / "lv"
        assert main(["linear-verify", "--config", str(path),
                     "--output", str(out)]) == 0
        assert (out / "linear_verify.json").exists()

    def test_linear_verify_names_every_file_it_writes(self, tmp_path,
                                                      capsys):
        path = self.write_config(tmp_path, LINEAR_RUN)
        out = tmp_path / "lv"
        assert main(["linear-verify", "--config", str(path),
                     "--output", str(out)]) == 0
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == [f"wrote {out / name}" for name in (
            "linear_verify.json", "linear_verify.csv")]
        assert sorted(p.name for p in out.iterdir()) == [
            "linear_verify.csv", "linear_verify.json"]

    def test_linear_verify_oracle_failure_exits_4(self, tmp_path, capsys):
        """At dt 0.5 the integrator error of the linear run (about 2e-7)
        is far above the oracle tolerance."""
        path = self.write_config(tmp_path, LINEAR_RUN)
        out = tmp_path / "lv"
        assert main(["linear-verify", "--config", str(path),
                     "--output", str(out), "--override", "stepper.dt=0.5",
                     "--override", "stepper.t_end=2"]) == 4
        assert capsys.readouterr().err == "check failed: oracle_agreement\n"
        report = json.loads((out / "linear_verify.json").read_text())
        assert report["checks"] == {"oracle_agreement": False}

    def test_linear_verify_blow_up_exits_3_and_writes_nothing(self, tmp_path,
                                                              capsys):
        """linear_verify raises the blow-up, which main reports with the
        text of a run's blow-up; nothing was written, so no directory."""
        raw = {"grid": {"d": 2, "n": 16},
               "model": {"eta": 0.01, "beta": 0.5, "b": 1.0},
               "stepper": {"dt": 0.2, "t_end": 4.0},
               "diagnostics": {"cadence_steps": 1},
               "initial_data": {"recipe": "single-mode", "epsilon": 500.0,
                                "mode": [1, 1]}}
        path = self.write_config(tmp_path, raw)
        out = tmp_path / "lv"
        assert main(["linear-verify", "--config", str(path),
                     "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "blow-up at t=1 (step 6, u[0] non-finite)\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("beta, code", [(0.0, 4), (0.5, 0)])
    def test_run_checks_the_lyapunov_equivalence(self, tmp_path, capsys,
                                                 beta, code):
        """The mode-by-mode Lyapunov equivalence holds for beta >= 1/2 and
        fails below it: at beta = 0 six records violate it, and run
        prints the beta warning and exits 4."""
        raw = {"grid": {"d": 2, "n": 16}, "model": {"beta": beta, "b": 0.5},
               "stepper": {"dt": 0.01, "t_end": 1.0},
               "diagnostics": {"cadence_steps": 1, "k_cross": 0.24},
               "initial_data": {"band": [6, 8]}}
        path = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output", str(out)]) == code
        captured = capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 100
        assert summary["lyapunov_violations"] == (6 if code else 0)
        assert ("warning: beta=0.0 lies outside [0.5, 1]" in captured.out) \
            == bool(code)
        assert captured.err == ("check failed: lyapunov_equivalence\n"
                                if code else "")

    @pytest.mark.parametrize("fallback", ["config", "environment", "cwd"])
    def test_output_directory_fallbacks(self, tmp_path, monkeypatch, capsys,
                                        fallback):
        """With no --output a command writes to the config's
        output.directory, else $OBFLOW_OUTPUT_ROOT/<stem>-<command>, else
        ./runs/<stem>-<command>; the directory is made for the file."""
        raw = json.loads(json.dumps(SMALL_RUN))
        monkeypatch.delenv("OBFLOW_OUTPUT_ROOT", raising=False)
        monkeypatch.chdir(tmp_path)
        if fallback == "config":
            raw["output"]["directory"] = str(tmp_path / "from-config")
            expected = tmp_path / "from-config"
        elif fallback == "environment":
            monkeypatch.setenv("OBFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
            expected = tmp_path / "root" / "small-dispersion"
        else:
            expected = Path("runs") / "small-dispersion"
        path = self.write_config(tmp_path, raw, name="small.json")
        assert main(["dispersion", "--config", str(path)]) == 0
        assert capsys.readouterr().out == \
            f"wrote {expected / 'dispersion.csv'}\n"
        assert sorted(p.name for p in (tmp_path / expected).iterdir()) == \
            ["dispersion.csv"]

    def test_check_config_writes_only_with_output(self, tmp_path,
                                                  monkeypatch, capsys):
        """check-config takes no output fallback: its --output help says
        so, and without --output it writes nothing, even where the config
        names an output directory."""
        with pytest.raises(SystemExit):
            main(["check-config", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "without it, nothing is written" in help_text
        assert "OBFLOW_OUTPUT_ROOT" not in help_text
        raw = json.loads(json.dumps(SMALL_RUN))
        raw["output"]["directory"] = str(tmp_path / "from-config")
        monkeypatch.setenv("OBFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
        path = self.write_config(tmp_path, raw, name="small.json")
        monkeypatch.chdir(tmp_path)
        assert main(["check-config", "--config", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.json"]

    def test_check_config_output_is_the_printed_json(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "chk"
        assert main(["check-config", "--config", str(path),
                     "--output", str(out)]) == 0
        text = (out / "resolved_config.json").read_text()
        assert capsys.readouterr().out == text + "config ok\n"
        assert json.loads(text) == cfg_of(SMALL_RUN).to_dict()

    def test_sweep_cli_and_check_exit(self, tmp_path):
        raw = json.loads(json.dumps(SMALL_RUN))
        raw["stepper"]["t_end"] = 0.2
        raw["initial_data"]["epsilon"] = 0.1
        path = self.write_config(tmp_path, raw)
        out = tmp_path / "sw"
        code = main(["sweep-nu", "--config", str(path), "--output", str(out),
                     "--nu", "1e-2", "--nu", "1e-3", "--nu", "1e-4"])
        assert code == 0
        assert (out / "sweep_summary.json").exists()
        # an impossible slope band turns the same sweep into exit 4
        code = main(["sweep-nu", "--config", str(path),
                     "--output", str(tmp_path / "sw4"),
                     "--nu", "1e-2", "--nu", "1e-3", "--nu", "1e-4",
                     "--slope-band", "5.0", "6.0"])
        assert code == 4

    def test_sweep_prints_its_own_warnings(self, tmp_path, capsys):
        """At the default s and exponents the O(nu) rate's regularity floor
        is not met; the sweep prints that warning as well as writing it to
        sweep_summary.json."""
        raw = {"grid": {"n": 16}, "stepper": {"dt": 0.01, "t_end": 0.05}}
        path = self.write_config(tmp_path, raw)
        out = tmp_path / "sw"
        assert main(["sweep-nu", "--config", str(path), "--output", str(out),
                     "--nu", "1e-1", "--nu", "1e-2", "--nu", "1e-3"]) == 0
        warnings = json.loads(
            (out / "sweep_summary.json").read_text())["warnings"]
        assert any(w.startswith("s=2.01 is below 2 alpha + 2 beta - 1 = 3")
                   for w in warnings)
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("warning: ")]
        assert printed == [f"warning: {w}" for w in warnings]

    def test_sweep_reports_its_members_warnings(self, tmp_path, capsys):
        """Every member but the nu = 0 baseline runs at nu > 0, where alpha
        above min(1, 3 beta - 1) draws a warning; the sweep reports it."""
        raw = {"grid": {"n": 16}, "model": {"beta": 0.5, "alpha": 1.0},
               "stepper": {"dt": 0.01, "t_end": 0.05}}
        path = self.write_config(tmp_path, raw)
        out = tmp_path / "sw"
        assert main(["sweep-nu", "--config", str(path), "--output", str(out),
                     "--nu", "1e-1", "--nu", "1e-2", "--nu", "1e-3"]) == 0
        cap = ("alpha=1.0 exceeds min(1, 3*beta-1)=0.5; uniform-in-nu "
               "behaviour is not covered")
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["warnings"] == [cap]
        member = json.loads((out / "nu_1.000e-01" / "summary.json").read_text())
        assert member["warnings"] == [cap]
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("warning: ")]
        assert printed == [f"warning: {cap}"]

    def test_sweep_member_blow_up_exit_code(self, tmp_path, capsys):
        """Runs that blow up at different steps leave snapshot series of
        different lengths: the sweep still writes both files, with NaN
        for the slope and for each distance that has no pairing."""
        raw = {"grid": {"d": 2, "n": 16},
               "model": {"eta": 0.01, "beta": 0.5, "b": 1.0},
               "stepper": {"dt": 0.2, "t_end": 4.0},
               "initial_data": {"recipe": "random-band", "epsilon": 200.0,
                                "band": [1, 8]},
               "output": {"snapshot_cadence_steps": 1}}
        path = self.write_config(tmp_path, raw)
        out = tmp_path / "sw"
        assert main(["sweep-nu", "--config", str(path), "--output", str(out),
                     "--nu", "1e-1", "--nu", "1e-2", "--nu", "1e-3"]) == 3
        assert "a sweep member blew up" in capsys.readouterr().err
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["blew_up"] is True
        assert np.isnan(summary["slope"])
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 3

        def snapshots(nu):
            member = json.loads(
                (out / summary["member_dirs"][repr(nu)] / "summary.json")
                .read_text())
            return len(member["snapshots"])

        paired = [snapshots(nu) == snapshots(0.0) for nu in summary["nus"]]
        assert True in paired and False in paired
        for ok, dist in zip(paired, summary["distances"]):
            assert np.isnan(dist) != ok

    def test_sweep_too_few_nus_is_config_error(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["sweep-nu", "--config", str(path),
                     "--output", str(tmp_path / "x"),
                     "--nu", "1e-2", "--nu", "1e-3"]) == 2

    def test_sweep_shared_member_directory_is_config_error(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["sweep-nu", "--config", str(path),
                     "--output", str(tmp_path / "x"),
                     "--nu", "1e-2", "--nu", "1e-3", "--nu", "1.0001e-3",
                     "--nu", "1e-4"]) == 2
        assert not (tmp_path / "x" / "nu_0").exists()

    @pytest.mark.parametrize("band", [["1.1", "0.9"], ["nan", "2"]],
                             ids=["reversed", "nan"])
    def test_sweep_bad_slope_band_is_config_error(self, tmp_path, capsys,
                                                  band):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["sweep-nu", "--config", str(path),
                     "--output", str(tmp_path / "x"),
                     "--nu", "1e-1", "--nu", "1e-2", "--nu", "1e-3",
                     "--slope-band", *band]) == 2
        assert "slope_band must hold two finite bounds" in \
            capsys.readouterr().err
        assert not (tmp_path / "x" / "nu_0").exists()

    def test_sweep_zero_threads_is_config_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["sweep-nu", "--config", str(path),
                     "--output", str(tmp_path / "x"),
                     "--nu", "1e-1", "--nu", "1e-2", "--nu", "1e-3",
                     "--threads", "0"]) == 2
        assert "threads must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x" / "nu_0").exists()

    @pytest.mark.parametrize("override, message", [
        ("initial_data.seed=-1", "initial_data.seed must be >= 0"),
        ("initial_data.band=[1,9]",
         "initial_data.band [1, 9] is not resolved"),
    ])
    def test_initial_data_rules_exit_2(self, tmp_path, capsys, override,
                                       message):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["run", "--config", str(path), "--output",
                     str(tmp_path / "out"), "--override", override]) == 2
        assert message in capsys.readouterr().err

    def test_band_up_to_half_the_grid_runs(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["run", "--config", str(path), "--output",
                     str(tmp_path / "out"),
                     "--override", "initial_data.band=[1,8]"]) == 0

    def test_dispersion_uses_effective_coefficients(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        tables = {}
        eta_off = ["model.eta=0"]
        for name, overrides in (("plain", []), ("viscous", ["model.nu=0.1"]),
                                ("eta_off", eta_off)):
            args = ["dispersion", "--config", str(path),
                    "--output", str(tmp_path / name)]
            for item in overrides:
                args += ["--override", item]
            assert main(args) == 0
            tables[name] = (tmp_path / name / "dispersion.csv").read_text()
        assert tables["viscous"] != tables["plain"]
        # eta = 0 is the one off switch of the stress dissipation
        assert tables["eta_off"] == dispersion_csv(decay_envelope(0.0, 0.5, 8))
        assert tables["eta_off"] != tables["plain"]
        assert main(["dispersion", "--config", str(path), "--output",
                     str(tmp_path / "x"), "--override",
                     "model.toggles.coupling=false"]) == 2

    def test_dispersion_writes_table(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "disp"
        assert main(["dispersion", "--config", str(path),
                     "--output", str(out)]) == 0
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("k,re_lambda_plus")
        assert len(lines) == 9  # k = 1..8 on n=16
