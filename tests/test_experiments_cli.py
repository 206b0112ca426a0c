"""Experiment drivers and the command line front end."""

import json

import numpy as np
import pytest

from obflow.cli import main
from obflow.config import ConfigError, validate_config
from obflow.experiments import (
    linear_verify,
    load_snapshot_series,
    run_single,
    sweep_viscosity,
)

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
              "toggles": {"advection_u": False, "advection_tau": False,
                          "q_term": False}},
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

    def test_record_stream_matches_cadence(self, tmp_path):
        result = run_single(cfg_of(SMALL_RUN), tmp_path / "r")
        times = [r.t for r in result.records]
        assert times == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_single(cfg_of(SMALL_RUN), a)
        run_single(cfg_of(SMALL_RUN), b)
        assert (a / "diagnostics.csv").read_bytes() == \
            (b / "diagnostics.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == \
            (b / "summary.json").read_bytes()
        for name in ("snap_00000000.obsf", "snap_00000030.obsf"):
            assert (a / "snapshots" / name).read_bytes() == \
                (b / "snapshots" / name).read_bytes()

    def test_blow_up_recorded_not_raised(self, tmp_path):
        out = tmp_path / "boom"
        result = run_single(cfg_of(BLOWUP_RUN), out)
        assert result.blew_up
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blow_up"] is not None
        assert summary["blow_up"]["step"] > 0
        assert (out / "diagnostics.csv").exists()

    def test_snapshot_series_round_trip(self, tmp_path):
        out = tmp_path / "run"
        run_single(cfg_of(SMALL_RUN), out)
        series = load_snapshot_series(out)
        assert [t for t, _ in series] == pytest.approx([0.0, 0.1, 0.2, 0.3])
        # d=2: 2 velocity + 3 stress components
        assert series[0][1].shape == (5, 16, 16)
        assert np.all(np.isfinite(series[-1][1]))


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
        raw = json.loads(json.dumps(SMALL_RUN))
        raw["stepper"]["dt"] = "auto"
        with pytest.raises(ConfigError):
            sweep_viscosity(cfg_of(raw), [1e-2, 1e-3, 1e-4], tmp_path)

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

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_run_writes_and_exits_zero(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--output", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_run_blow_up_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, BLOWUP_RUN)
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "b")]) == 3

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

    def test_sweep_too_few_nus_is_config_error(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        assert main(["sweep-nu", "--config", str(path),
                     "--output", str(tmp_path / "x"),
                     "--nu", "1e-2", "--nu", "1e-3"]) == 2

    def test_dispersion_writes_table(self, tmp_path):
        path = self.write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "disp"
        assert main(["dispersion", "--config", str(path),
                     "--output", str(out)]) == 0
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("k,re_lambda_plus")
        assert len(lines) == 9  # k = 1..8 on n=16
