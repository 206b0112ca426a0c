"""Config schema: strict validation, aggregated errors, overrides."""

import json

import pytest

from obflow.config import (
    ConfigError,
    apply_overrides,
    default_config_dict,
    load_config,
    validate_config,
)


def t_err(raw):
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    return info.value.errors


class TestDefaults:
    def test_empty_config_is_valid(self):
        cfg, warnings = validate_config({})
        assert cfg.grid.d == 2
        assert cfg.grid.n == 64
        assert cfg.model.eta == 1.0
        assert cfg.stepper.dt == "auto"
        assert cfg.initial_data.recipe == "random-band"
        assert cfg.cadence_steps == 10
        assert warnings == []

    def test_default_dict_round_trips(self):
        raw = default_config_dict()
        cfg, _ = validate_config(raw)
        assert cfg.to_dict() == raw

    def test_to_dict_is_json_ready(self):
        cfg, _ = validate_config({"initial_data": {"mode": [0, 2],
                                                   "recipe": "single-mode"}})
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        assert json.loads(text)["initial_data"]["mode"] == [0, 2]


class TestHardErrors:
    def test_unknown_keys_at_every_level(self):
        assert any("config.extra" in e for e in t_err({"extra": 1}))
        assert any("grid.m" in e for e in t_err({"grid": {"m": 4}}))
        assert any("model.gamma" in e for e in t_err({"model": {"gamma": 1}}))
        assert any("model.toggles.foo" in e
                   for e in t_err({"model": {"toggles": {"foo": True}}}))
        assert any("stepper.step" in e for e in t_err({"stepper": {"step": 1}}))
        assert any("diagnostics.sob" in e
                   for e in t_err({"diagnostics": {"sob": 2}}))
        assert any("initial_data.amp" in e
                   for e in t_err({"initial_data": {"amp": 1}}))
        assert any("output.path" in e for e in t_err({"output": {"path": "x"}}))

    def test_domain_violations(self):
        assert any("eta" in e for e in t_err({"model": {"eta": 0.0}}))
        assert any("eta" in e for e in t_err({"model": {"eta": -2.0}}))
        assert any("b" in e for e in t_err({"model": {"b": 1.5}}))
        assert any("a must" in e for e in t_err({"model": {"a": -0.1}}))
        assert any("nu" in e for e in t_err({"model": {"nu": -1e-6}}))
        assert any("exponents" in e for e in t_err({"model": {"alpha": -1.0}}))
        assert any("grid.n" in e for e in t_err({"grid": {"n": 63}}))
        assert any("grid.n" in e for e in t_err({"grid": {"n": 4}}))
        assert any("grid.d" in e for e in t_err({"grid": {"d": 4}}))
        assert any("k_cross" in e
                   for e in t_err({"diagnostics": {"k_cross": 0.3}}))
        assert any("k_cross" in e
                   for e in t_err({"diagnostics": {"k_cross": 0.25}}))
        assert any("dt" in e for e in t_err({"stepper": {"dt": -0.1}}))
        assert any("dt" in e for e in t_err({"stepper": {"dt": "fast"}}))
        assert any("t_end" in e for e in t_err({"stepper": {"t_end": -1.0}}))
        assert any("scheme" in e for e in t_err({"stepper": {"scheme": "ab2"}}))
        assert any("recipe" in e
                   for e in t_err({"initial_data": {"recipe": "vortex"}}))
        assert any("epsilon" in e
                   for e in t_err({"initial_data": {"epsilon": -1.0}}))
        assert any("band" in e
                   for e in t_err({"initial_data": {"band": [4, 1]}}))
        assert any("band" in e
                   for e in t_err({"initial_data": {"band": [0, 4]}}))
        assert any("cadence" in e
                   for e in t_err({"diagnostics": {"cadence_steps": 0}}))
        assert any("snapshot" in e
                   for e in t_err({"output": {"snapshot_cadence_steps": 0}}))

    def test_mode_validation_against_grid(self):
        base = {"grid": {"d": 2, "n": 16},
                "initial_data": {"recipe": "single-mode"}}
        raw = json.loads(json.dumps(base))
        raw["initial_data"]["mode"] = [0, 0]
        assert any("nonzero" in e for e in t_err(raw))
        raw["initial_data"]["mode"] = [0, 8]
        assert any("not resolved" in e for e in t_err(raw))
        raw["initial_data"]["mode"] = [1, 2, 3]
        assert any("entries" in e for e in t_err(raw))
        raw["initial_data"]["mode"] = [0, 3]
        cfg, _ = validate_config(raw)
        assert cfg.initial_data.mode == (0, 3)

    def test_type_errors(self):
        assert any("must be a number" in e for e in t_err({"model": {"eta": "x"}}))
        assert any("must be an integer" in e for e in t_err({"grid": {"n": 16.5}}))
        assert any("boolean" in e
                   for e in t_err({"model": {"toggles": {"q_term": 1}}}))
        assert any("must be a number" in e
                   for e in t_err({"model": {"eta": True}}))

    @pytest.mark.parametrize("override, key", [
        ("model.eta=NaN", "model.eta"),
        ("model.beta=NaN", "model.beta"),
        ("model.b=-Infinity", "model.b"),
        ("initial_data.epsilon=NaN", "initial_data.epsilon"),
        ("stepper.dt_cap=NaN", "stepper.dt_cap"),
        ("stepper.t_end=Infinity", "stepper.t_end"),
        ("stepper.dt=NaN", "stepper.dt"),
        ("stepper.dt=Infinity", "stepper.dt"),
        ("diagnostics.s=NaN", "diagnostics.s"),
        ("diagnostics.k_cross=NaN", "diagnostics.k_cross"),
    ])
    def test_non_finite_numbers(self, override, key):
        errors = t_err(apply_overrides({}, [override]))
        assert any(e.startswith(key) and "finite" in e for e in errors), errors

    def test_errors_are_aggregated(self):
        errors = t_err({"grid": {"n": 63}, "model": {"eta": -1.0, "b": 2.0},
                        "stepper": {"dt": -1.0}})
        assert len(errors) >= 4


class TestWarnings:
    def test_beta_outside_unit_window(self):
        _, warnings = validate_config({"model": {"beta": 0.4}})
        assert any("beta" in w for w in warnings)

    def test_alpha_above_admissible_line(self):
        _, warnings = validate_config(
            {"model": {"beta": 0.5, "alpha": 0.9, "nu": 0.1}})
        assert any("alpha" in w for w in warnings)
        _, no_warn = validate_config(
            {"model": {"beta": 0.5, "alpha": 0.9, "nu": 0.0}})
        assert no_warn == []

    def test_low_sobolev_index(self):
        _, warnings = validate_config({"diagnostics": {"s": 1.9}})
        assert any("s" in w.split("=")[0] or "s " in w for w in warnings)

    def test_defaults_warn_nothing(self):
        _, warnings = validate_config(
            {"model": {"beta": 1.0, "alpha": 1.0, "nu": 1e-3}})
        assert warnings == []


class TestOverrides:
    def test_numeric_and_string_values(self):
        raw = apply_overrides({}, ["model.eta=0.5", "stepper.dt=auto",
                                   "grid.n=32"])
        assert raw["model"]["eta"] == 0.5
        assert raw["stepper"]["dt"] == "auto"
        assert raw["grid"]["n"] == 32
        cfg, _ = validate_config(raw)
        assert cfg.model.eta == 0.5

    def test_json_values(self):
        raw = apply_overrides({}, ["initial_data.mode=[0,2]",
                                   "model.toggles.q_term=false",
                                   "output.directory=null"])
        assert raw["initial_data"]["mode"] == [0, 2]
        assert raw["model"]["toggles"]["q_term"] is False
        assert raw["output"]["directory"] is None

    def test_override_beats_file_value(self):
        raw = apply_overrides({"model": {"eta": 3.0}}, ["model.eta=0.25"])
        assert raw["model"]["eta"] == 0.25

    def test_does_not_mutate_input(self):
        base = {"model": {"eta": 3.0}}
        apply_overrides(base, ["model.eta=1.0"])
        assert base["model"]["eta"] == 3.0

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["model.eta"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["=1.0"])

    def test_unknown_override_key_fails_validation(self):
        raw = apply_overrides({}, ["model.lambda=1.0"])
        with pytest.raises(ConfigError):
            validate_config(raw)


class TestLoadConfig:
    def test_reads_file_with_overrides(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"grid": {"d": 2, "n": 16}}))
        cfg, _ = load_config(path, ["model.eta=2.0"])
        assert cfg.grid.n == 16
        assert cfg.model.eta == 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(tmp_path / "nope.json")
        assert any("cannot read" in e for e in info.value.errors)

    def test_non_finite_json_literal(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"model": {"eta": NaN}}')
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert any("model.eta must be finite" in e for e in info.value.errors)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert any("not valid JSON" in e for e in info.value.errors)
