"""Config schema: strict validation, aggregated errors, overrides."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from obflow.config import (
    ConfigError,
    InitialDataConfig,
    OutputConfig,
    apply_overrides,
    default_config_dict,
    load_config,
    validate_config,
)
from obflow.diagnostics import DiagnosticParams
from obflow.model import ModelParams, TermToggles, check_initial_data
from obflow.spectral import Grid
from obflow.stepping import StepperConfig

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert cfg.diagnostics.cadence_steps == 10
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


def _initial_data_rules(values):
    kwargs = dataclasses.asdict(InitialDataConfig())
    kwargs.update({k: tuple(v) if isinstance(v, list) else v
                   for k, v in values.items()})
    check_initial_data(Grid(2, 16), **kwargs)


# section -> the owner of its domain rules, called with the section's values
OWNERS = {
    "grid": lambda v: Grid(**v),
    "model": lambda v: ModelParams(**v),
    "stepper": lambda v: StepperConfig(**v),
    "diagnostics": lambda v: DiagnosticParams(**v),
    "initial_data": _initial_data_rules,
    "output": lambda v: OutputConfig(**v),
}

# one broken rule per case, for every rule that validate_config delegates
BROKEN_RULES = [
    ("grid", {"d": 4}), ("grid", {"n": 63}), ("grid", {"n": 4}),
    ("model", {"eta": -1}), ("model", {"eta": 0.0}),
    ("model", {"eta": math.nan}), ("model", {"beta": -0.5}),
    ("model", {"nu": -1e-6}), ("model", {"alpha": -1.0}),
    ("model", {"b": 1.5}), ("model", {"b": -math.inf}),
    ("model", {"a": -0.1}),
    ("stepper", {"dt": -0.1}),
    ("stepper", {"dt": "fast"}), ("stepper", {"dt": math.nan}),
    ("stepper", {"t_end": -1.0}), ("stepper", {"t_end": math.inf}),
    ("stepper", {"cfl_advective": 0.0}), ("stepper", {"cfl_wave": -0.4}),
    ("stepper", {"dt_cap": 0}),
    ("diagnostics", {"s": math.nan}), ("diagnostics", {"k_cross": 0.25}),
    ("diagnostics", {"k_cross": math.inf}),
    ("diagnostics", {"cadence_steps": 0}),
    ("output", {"snapshot_cadence_steps": 0}),
    ("initial_data", {"recipe": "vortex"}),
    ("initial_data", {"epsilon": -1.0}),
    ("initial_data", {"epsilon": math.nan}),
    ("initial_data", {"seed": -1}),
    ("initial_data", {"mode": [0, 0]}), ("initial_data", {"mode": [0, 8]}),
    ("initial_data", {"mode": [1, 2, 3]}),
    ("initial_data", {"band": [4, 1]}), ("initial_data", {"band": [0, 4]}),
    ("initial_data", {"band": [1, 9]}),
]


# a valid value other than the default for every field of every owner
NON_DEFAULT = {
    "grid": {"d": 3, "n": 16},
    "model": {"eta": 0.5, "beta": 0.75, "nu": 1e-3, "alpha": 0.5, "b": 0.5,
              "a": 0.1,
              "toggles": {f.name: False for f in dataclasses.fields(TermToggles)}},
    "stepper": {"dt": 5e-3, "t_end": 0.5, "cfl_advective": 0.3,
                "cfl_wave": 0.2, "dt_cap": 0.02},
    "diagnostics": {"s": 2.6, "k_cross": 0.2, "cadence_steps": 5},
    "initial_data": {"recipe": "single-mode", "epsilon": 0.1, "seed": 7,
                     "mode": [0, 1, 2], "band": [2, 5]},
    "output": {"directory": "out", "snapshot_cadence_steps": 25},
}


def _leaves(tree, prefix=""):
    """Dotted key -> value of every non-object entry of a config dict."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


class TestSchemaFromOwners:
    def test_every_field_is_a_key_that_round_trips(self):
        """Each owner field is a config key with a JSON type: a field added
        to an owner fails here until it is given a value and its annotation
        a JSON type."""
        defaults = _leaves(default_config_dict())
        values = _leaves(NON_DEFAULT)
        assert values.keys() == defaults.keys()
        assert all(values[key] != defaults[key] for key in values)
        cfg, _ = validate_config(json.loads(json.dumps(NON_DEFAULT)))
        assert cfg.to_dict() == NON_DEFAULT
        again, _ = validate_config(cfg.to_dict())
        assert again == cfg


class TestSingleOwner:
    @pytest.mark.parametrize("section, values", BROKEN_RULES, ids=[
        f"{s}.{k}={x}" for s, v in BROKEN_RULES for k, x in v.items()])
    def test_config_reports_the_owner_message(self, section, values):
        """validate_config words a domain error exactly as the class that
        holds the value, behind the section name."""
        raw = {"grid": {"d": 2, "n": 16}} if section == "initial_data" else {}
        raw[section] = values
        errors = t_err(raw)
        with pytest.raises(ConfigError) as info:
            OWNERS[section](values)
        key = next(iter(values))
        assert len(errors) == 1, errors
        assert errors[0].startswith(f"{section}.{key} ")
        assert info.value.errors == [errors[0][len(section) + 1:]]

    def test_owner_lists_every_problem(self):
        with pytest.raises(ConfigError) as info:
            ModelParams(eta=-1, b=2)
        assert info.value.errors == ["eta must be positive, got -1",
                                     "b must lie in [-1, 1], got 2"]
        assert isinstance(info.value, ValueError)

    def test_band_up_to_half_the_grid_is_accepted(self):
        cfg, _ = validate_config({"grid": {"d": 2, "n": 16},
                                  "initial_data": {"band": [1, 8]}})
        assert cfg.initial_data.band == (1, 8)

    def test_readme_minimal_config(self):
        """The README's minimal config is valid, documents the defaults,
        and round-trips through to_dict."""
        text = README.read_text()
        block = re.search(r"A minimal config.*?```json\n(.*?)```", text,
                          re.S).group(1)
        raw = json.loads(block)
        cfg, warnings = validate_config(raw)
        assert warnings == []
        resolved = cfg.to_dict()
        for section, values in raw.items():
            for key, value in values.items():
                if key != "toggles":
                    assert resolved[section][key] == value, (section, key)
        again, _ = validate_config(json.loads(json.dumps(resolved)))
        assert again == cfg
        assert again.to_dict() == resolved
