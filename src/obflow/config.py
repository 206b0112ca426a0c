"""Run configuration: the JSON schema, its parser, and overrides.

A config file is one JSON object with the sections below; every key is
optional.  validate_config checks its JSON shape only: each section is an
object, unknown keys at any level are hard errors, and each value has its
JSON type (number, integer, boolean, string, null or list).

Every domain rule has one owner, the class that holds the value: Grid,
ModelParams, StepperConfig and DiagnosticParams check their own fields
(eta > 0, b in [-1, 1], even n >= 8, finite numbers, ...), and
model.check_initial_data checks recipe, epsilon, seed, mode and band, the
last two against the grid (once the grid is valid).  Each raises one
ConfigError listing all of its problems; validate_config prefixes them with
the section name ("model.eta must be positive, got -1") and raises one
ConfigError with every problem of the file.  The two cadences are the only
values it checks itself, because only the config holds them.
Questionable-but-runnable choices (e.g. beta outside [1/2, 1], s at or
below the embedding index) are collected as warnings and the run proceeds.

    {
      "grid":         {"d": 2, "n": 64},
      "model":        {"eta": 1.0, "beta": 1.0, "nu": 0.0, "alpha": 1.0,
                       "b": 0.0, "a": 0.0, "toggles": {...}},
      "stepper":      {"scheme": "if-rk4", "dt": "auto", "t_end": 1.0,
                       "cfl_advective": 0.4, "cfl_wave": 0.4, "dt_cap": 0.01},
      "diagnostics":  {"s": null, "k_cross": 0.1, "cadence_steps": 10},
      "initial_data": {"recipe": "random-band", "epsilon": 0.01, "seed": 1234,
                       "mode": null, "band": [1, 4]},
      "output":       {"directory": null, "snapshot_cadence_steps": 50}
    }
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .diagnostics import DiagnosticParams
from .model import ModelParams, TermToggles, check_initial_data
from .spectral import ConfigError, Grid
from .stepping import StepperConfig


@dataclass(frozen=True)
class InitialDataConfig:
    recipe: str = "random-band"
    epsilon: float = 1e-2
    seed: int = 1234
    mode: Optional[Tuple[int, ...]] = None
    band: Tuple[int, int] = (1, 4)


@dataclass(frozen=True)
class OutputConfig:
    directory: Optional[str] = None
    snapshot_cadence_steps: int = 50


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    model: ModelParams
    stepper: StepperConfig
    diagnostics: DiagnosticParams
    initial_data: InitialDataConfig
    output: OutputConfig
    cadence_steps: int = 10

    def warnings(self) -> List[str]:
        return self.model.warnings() + self.diagnostics.warnings(self.grid)

    def to_dict(self) -> dict:
        """Resolved config as a JSON-ready dict (inverse of validate_config)."""
        out = dataclasses.asdict(self)
        out["diagnostics"]["cadence_steps"] = out.pop("cadence_steps")
        initial = out["initial_data"]
        for key in ("mode", "band"):
            if initial[key] is not None:
                initial[key] = list(initial[key])
        return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON type of every key: (description, accepts), or the schema of a nested
# object
_NUMBER = ("a number", _is_number)
_INTEGER = ("an integer", _is_integer)
_STRING = ("a string", lambda v: isinstance(v, str))
_SCHEMA = {
    "grid": {"d": _INTEGER, "n": _INTEGER},
    "model": {
        "eta": _NUMBER, "beta": _NUMBER, "nu": _NUMBER, "alpha": _NUMBER,
        "b": _NUMBER, "a": _NUMBER,
        "toggles": {f.name: ("a boolean", lambda v: isinstance(v, bool))
                    for f in dataclasses.fields(TermToggles)},
    },
    "stepper": {
        "scheme": _STRING,
        "dt": ("a number or a string",
               lambda v: _is_number(v) or isinstance(v, str)),
        "t_end": _NUMBER, "cfl_advective": _NUMBER, "cfl_wave": _NUMBER,
        "dt_cap": _NUMBER,
    },
    "diagnostics": {
        "s": ("a number or null", lambda v: v is None or _is_number(v)),
        "k_cross": _NUMBER, "cadence_steps": _INTEGER,
    },
    "initial_data": {
        "recipe": _STRING,
        "epsilon": _NUMBER, "seed": _INTEGER,
        "mode": ("a list of integers or null", lambda v: v is None or (
            isinstance(v, list) and all(map(_is_integer, v)))),
        "band": ("a list of two integers", lambda v: isinstance(v, list)
                 and len(v) == 2 and all(map(_is_integer, v))),
    },
    "output": {
        "directory": ("a string or null",
                      lambda v: v is None or isinstance(v, str)),
        "snapshot_cadence_steps": _INTEGER,
    },
}


def _fields(raw, where: str, schema: dict, errors: List[str]) -> dict:
    """The entries of the JSON object raw that schema accepts.

    Unknown keys and values of the wrong JSON type are reported in errors
    and left out, so their owner falls back to its default.
    """
    if not isinstance(raw, dict):
        errors.append(f"{where} must be an object, got {raw!r}")
        return {}
    out = {}
    for key, value in raw.items():
        kind = schema.get(key)
        if kind is None:
            errors.append(f"unknown key {where}.{key}")
        elif isinstance(kind, dict):
            out[key] = _fields(value, f"{where}.{key}", kind, errors)
        elif kind[1](value):
            out[key] = value
        else:
            errors.append(f"{where}.{key} must be {kind[0]}, got {value!r}")
    return out


def _checked(where: str, errors: List[str], make, *args, **kwargs):
    """make(*args, **kwargs), or None with its problems prefixed by where."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        errors.extend(f"{where}.{problem}" for problem in exc.errors)
        return None


def validate_config(raw: dict) -> Tuple[RunConfig, List[str]]:
    """Parse a raw JSON dict; returns (config, warnings) or raises ConfigError.

    The ConfigError lists every problem: unknown keys, values of the wrong
    JSON type, and the domain rules of each section's owner (see the module
    docstring).  Warnings never block the run.
    """
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be an object, got {type(raw).__name__}"])
    errors = [f"unknown key config.{key}" for key in raw if key not in _SCHEMA]
    sec = {name: _fields(raw.get(name, {}), name, schema, errors)
           for name, schema in _SCHEMA.items()}

    grid = _checked("grid", errors, Grid, **{"d": 2, "n": 64, **sec["grid"]})
    toggles = TermToggles(**sec["model"].pop("toggles", {}))
    model = _checked("model", errors, ModelParams, toggles=toggles,
                     **sec["model"])
    stepper = _checked("stepper", errors, StepperConfig, **sec["stepper"])
    cadence = sec["diagnostics"].pop("cadence_steps", RunConfig.cadence_steps)
    diagnostics = _checked("diagnostics", errors, DiagnosticParams,
                           **sec["diagnostics"])
    for key in ("mode", "band"):
        if sec["initial_data"].get(key) is not None:
            sec["initial_data"][key] = tuple(sec["initial_data"][key])
    initial = InitialDataConfig(**sec["initial_data"])
    if grid is not None:
        _checked("initial_data", errors, check_initial_data, grid,
                 **dataclasses.asdict(initial))
    output = OutputConfig(**sec["output"])
    for where, value in (("diagnostics.cadence_steps", cadence),
                         ("output.snapshot_cadence_steps",
                          output.snapshot_cadence_steps)):
        if value < 1:
            errors.append(f"{where} must be >= 1, got {value}")

    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(grid=grid, model=model, stepper=stepper,
                    diagnostics=diagnostics, initial_data=initial,
                    output=output, cadence_steps=cadence)
    return cfg, cfg.warnings()


def load_config(path: Union[str, Path],
                overrides: Sequence[str] = ()) -> Tuple[RunConfig, List[str]]:
    """Read a JSON config file, apply KEY=VALUE overrides, and validate."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    raw = apply_overrides(raw, overrides)
    return validate_config(raw)


def apply_overrides(raw: dict, overrides: Sequence[str]) -> dict:
    """Apply dotted-path overrides like model.eta=2.0 to a raw config dict.

    Values are parsed as JSON when possible and fall back to plain strings,
    so --override stepper.dt=auto and --override model.eta=0.5 both work.
    Paths may create missing intermediate sections; unknown keys are then
    rejected by validate_config.
    """
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"override {item!r} is not of the form KEY=VALUE"])
        path, text = item.split("=", 1)
        keys = [p for p in path.strip().split(".") if p]
        if not keys:
            raise ConfigError([f"override {item!r} has an empty key path"])
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        node[keys[-1]] = value
    return out


def default_config_dict() -> dict:
    """The documented defaults as a raw dict (handy for tests and docs)."""
    cfg, _ = validate_config({})
    return cfg.to_dict()
