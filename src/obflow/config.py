"""Run configuration: the JSON schema, its parser, and overrides.

A config file is one JSON object with the sections below; every key is
optional.  Each section is read into the class that owns it (SECTIONS), and
its keys are that class's dataclass fields, so a field added to an owner is
a config key at once.  validate_config checks the JSON shape only: each
section is an object, unknown keys at any level are hard errors, and each
value has the JSON type of its field's annotation (number, integer,
boolean, string, null or list).

Every domain rule has one owner, the class that holds the value: Grid,
ModelParams, StepperConfig, DiagnosticParams and OutputConfig check their
own fields (eta > 0, b in [-1, 1], even n >= 8, cadences >= 1, finite
numbers, ...), and model.check_initial_data checks recipe, epsilon, seed,
mode and band, the last two against the grid (once the grid is valid).
Each raises one ConfigError listing all of its problems; validate_config
prefixes them with the section name ("model.eta must be positive, got -1")
and raises one ConfigError with every problem of the file.
Questionable-but-runnable choices (e.g. beta outside [1/2, 1], s at or
below the embedding index) are collected as warnings and the run proceeds.

    {
      "grid":         {"d": 2, "n": 64},
      "model":        {"eta": 1.0, "beta": 1.0, "nu": 0.0, "alpha": 1.0,
                       "b": 0.0, "a": 0.0,
                       "toggles": {"advection": true, "q_term": true,
                                   "coupling": true, "eta_dissipation": true}},
      "stepper":      {"dt": "auto", "t_end": 1.0, "cfl_advective": 0.4,
                       "cfl_wave": 0.4, "dt_cap": 0.01},
      "diagnostics":  {"s": null, "k_cross": 0.1, "cadence_steps": 10},
      "initial_data": {"recipe": "random-band", "epsilon": 0.01, "seed": 1234,
                       "mode": null, "band": [1, 4]},
      "output":       {"directory": null, "snapshot_cadence_steps": 50}
    }
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union, get_type_hints

from .diagnostics import DiagnosticParams
from .model import InitialDataConfig, ModelParams, check_initial_data
from .spectral import ConfigError, Grid, check_fields
from .stepping import StepperConfig


@dataclass(frozen=True)
class OutputConfig:
    directory: Optional[str] = None
    snapshot_cadence_steps: int = 50

    def __post_init__(self):
        check_fields(self, (
            ("snapshot_cadence_steps", lambda v: v >= 1, "must be >= 1"),))


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    model: ModelParams
    stepper: StepperConfig
    diagnostics: DiagnosticParams
    initial_data: InitialDataConfig
    output: OutputConfig

    def warnings(self) -> List[str]:
        return self.model.warnings() + self.diagnostics.warnings(self.grid)

    def to_dict(self) -> dict:
        """Resolved config as a JSON-ready dict (inverse of validate_config)."""
        return json.loads(json.dumps(dataclasses.asdict(self)))


# field name -> annotation of a class, evaluated once per class; SECTIONS maps
# each config section to the class whose fields are its keys
_kinds = functools.cache(get_type_hints)
SECTIONS = _kinds(RunConfig)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_integer, value))


# JSON type of each field annotation of a section owner: (description,
# accepts); a field whose type is a dataclass is a nested object
_JSON_TYPES = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_integer),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    Optional[str]: ("a string or null", lambda v: v is None or isinstance(v, str)),
    Optional[float]: ("a number or null", lambda v: v is None or _is_number(v)),
    Union[float, str]: ("a number or a string",
                        lambda v: _is_number(v) or isinstance(v, str)),
    Optional[Tuple[int, ...]]: ("a list of integers or null",
                                lambda v: v is None or _is_int_list(v)),
    Tuple[int, int]: ("a list of two integers",
                      lambda v: _is_int_list(v) and len(v) == 2),
}


def _checked(where: str, errors: List[str], make, *args, **kwargs):
    """make(*args, **kwargs), or None with its problems prefixed by where."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        errors.extend(f"{where}.{problem}" for problem in exc.errors)
        return None


def _section(raw, where: str, owner: type, errors: List[str]):
    """owner built from the JSON object raw, or None if it breaks a rule.

    Unknown keys and values of the wrong JSON type are reported in errors
    and left out, so owner falls back to its default.  Lists become tuples.
    """
    if not isinstance(raw, dict):
        errors.append(f"{where} must be an object, got {raw!r}")
        raw = {}
    values = {}
    for key, value in raw.items():
        kind = _kinds(owner).get(key)
        if kind is None:
            errors.append(f"unknown key {where}.{key}")
        elif dataclasses.is_dataclass(kind):
            values[key] = _section(value, f"{where}.{key}", kind, errors)
        elif _JSON_TYPES[kind][1](value):
            values[key] = tuple(value) if isinstance(value, list) else value
        else:
            errors.append(f"{where}.{key} must be {_JSON_TYPES[kind][0]}, "
                          f"got {value!r}")
    return _checked(where, errors, owner, **values)


def validate_config(raw: dict) -> Tuple[RunConfig, List[str]]:
    """Parse a raw JSON dict; returns (config, warnings) or raises ConfigError.

    The ConfigError lists every problem: unknown keys, values of the wrong
    JSON type, and the domain rules of each section's owner (see the module
    docstring).  Warnings never block the run.
    """
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be an object, got {type(raw).__name__}"])
    errors = [f"unknown key config.{key}" for key in raw if key not in SECTIONS]
    sections = {name: _section(raw.get(name, {}), name, owner, errors)
                for name, owner in SECTIONS.items()}
    if sections["grid"] is not None:
        _checked("initial_data", errors, check_initial_data, sections["grid"],
                 **dataclasses.asdict(sections["initial_data"]))
    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(**sections)
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
    rejected by validate_config.  A path through a value that is not an
    object (the root included) leaves it alone, so validate_config names it.
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
            if not isinstance(node, dict):
                break
            node = node.setdefault(key, {})
        if isinstance(node, dict):
            node[keys[-1]] = value
    return out


def default_config_dict() -> dict:
    """The documented defaults as a raw dict (handy for tests and docs)."""
    cfg, _ = validate_config({})
    return cfg.to_dict()
