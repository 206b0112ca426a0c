"""Run configuration: JSON schema, strict validation, and overrides.

A config file is one JSON object with the sections below; unknown keys at
any level are hard errors, as are physically meaningless parameters.
Questionable-but-runnable choices (e.g. beta outside [1/2, 1], s at or below
the embedding index) are collected as warnings and the run proceeds.

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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple, Union

from .diagnostics import DiagnosticParams
from .model import ModelParams, TermToggles
from .spectral import Grid
from .stepping import StepperConfig

RECIPES = ("single-mode", "random-band", "taylor-green")


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of problems."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


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
        return {
            "grid": {"d": self.grid.d, "n": self.grid.n},
            "model": {
                "eta": self.model.eta, "beta": self.model.beta,
                "nu": self.model.nu, "alpha": self.model.alpha,
                "b": self.model.b, "a": self.model.a,
                "toggles": dataclasses.asdict(self.model.toggles),
            },
            "stepper": {
                "scheme": self.stepper.scheme, "dt": self.stepper.dt,
                "t_end": self.stepper.t_end,
                "cfl_advective": self.stepper.cfl_advective,
                "cfl_wave": self.stepper.cfl_wave,
                "dt_cap": self.stepper.dt_cap,
            },
            "diagnostics": {
                "s": self.diagnostics.s, "k_cross": self.diagnostics.k_cross,
                "cadence_steps": self.cadence_steps,
            },
            "initial_data": {
                "recipe": self.initial_data.recipe,
                "epsilon": self.initial_data.epsilon,
                "seed": self.initial_data.seed,
                "mode": list(self.initial_data.mode)
                if self.initial_data.mode is not None else None,
                "band": list(self.initial_data.band),
            },
            "output": {
                "directory": self.output.directory,
                "snapshot_cadence_steps": self.output.snapshot_cadence_steps,
            },
        }


def _require_keys(section: dict, allowed: Sequence[str], where: str,
                  errors: List[str]) -> None:
    for key in section:
        if key not in allowed:
            errors.append(f"unknown key {where}.{key}")


def _number(section: dict, key: str, where: str, errors: List[str],
            default: Any) -> Any:
    val = section.get(key, default)
    if val is None or isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{where}.{key} must be a number, got {val!r}")
        return default
    if not math.isfinite(val):
        errors.append(f"{where}.{key} must be finite, got {val!r}")
        return default
    return val


def _integer(section: dict, key: str, where: str, errors: List[str],
             default: int) -> int:
    val = section.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        errors.append(f"{where}.{key} must be an integer, got {val!r}")
        return default
    return val


def validate_config(raw: dict) -> Tuple[RunConfig, List[str]]:
    """Validate a raw JSON dict; returns (config, warnings) or raises ConfigError.

    Hard errors (non-exhaustive): unknown keys anywhere, eta <= 0, odd n,
    d outside {2, 3}, b outside [-1, 1], negative damping or viscosity,
    unknown recipe/scheme, non-positive dt.  Warnings never block the run.
    """
    errors: List[str] = []
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be an object, got {type(raw).__name__}"])
    _require_keys(raw, ("grid", "model", "stepper", "diagnostics",
                        "initial_data", "output"), "config", errors)

    sec = raw.get("grid", {})
    if not isinstance(sec, dict):
        errors.append("grid must be an object")
        sec = {}
    _require_keys(sec, ("d", "n"), "grid", errors)
    d = _integer(sec, "d", "grid", errors, 2)
    n = _integer(sec, "n", "grid", errors, 64)
    grid = None
    if d not in (2, 3):
        errors.append(f"grid.d must be 2 or 3, got {d}")
    elif n < 8 or n % 2 != 0:
        errors.append(f"grid.n must be even and >= 8, got {n}")
    else:
        grid = Grid(d, n)

    sec = raw.get("model", {})
    if not isinstance(sec, dict):
        errors.append("model must be an object")
        sec = {}
    _require_keys(sec, ("eta", "beta", "nu", "alpha", "b", "a", "toggles"),
                  "model", errors)
    toggles_raw = sec.get("toggles", {})
    if not isinstance(toggles_raw, dict):
        errors.append("model.toggles must be an object")
        toggles_raw = {}
    toggle_fields = tuple(f.name for f in dataclasses.fields(TermToggles))
    _require_keys(toggles_raw, toggle_fields, "model.toggles", errors)
    toggle_kwargs = {}
    for key, val in toggles_raw.items():
        if key in toggle_fields:
            if not isinstance(val, bool):
                errors.append(f"model.toggles.{key} must be a boolean, got {val!r}")
            else:
                toggle_kwargs[key] = val
    eta = _number(sec, "eta", "model", errors, 1.0)
    beta = _number(sec, "beta", "model", errors, 1.0)
    nu = _number(sec, "nu", "model", errors, 0.0)
    alpha = _number(sec, "alpha", "model", errors, 1.0)
    b = _number(sec, "b", "model", errors, 0.0)
    a = _number(sec, "a", "model", errors, 0.0)
    model = None
    if eta <= 0:
        errors.append(f"model.eta must be positive, got {eta}")
    if not -1.0 <= b <= 1.0:
        errors.append(f"model.b must lie in [-1, 1], got {b}")
    if a < 0:
        errors.append(f"model.a must be >= 0, got {a}")
    if nu < 0:
        errors.append(f"model.nu must be >= 0, got {nu}")
    if alpha < 0 or beta < 0:
        errors.append(f"model exponents must be >= 0, got alpha={alpha}, beta={beta}")
    if not errors:
        model = ModelParams(eta=eta, beta=beta, nu=nu, alpha=alpha, b=b, a=a,
                            toggles=TermToggles(**toggle_kwargs))

    sec = raw.get("stepper", {})
    if not isinstance(sec, dict):
        errors.append("stepper must be an object")
        sec = {}
    _require_keys(sec, ("scheme", "dt", "t_end", "cfl_advective", "cfl_wave",
                        "dt_cap"), "stepper", errors)
    scheme = sec.get("scheme", "if-rk4")
    dt = sec.get("dt", "auto")
    if isinstance(dt, str) and dt != "auto":
        errors.append(f"stepper.dt must be a positive number or 'auto', got {dt!r}")
        dt = "auto"
    elif not isinstance(dt, str):
        if (isinstance(dt, bool) or not isinstance(dt, (int, float))
                or not math.isfinite(dt) or dt <= 0):
            errors.append(f"stepper.dt must be a positive finite number or "
                          f"'auto', got {dt!r}")
            dt = "auto"
    t_end = _number(sec, "t_end", "stepper", errors, 1.0)
    cfl_a = _number(sec, "cfl_advective", "stepper", errors, 0.4)
    cfl_w = _number(sec, "cfl_wave", "stepper", errors, 0.4)
    dt_cap = _number(sec, "dt_cap", "stepper", errors, 1e-2)
    stepper = None
    try:
        stepper = StepperConfig(scheme=scheme, dt=dt, t_end=t_end,
                                cfl_advective=cfl_a, cfl_wave=cfl_w,
                                dt_cap=dt_cap)
    except ValueError as exc:
        errors.append(f"stepper: {exc}")

    sec = raw.get("diagnostics", {})
    if not isinstance(sec, dict):
        errors.append("diagnostics must be an object")
        sec = {}
    _require_keys(sec, ("s", "k_cross", "cadence_steps"), "diagnostics", errors)
    s = sec.get("s", None)
    if s is not None and (isinstance(s, bool) or not isinstance(s, (int, float))
                          or not math.isfinite(s)):
        errors.append(f"diagnostics.s must be a finite number or null, got {s!r}")
        s = None
    k_cross = _number(sec, "k_cross", "diagnostics", errors, 0.1)
    cadence = _integer(sec, "cadence_steps", "diagnostics", errors, 10)
    if cadence < 1:
        errors.append(f"diagnostics.cadence_steps must be >= 1, got {cadence}")
    diag = None
    try:
        diag = DiagnosticParams(s=s, k_cross=k_cross)
    except ValueError as exc:
        errors.append(f"diagnostics: {exc}")

    sec = raw.get("initial_data", {})
    if not isinstance(sec, dict):
        errors.append("initial_data must be an object")
        sec = {}
    _require_keys(sec, ("recipe", "epsilon", "seed", "mode", "band"),
                  "initial_data", errors)
    recipe = sec.get("recipe", "random-band")
    if recipe not in RECIPES:
        errors.append(f"initial_data.recipe must be one of {RECIPES}, got {recipe!r}")
    epsilon = _number(sec, "epsilon", "initial_data", errors, 1e-2)
    if isinstance(epsilon, (int, float)) and epsilon < 0:
        errors.append(f"initial_data.epsilon must be >= 0, got {epsilon}")
    seed = _integer(sec, "seed", "initial_data", errors, 1234)
    mode = sec.get("mode", None)
    if mode is not None:
        if (not isinstance(mode, list) or
                any(isinstance(m, bool) or not isinstance(m, int) for m in mode)):
            errors.append(f"initial_data.mode must be a list of integers, got {mode!r}")
            mode = None
        else:
            mode = tuple(mode)
    if mode is not None and grid is not None:
        if len(mode) != grid.d:
            errors.append(f"initial_data.mode must have {grid.d} entries, "
                          f"got {list(mode)}")
        elif all(m == 0 for m in mode):
            errors.append("initial_data.mode must be nonzero")
        elif max(abs(m) for m in mode) >= grid.n // 2:
            errors.append(f"initial_data.mode {list(mode)} is not resolved "
                          f"on an n={grid.n} grid")
    band = sec.get("band", [1, 4])
    if (not isinstance(band, list) or len(band) != 2 or
            any(isinstance(x, bool) or not isinstance(x, int) for x in band)):
        errors.append(f"initial_data.band must be two integers, got {band!r}")
        band = (1, 4)
    elif not 1 <= band[0] <= band[1]:
        errors.append(f"initial_data.band must satisfy 1 <= lo <= hi, got {band}")
        band = (1, 4)
    initial = InitialDataConfig(recipe=recipe, epsilon=epsilon, seed=seed,
                                mode=mode, band=tuple(band))

    sec = raw.get("output", {})
    if not isinstance(sec, dict):
        errors.append("output must be an object")
        sec = {}
    _require_keys(sec, ("directory", "snapshot_cadence_steps"), "output", errors)
    directory = sec.get("directory", None)
    if directory is not None and not isinstance(directory, str):
        errors.append(f"output.directory must be a string or null, got {directory!r}")
        directory = None
    snap_cadence = _integer(sec, "snapshot_cadence_steps", "output", errors, 50)
    if snap_cadence < 1:
        errors.append(f"output.snapshot_cadence_steps must be >= 1, got {snap_cadence}")
    output = OutputConfig(directory=directory, snapshot_cadence_steps=snap_cadence)

    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(grid=grid, model=model, stepper=stepper, diagnostics=diag,
                    initial_data=initial, output=output, cadence_steps=cadence)
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
