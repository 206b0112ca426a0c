"""Integrating-factor time stepping for the stress-velocity system.

The diagonal dissipation (nu |k|^(2 alpha) on u, eta |k|^(2 beta) + a on
tau) is integrated exactly through exponential factors; everything else is
advanced explicitly.  Two schemes are provided:

- "if-rk4": classical fourth-order Runge-Kutta in the integrating-factor
  variables (the workhorse),
- "if-euler": first-order variant kept for debugging and order checks.

With all explicit terms switched off a step reduces to the exact
mode-by-mode decay, whatever the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import FlowState, ModelParams, dissipation_rates, explicit_rhs
from .spectral import Grid, TensorField, VectorField, leray_project

SCHEMES = ("if-rk4", "if-euler")


class BlowUpError(RuntimeError):
    """A step produced non-finite values; carries the last finite state."""

    def __init__(self, state: FlowState, step: int):
        super().__init__(
            f"solution lost finiteness after step {step} (t = {state.t:g})")
        self.state = state
        self.step = step


@dataclass(frozen=True)
class StepperConfig:
    """Scheme selection and step-size policy.

    dt may be a positive float or "auto", in which case every step uses the
    CFL bound below (capped by dt_cap).
    """

    scheme: str = "if-rk4"
    dt: Union[float, str] = "auto"
    t_end: float = 1.0
    cfl_advective: float = 0.4
    cfl_wave: float = 0.4
    dt_cap: float = 1e-2

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick from {SCHEMES}")
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError(f"dt must be positive or 'auto', got {self.dt!r}")
        elif not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.cfl_advective <= 0 or self.cfl_wave <= 0 or self.dt_cap <= 0:
            raise ValueError("CFL numbers and dt_cap must be positive")


def cfl_dt(state: FlowState, config: StepperConfig) -> float:
    """Step bound min(c_adv dx / max|u|, c_wave sqrt(2) / k_max, dt_cap).

    The wave bound reflects the k / sqrt(2) oscillation frequency of the
    coupled velocity-stress mode pair; a zero state returns dt_cap.
    """
    grid = state.grid
    u_max = float(np.max(np.abs(state.u.to_physical())))
    dt = config.dt_cap
    if u_max > 0:
        dt = min(dt, config.cfl_advective * grid.dx / u_max)
    k_max = grid.n // 2
    dt = min(dt, config.cfl_wave * math.sqrt(2.0) / k_max)
    return dt


def _decay_factors(grid: Grid, params: ModelParams,
                   dt: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Eu_half, Et_half, Eu_full, Et_full) integrating factors."""
    rate_u, rate_tau = dissipation_rates(grid, params)
    return (np.exp(-0.5 * dt * rate_u), np.exp(-0.5 * dt * rate_tau),
            np.exp(-dt * rate_u), np.exp(-dt * rate_tau))


def _project(grid: Grid, u: np.ndarray) -> np.ndarray:
    return leray_project(VectorField(grid, u)).comps


def _tendency(grid: Grid, params: ModelParams, u: np.ndarray, tau: np.ndarray,
              t: float) -> Tuple[np.ndarray, np.ndarray]:
    state = FlowState(VectorField(grid, u), TensorField(grid, tau, "symmetric"), t)
    du, dtau = explicit_rhs(state, params)
    return du.comps, dtau.comps


def step(state: FlowState, params: ModelParams, dt: float,
         scheme: str = "if-rk4") -> FlowState:
    """Advance one step; u is re-projected after every stage.

    Stage 1 evaluates the state object itself, so it consumes a tendency
    that energy_budget handed off on it (see FlowState).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {SCHEMES}")
    grid = state.grid
    eu_h, et_h, eu_f, et_f = _decay_factors(grid, params, dt)
    u0, tau0 = state.u.comps, state.tau.comps
    t0 = state.t

    du, dtau = explicit_rhs(state, params)
    du1, dt1 = du.comps, dtau.comps
    if scheme == "if-euler":
        u1 = _project(grid, eu_f * (u0 + dt * du1))
        tau1 = et_f * (tau0 + dt * dt1)
        return FlowState(VectorField(grid, u1),
                         TensorField(grid, tau1, "symmetric"), t0 + dt)

    # if-rk4: RK4 in the variables z = exp(L (t - t0)) y.
    ku1, kt1 = dt * du1, dt * dt1

    u_s = _project(grid, eu_h * (u0 + 0.5 * ku1))
    tau_s = et_h * (tau0 + 0.5 * kt1)
    du2, dt2 = _tendency(grid, params, u_s, tau_s, t0 + 0.5 * dt)
    ku2, kt2 = dt * du2, dt * dt2

    u_s = _project(grid, eu_h * u0 + 0.5 * ku2)
    tau_s = et_h * tau0 + 0.5 * kt2
    du3, dt3 = _tendency(grid, params, u_s, tau_s, t0 + 0.5 * dt)
    ku3, kt3 = dt * du3, dt * dt3

    u_s = _project(grid, eu_f * u0 + eu_h * ku3)
    tau_s = et_f * tau0 + et_h * kt3
    du4, dt4 = _tendency(grid, params, u_s, tau_s, t0 + dt)
    ku4, kt4 = dt * du4, dt * dt4

    u1 = eu_f * u0 + (eu_f * ku1 + 2.0 * eu_h * (ku2 + ku3) + ku4) / 6.0
    tau1 = et_f * tau0 + (et_f * kt1 + 2.0 * et_h * (kt2 + kt3) + kt4) / 6.0
    u1 = _project(grid, u1)
    return FlowState(VectorField(grid, u1),
                     TensorField(grid, tau1, "symmetric"), t0 + dt)


@dataclass
class IntegrationResult:
    state: FlowState
    steps: int
    events: List[dict]


def integrate(state: FlowState, params: ModelParams, config: StepperConfig,
              callbacks: Sequence[Tuple[int, Callable[[FlowState, int], None]]] = (),
              ) -> IntegrationResult:
    """March to t_end, firing callbacks every given number of steps.

    Each callback is a (cadence, fn) pair; fn(state, step_index) runs at
    step 0, every cadence steps, and at the final step.  Fixed step sizes
    use t = i * dt arithmetic so repeated runs are bit-identical; a trailing
    partial step closes any remainder.  Non-finite values abort the march
    with a BlowUpError carrying the last finite state.
    """
    events: List[dict] = [{"event": "start", "t": state.t, "step": 0}]
    for _, fn in callbacks:
        fn(state, 0)
    t_end = config.t_end
    if t_end == 0.0:
        state._handoff = None  # no step follows the record
        events.append({"event": "end", "t": state.t, "step": 0})
        return IntegrationResult(state, 0, events)

    auto = config.dt == "auto"
    t0 = state.t
    target = t0 + t_end
    if auto:
        schedule = None
    else:
        dt = float(config.dt)
        n_full = int(math.floor(t_end / dt + 1e-9))
        remainder = t_end - n_full * dt
        if remainder < 1e-12 * max(dt, 1.0):
            remainder = 0.0
        schedule = (dt, n_full, remainder)

    i = 0
    current = state
    while True:
        if auto:
            dt_i = min(cfl_dt(current, config), target - current.t)
            if dt_i <= 0:
                break
            next_t = None
        else:
            dt, n_full, remainder = schedule
            if i < n_full:
                dt_i = dt
                next_t = t0 + (i + 1) * dt
            elif remainder > 0.0 and i == n_full:
                dt_i = remainder
                next_t = target
            else:
                break
        # overflow during a diverging step is reported via BlowUpError, so
        # the intermediate inf/nan arithmetic need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            new = step(current, params, dt_i, config.scheme)
        if next_t is not None:
            new.t = next_t
        i += 1
        if not (np.all(np.isfinite(new.u.comps)) and
                np.all(np.isfinite(new.tau.comps))):
            events.append({"event": "blow-up", "t": current.t, "step": i})
            raise BlowUpError(current, i)
        current = new
        finished = (target - current.t) <= 1e-12 * max(1.0, abs(target))
        for every, fn in callbacks:
            if i % every == 0 or finished:
                fn(current, i)
        if finished:
            break
    current._handoff = None  # the last record's tendency serves no step
    events.append({"event": "end", "t": current.t, "step": i})
    return IntegrationResult(current, i, events)
