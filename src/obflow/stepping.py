"""Integrating-factor time stepping for the stress-velocity system.

The diagonal dissipation (nu |k|^(2 alpha) on u, eta |k|^(2 beta) + a on
tau) is integrated exactly through exponential factors; everything else is
advanced explicitly by classical fourth-order Runge-Kutta in the
integrating-factor variables.

With all explicit terms switched off a step reduces to the exact
mode-by-mode decay, whatever the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

# explicit_rhs and leray_project are not called here since step runs on
# compact coefficients; they stay importable from this module, where the
# tracer of perfbench/spans.py looks them up
from .model import (  # noqa: F401
    FlowState,
    ModelParams,
    Tendency,
    _dissipation_rates,
    _explicit_terms,
    explicit_rhs,
    tendency,
)
from .spectral import (  # noqa: F401
    Grid,
    SupportTable,
    TensorField,
    VectorField,
    _leray,
    check_fields,
    leray_project,
)

class BlowUpError(RuntimeError):
    """A step produced non-finite values; carries the last finite state and
    field, the first non-finite component of the step ("u[1]", "tau[0,1]")."""

    def __init__(self, state: FlowState, step: int, field: str):
        super().__init__(f"solution lost finiteness in {field} after step "
                         f"{step} (t = {state.t:g})")
        self.state = state
        self.step = step
        self.field = field


def _first_non_finite(state: FlowState) -> str:
    """u components first, then tau in triangle order."""
    names = [f"u[{i}]" for i in range(state.grid.d)] + \
        [f"tau[{i},{j}]" for i, j in state.tau.pairs]
    return next(name for name, c in zip(names, [*state.u.comps, *state.tau.comps])
                if not np.all(np.isfinite(c)))


@dataclass(frozen=True)
class StepperConfig:
    """Step-size policy.

    dt may be a positive float or "auto", in which case every step uses the
    CFL bound below (capped by dt_cap).
    """

    dt: Union[float, str] = "auto"
    t_end: float = 1.0
    cfl_advective: float = 0.4
    cfl_wave: float = 0.4
    dt_cap: float = 1e-2

    def __post_init__(self):
        positive = (lambda v: v > 0, "must be positive")
        check_fields(self, (
            ("dt", lambda v: v == "auto" if isinstance(v, str) else v > 0,
             "must be positive or 'auto'"),
            ("t_end", lambda v: v >= 0, "must be >= 0"),
            ("cfl_advective",) + positive,
            ("cfl_wave",) + positive,
            ("dt_cap",) + positive,
        ))


def cfl_dt(state: FlowState, config: StepperConfig) -> float:
    """Step bound min(c_adv dx / max|u|, c_wave sqrt(2) / k_max, dt_cap).

    The wave bound reflects the k / sqrt(2) oscillation frequency of the
    coupled velocity-stress mode pair; a zero state returns dt_cap.
    """
    return _cfl_bound(state.grid, float(np.max(np.abs(state.u.to_physical()))),
                      config)


def _cfl_bound(grid: Grid, u_max: float, config: StepperConfig) -> float:
    """cfl_dt of a state whose max |u| over the grid is u_max."""
    dt = config.dt_cap
    if u_max > 0:
        dt = min(dt, config.cfl_advective * grid.dx / u_max)
    k_max = grid.n // 2
    dt = min(dt, config.cfl_wave * math.sqrt(2.0) / k_max)
    return dt


def _stage(table: SupportTable, params: ModelParams, u: np.ndarray,
           tau: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """dt times the explicit tendencies at compact (u, tau): one RK4
    stage."""
    stage = _explicit_terms(u, tau, table, params)[0]
    return dt * stage.du, dt * stage.dtau


def step(state: FlowState, params: ModelParams, dt: float,
         first: Optional[Tendency] = None) -> FlowState:
    """Advance one RK4 step in the variables z = exp(L (t - t0)) y; u is
    projected once, at the end.  Each stage input combines u0 (projected by
    make_initial_data or the step before) with kernel tendencies, whose du
    the kernel projects.

    first, if given, must be the model.Tendency of state under params;
    else it is evaluated here.  It serves as stage 1, its support table
    (model._state_table) as the step's, and the compact u and tau it
    carries as the step's start, so the step gathers none of state's
    arrays: the stage algebra, the projection and the other three kernel
    evaluations run on the table's compact coefficients, which are
    scattered back to the half layout at the end.
    Only stage 1 checks Hermitian symmetry (model._evaluate): the later
    stage inputs are built from checked arrays and the kernel's outputs.
    A state that is zero outside the 2/3 box stays so, as the linear terms
    act mode by mode and the nonlinear ones are dealiased, so the box table
    holds the whole step.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    if first is None:
        first = tendency(state, params)
    table = first.table
    rate_u, rate_tau = _dissipation_rates(table, params)
    eu_h, et_h = np.exp(-0.5 * dt * rate_u), np.exp(-0.5 * dt * rate_tau)
    eu_f, et_f = np.exp(-dt * rate_u), np.exp(-dt * rate_tau)
    del rate_u, rate_tau
    u0, tau0, t0 = first.u, first.tau, state.t

    ku, kt = dt * first.du, dt * first.dtau
    del first

    u_s = eu_h * (u0 + 0.5 * ku)
    tau_s = et_h * (tau0 + 0.5 * kt)
    # su, st sum eu_f k1 + 2 eu_h (k2 + k3) + k4 in this order as the
    # stages end, and each stage tendency is dropped once it is summed, so
    # a stage evaluation sees at most k2 beside the sums and its input
    su, st = eu_f * ku, et_f * kt
    del ku, kt
    ku, kt = _stage(table, params, u_s, tau_s, dt)

    u_s = eu_h * u0 + 0.5 * ku
    tau_s = et_h * tau0 + 0.5 * kt
    ku3, kt3 = _stage(table, params, u_s, tau_s, dt)

    u_s = eu_f * u0 + eu_h * ku3
    tau_s = et_f * tau0 + et_h * kt3
    su += 2.0 * eu_h * (ku + ku3)
    st += 2.0 * et_h * (kt + kt3)
    del ku, kt, ku3, kt3
    ku, kt = _stage(table, params, u_s, tau_s, dt)

    su += ku
    st += kt
    su /= 6.0
    st /= 6.0
    return FlowState(
        VectorField(grid, table.scatter(_leray(eu_f * u0 + su, table))),
        TensorField(grid, table.scatter(et_f * tau0 + st)), t0 + dt)


@dataclass
class IntegrationResult:
    state: FlowState
    steps: int


def integrate(state: FlowState, params: ModelParams, config: StepperConfig,
              callbacks: Sequence[Tuple[int, Callable[[FlowState, int], object]]] = (),
              ) -> IntegrationResult:
    """March to t_end, firing callbacks every given number of steps.

    Each callback is a (cadence, fn) pair; fn(state, step_index) runs at
    step 0, every cadence steps, and at the final step.  fn may return the
    model.Tendency of its state (DiagnosticsCollector.observe does); one of
    params is the next step's first stage, else integrate evaluates it, and
    with dt "auto" its u_max gives the CFL bound.  Fixed step sizes use
    t = i * dt arithmetic so repeated runs are bit-identical; a trailing
    partial step closes any remainder.  Non-finite values abort the march
    with a BlowUpError carrying the last finite state.
    """
    t_end = config.t_end
    auto = config.dt == "auto"
    t0 = state.t
    target = t0 + t_end
    if not auto:
        dt = float(config.dt)
        n_full = int(math.floor(t_end / dt + 1e-9))
        remainder = t_end - n_full * dt
        if remainder < 1e-12 * max(dt, 1.0):
            remainder = 0.0

    i = 0
    current, state = state, None  # the first step consumes the initial state
    finished = t_end == 0.0
    while True:
        # the first stage, popped into step: no name here outlives stage 1
        first = []
        for every, fn in callbacks:
            if i % every == 0 or finished:
                first.append(fn(current, i))
        first = [h for h in first
                 if isinstance(h, Tendency) and h.params == params][-1:]
        if finished:
            break
        # overflow during a diverging step is reported via BlowUpError, so
        # the intermediate inf/nan arithmetic need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            first = first or [tendency(current, params)]
            if auto:
                dt_i = min(cfl_dt(current, config) if first[0].u_max is None
                           else _cfl_bound(current.grid, first[0].u_max, config),
                           target - current.t)
                if dt_i <= 0:
                    break
                next_t = None
            elif i < n_full:
                dt_i = dt
                next_t = t0 + (i + 1) * dt
            elif remainder > 0.0 and i == n_full:
                dt_i = remainder
                next_t = target
            else:
                break
            new = step(current, params, dt_i, first.pop())
        if next_t is not None:
            new.t = next_t
        i += 1
        if not (np.all(np.isfinite(new.u.comps)) and
                np.all(np.isfinite(new.tau.comps))):
            raise BlowUpError(current, i, _first_non_finite(new))
        current = new
        finished = (target - current.t) <= 1e-12 * max(1.0, abs(target))
    return IntegrationResult(current, i)
