"""Incompressible Oldroyd-B dynamics with fractional stress dissipation.

The evolved system on the torus is

    du/dt + u.grad u + grad p = div tau - nu (-Lap)^alpha u,   div u = 0,
    dtau/dt + u.grad tau + eta (-Lap)^beta tau + a tau + Q(tau, grad u) = D(u),

with Q(tau, G) = tau W - W tau - b (D tau + tau D), where D and W are the
symmetric and antisymmetric parts of G = grad u and b is in [-1, 1].  The
gradient convention is G[i, j] = du_i/dx_j.

Every right-hand-side term has its own switch in TermToggles so the pieces
can be tested in isolation; the momentum tendency is always returned inside
the divergence-free subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .spectral import (
    SYM_PAIRS,
    ConfigError,
    Grid,
    GridMismatchError,
    TensorField,
    VectorField,
    _forward,
    _inverse,
    check_fields,
    divergence,
    fractional_laplacian,
    l2_inner_product,
    leray_project,
    sobolev_norm,
)

RECIPES = ("single-mode", "random-band", "taylor-green")


@dataclass(frozen=True)
class TermToggles:
    """Per-term switches for the right-hand side (all on by default)."""

    advection_u: bool = True        # u . grad u
    advection_tau: bool = True      # u . grad tau
    q_term: bool = True             # Q(tau, grad u)
    stress_divergence: bool = True  # div tau forcing the momentum equation
    strain_source: bool = True      # D(u) forcing the stress equation
    nu_dissipation: bool = True     # nu (-Lap)^alpha u
    eta_dissipation: bool = True    # eta (-Lap)^beta tau
    damping: bool = True            # a tau

    @classmethod
    def linear_waves(cls) -> "TermToggles":
        """Only the coupled linear terms: the damped-wave test system."""
        return cls(advection_u=False, advection_tau=False, q_term=False)

    @classmethod
    def dissipation_only(cls) -> "TermToggles":
        """Diagonal dissipation and damping only; no transport, no coupling."""
        return cls(advection_u=False, advection_tau=False, q_term=False,
                   stress_divergence=False, strain_source=False)


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the stress-velocity system.

    eta, beta : stress dissipation strength and fractional exponent.
    nu, alpha : optional velocity dissipation strength and exponent.
    b         : slip parameter of the bilinear term, in [-1, 1].
    a         : optional linear stress damping, >= 0.
    """

    eta: float = 1.0
    beta: float = 1.0
    nu: float = 0.0
    alpha: float = 1.0
    b: float = 0.0
    a: float = 0.0
    toggles: TermToggles = field(default_factory=TermToggles)

    def __post_init__(self):
        exponent = (lambda v: v >= 0,
                    "must be >= 0 (dissipation exponents are nonnegative)")
        check_fields(self, (
            ("eta", lambda v: v > 0, "must be positive"),
            ("beta",) + exponent,
            ("nu", lambda v: v >= 0, "must be >= 0"),
            ("alpha",) + exponent,
            ("b", lambda v: -1.0 <= v <= 1.0, "must lie in [-1, 1]"),
            ("a", lambda v: v >= 0, "must be >= 0"),
        ))

    @property
    def eta_eff(self) -> float:
        return self.eta if self.toggles.eta_dissipation else 0.0

    @property
    def nu_eff(self) -> float:
        return self.nu if self.toggles.nu_dissipation else 0.0

    @property
    def a_eff(self) -> float:
        return self.a if self.toggles.damping else 0.0

    def warnings(self) -> List[str]:
        """Soft parameter checks; offending configs still run."""
        out = []
        if not 0.5 <= self.beta <= 1.0:
            out.append(f"beta={self.beta} lies outside [0.5, 1], where the "
                       "stress dissipation is known to control the coupling")
        if self.nu > 0:
            cap = min(1.0, 3.0 * self.beta - 1.0)
            if self.alpha > cap:
                out.append(f"alpha={self.alpha} exceeds min(1, 3*beta-1)="
                           f"{cap:g}; uniform-in-nu behaviour is not covered")
        return out


@dataclass
class FlowState:
    """Velocity (divergence-free) and symmetric stress at one time.

    energy_budget leaves the explicit tendency it computed on the state, as
    a one-slot hand-off keyed by the model parameters; the next
    explicit_rhs call on the same state with equal parameters returns it
    instead of recomputing it, and every explicit_rhs call drops it.  So a
    state's arrays must not be mutated in place once its tendency was taken;
    build a new state (or a copy, which carries no hand-off) instead.
    """

    u: VectorField
    tau: TensorField
    t: float = 0.0
    _handoff: Optional[Tuple[ModelParams, VectorField, TensorField]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.u.grid != self.tau.grid:
            raise GridMismatchError("velocity and stress grids differ")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "FlowState":
        return FlowState(self.u.copy(), self.tau.copy(), self.t)


def strain_rate(u: VectorField) -> TensorField:
    """Symmetric gradient D(u)_ij = (du_i/dx_j + du_j/dx_i) / 2."""
    grid = u.grid
    ik = grid.derivative_multipliers
    pairs = SYM_PAIRS[grid.d]
    comps = np.empty((len(pairs),) + grid.spectral_shape, dtype=np.complex128)
    for m, (i, j) in enumerate(pairs):
        comps[m] = 0.5 * (ik[j] * u.comps[i] + ik[i] * u.comps[j])
    return TensorField(grid, comps)


def _gradient_physical(field_comps: np.ndarray, grid: Grid) -> np.ndarray:
    """Physical samples of all first derivatives; shape (m, d, *grid)."""
    ik = grid.derivative_multipliers
    m = field_comps.shape[0]
    grads = np.empty((m, grid.d) + grid.spectral_shape, dtype=np.complex128)
    for axis in range(grid.d):
        np.multiply(field_comps, ik[axis], out=grads[:, axis])
    return _inverse(grads, grid)


def _q_triangle_physical(tau: TensorField, grad_u: np.ndarray, b: float) -> np.ndarray:
    """Physical samples of the upper triangle of Q(tau, grad u).

    Q_ij = (M_ij + M_ji) - b (N_ij + N_ji) with M = tau W and N = D tau, so
    the result is symmetric by construction.  Each entry of M and N is
    summed over k in ascending order, pair by pair from the tau triangle
    and grad u, with no dense tensor; the k = j term of M is skipped, as
    W_jj = 0, and D_ii is G_ii, which 0.5 (G_ii + G_ii) equals exactly.
    The rounding is that of the dense products M + M^T.
    """
    grid, d = tau.grid, tau.grid.d
    tri = _inverse(tau.comps, grid)
    t = [[tri[tau.pair_index(i, j)] for j in range(d)] for i in range(d)]
    w = [[None] * d for _ in range(d)]  # None marks the zero diagonal
    s = [[grad_u[i, i]] * d for i in range(d)]  # off-diagonals set below
    for i, j in tau.pairs:
        if i != j:
            w[i][j] = 0.5 * (grad_u[i, j] - grad_u[j, i])
            w[j][i] = -w[i][j]
            s[i][j] = s[j][i] = 0.5 * (grad_u[i, j] + grad_u[j, i])

    def product(a, c, i, j):  # (a c)_ij, summed over k in ascending order
        return reduce(np.add, [a[i][k] * c[k][j] for k in range(d)
                               if c[k][j] is not None])

    out = np.empty((len(tau.pairs),) + grid.shape)
    for m, (i, j) in enumerate(tau.pairs):
        rot, slip = product(t, w, i, j), product(s, t, i, j)
        rot += rot if i == j else product(t, w, j, i)
        slip += slip if i == j else product(s, t, j, i)
        slip *= b
        np.subtract(rot, slip, out=out[m])
    return out


def dissipation_rates(grid: Grid, params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal decay rates (velocity, stress) honouring the toggles.

    rate_u = nu |k|^(2 alpha), rate_tau = eta |k|^(2 beta) + a, with the
    k = 0 convention of the fractional Laplacian.
    """
    rate_u = params.nu_eff * grid.fractional_multiplier(params.alpha) \
        if params.nu_eff else np.zeros(grid.spectral_shape)
    rate_tau = params.eta_eff * grid.fractional_multiplier(params.beta) \
        if params.eta_eff else np.zeros(grid.spectral_shape)
    if params.a_eff:
        rate_tau = rate_tau + params.a_eff
    return rate_u, rate_tau


def _explicit_terms(state: FlowState, params: ModelParams,
                    ) -> Tuple[VectorField, TensorField, Optional[np.ndarray]]:
    """Kernel of explicit_rhs, plus the physical Q triangle (None if Q is off).

    The only place the nonlinear terms u.grad u, u.grad tau and Q are built.

    u, grad u and tau are inverted one stack each, and grad tau one stress
    component at a time, each contracted with u into its row of u.grad tau
    at once; u.grad tau and Q are summed on the grid and transformed once.
    """
    grid = state.grid
    tg = params.toggles
    u, tau = state.u, state.tau
    mask = grid.dealias_mask

    du = np.zeros((grid.d,) + grid.spectral_shape, dtype=np.complex128)
    dtau = np.zeros_like(tau.comps)

    need_u_phys = tg.advection_u or tg.advection_tau or tg.q_term
    u_phys = u.to_physical() if need_u_phys else None
    grad_u = _gradient_physical(u.comps, grid) \
        if (tg.advection_u or tg.q_term) else None

    if tg.stress_divergence:
        du += divergence(tau).comps
    if tg.advection_u:
        nl = np.einsum("j...,ij...->i...", u_phys, grad_u)
        du -= _forward(nl, grid) * mask
    du_field = leray_project(VectorField(grid, du))

    if tg.strain_source:
        dtau += strain_rate(u).comps
    nl = None
    if tg.advection_tau:
        # one stress component at a time: the m d-component gradient stack
        # would be the largest array of the step
        nl = np.empty((len(tau.pairs),) + grid.shape)
        for m in range(len(tau.pairs)):
            np.einsum("j...,mj...->m...", u_phys,
                      _gradient_physical(tau.comps[m:m + 1], grid),
                      out=nl[m:m + 1])
    q_tri = _q_triangle_physical(tau, grad_u, params.b) if tg.q_term else None
    if q_tri is not None:
        # in place into the advection samples, so q_tri itself survives
        nl = q_tri if nl is None else np.add(nl, q_tri, out=nl)
    if nl is not None:
        dtau -= _forward(nl, grid) * mask

    return du_field, TensorField(grid, dtau), q_tri


def explicit_rhs(state: FlowState, params: ModelParams) -> Tuple[VectorField, TensorField]:
    """Tendencies without the diagonal dissipation/damping terms.

    This is the stiff-free part handled explicitly by the integrating-factor
    steppers.  The momentum tendency is Leray-projected.  One call inverts
    15 components and forward-transforms 5 in 2D (36 and 9 in 3D): u, grad
    u and tau as one stack each, grad tau one stress component at a time;
    u.grad tau and Q(tau, grad u) are summed on the grid before one
    transform.

    A tendency that energy_budget handed off on this state with equal
    params is returned as is, without a transform; any hand-off is dropped
    by the call (see FlowState).
    """
    handoff, state._handoff = state._handoff, None
    if handoff is not None and handoff[0] == params:
        return handoff[1], handoff[2]
    du, dtau, _ = _explicit_terms(state, params)
    return du, dtau


def _with_dissipation(state: FlowState, params: ModelParams, du: VectorField,
                      dtau: TensorField) -> Tuple[VectorField, TensorField]:
    rate_u, rate_tau = dissipation_rates(state.grid, params)
    return (du.with_comps(du.comps - rate_u * state.u.comps),
            dtau.with_comps(dtau.comps - rate_tau * state.tau.comps))


def rhs(state: FlowState, params: ModelParams) -> Tuple[VectorField, TensorField]:
    """Full tendencies (du/dt, dtau/dt) of the toggled system."""
    return _with_dissipation(state, params, *explicit_rhs(state, params))


def energy_budget(state: FlowState, params: ModelParams) -> dict:
    """Instantaneous L2 energy balance of the toggled system.

    Returns the work and dissipation terms together with the residual of

        <u, du/dt> + <tau, dtau/dt> + eta ||L^beta tau||^2
            + nu ||L^alpha u||^2 + a ||tau||^2 + <Q, tau> = 0,

    which holds whenever the two coupling terms are toggled together (their
    works cancel exactly) and advection is either off or dealiased.

    The tendencies and <Q, tau> come from one evaluation of the explicit
    terms (15 inverse and 5 forward components in 2D, 36 and 9 in 3D) plus
    one forward transform of the physical Q triangle (3 or 6 components).
    The explicit tendency is then handed off on the state, so the next step
    from this state skips its first evaluation (see FlowState).
    """
    grid = state.grid
    u, tau = state.u, state.tau
    du, dtau, q_tri = _explicit_terms(state, params)
    state._handoff = (params, du, dtau)
    du, dtau = _with_dissipation(state, params, du, dtau)
    u_work = l2_inner_product(u, du)
    tau_work = l2_inner_product(tau, dtau)
    diss_tau_l2 = l2_inner_product(fractional_laplacian(tau, params.beta), tau) \
        if params.eta_eff else 0.0
    visc_u_l2 = l2_inner_product(fractional_laplacian(u, params.alpha), u) \
        if params.nu_eff else 0.0
    tau_sq = l2_inner_product(tau, tau)
    q_work = l2_inner_product(tau.with_comps(
        _forward(q_tri, grid) * grid.dealias_mask), tau) \
        if q_tri is not None else 0.0
    terms = {
        "u_work": u_work,
        "tau_work": tau_work,
        "diss_tau_l2": diss_tau_l2,
        "visc_u_l2": visc_u_l2,
        "q_work": q_work,
    }
    residual = (u_work + tau_work + params.eta_eff * diss_tau_l2
                + params.nu_eff * visc_u_l2 + params.a_eff * tau_sq + q_work)
    scale = max(abs(u_work), abs(tau_work), params.eta_eff * diss_tau_l2,
                params.nu_eff * visc_u_l2, params.a_eff * tau_sq, abs(q_work))
    terms["residual"] = residual
    terms["residual_rel"] = abs(residual) / scale if scale > 0 else 0.0
    return terms


def _orthogonal_direction(mode: Tuple[int, ...]) -> np.ndarray:
    """A unit vector orthogonal to the integer mode (for divergence-free data)."""
    k = np.asarray(mode, dtype=np.float64)
    axis = int(np.argmin(np.abs(k)))
    e = np.zeros(len(mode))
    e[axis] = 1.0
    ksq = float(k @ k)
    v = e - k * (float(e @ k) / ksq)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError(f"cannot build a transverse direction for mode {mode}")
    return v / norm


@dataclass(frozen=True)
class InitialDataConfig:
    """The initial_data config section; its defaults are make_initial_data's."""

    recipe: str = "random-band"
    epsilon: float = 1e-2
    seed: int = 1234
    mode: Optional[Tuple[int, ...]] = None
    band: Tuple[int, int] = (1, 4)


def check_initial_data(grid: Grid, recipe: str, epsilon: float, seed: int,
                       mode: Optional[Sequence[int]],
                       band: Tuple[int, int]) -> None:
    """Raise one ConfigError listing every initial-data rule that is broken.

    make_initial_data and validate_config both call it.  mode and band are
    checked against the grid whatever the recipe: no entry of mode may reach
    n/2, and a band may reach n/2 but not pass it.
    """
    problems = []
    if recipe not in RECIPES:
        problems.append(f"recipe must be one of {RECIPES}, got {recipe!r}")
    if not math.isfinite(epsilon):
        problems.append(f"epsilon must be finite, got {epsilon!r}")
    elif epsilon < 0:
        problems.append(f"epsilon must be >= 0, got {epsilon!r}")
    if seed < 0:
        problems.append(f"seed must be >= 0, got {seed!r}")
    if mode is not None:
        mode = list(mode)
        if len(mode) != grid.d:
            problems.append(f"mode must have {grid.d} entries, got {mode}")
        elif not any(mode):
            problems.append(f"mode must be nonzero, got {mode}")
        elif max(abs(m) for m in mode) >= grid.n // 2:
            problems.append(f"mode {mode} is not resolved on n={grid.n}")
    lo, hi = band
    if not 1 <= lo <= hi:
        problems.append(f"band must satisfy 1 <= lo <= hi, got {list(band)}")
    elif hi > grid.n // 2:
        problems.append(f"band {list(band)} is not resolved on n={grid.n}: "
                        f"hi must be <= {grid.n // 2}")
    if problems:
        raise ConfigError(problems)


def default_sobolev_index(d: int) -> float:
    """1 + d/2 + 0.01: the H^s index used when none is given, just above 1 + d/2."""
    return 1.0 + d / 2.0 + 0.01


def single_mode(grid: Grid, mode: Optional[Sequence[int]]) -> Tuple[int, ...]:
    """The wavevector the single-mode recipe excites: mode, else (0, .., 0, 1)."""
    return tuple(int(m) for m in (mode if mode is not None
                                  else (0,) * (grid.d - 1) + (1,)))


def make_initial_data(grid: Grid, recipe: str = InitialDataConfig.recipe,
                      epsilon: float = InitialDataConfig.epsilon,
                      s: Optional[float] = None,
                      seed: int = InitialDataConfig.seed,
                      mode: Optional[Sequence[int]] = InitialDataConfig.mode,
                      band: Tuple[int, int] = InitialDataConfig.band) -> FlowState:
    """Build a divergence-free state with H^s size exactly epsilon.

    Recipes:

    - "single-mode": one cosine mode in u and in one stress component,
      chosen so the stress actually forces the velocity.  The default mode
      is (0, 1) resp. (0, 0, 1).
    - "random-band": seeded Gaussian samples band-limited to
      band[0] <= |k| <= band[1].
    - "taylor-green": the classical cellular vortex plus a single shear
      stress component.

    The pair (u, tau) is scaled so that ||u||_{H^s} + ||tau||_{H^s} equals
    epsilon; epsilon = 0 yields the zero state.  Arguments that break a rule
    of check_initial_data raise its ConfigError.
    """
    check_initial_data(grid, recipe, epsilon, seed, mode, band)
    s = default_sobolev_index(grid.d) if s is None else s
    u = VectorField.zeros(grid)
    tau = TensorField.zeros(grid)

    if epsilon == 0.0:
        return FlowState(u, tau, 0.0)

    if recipe == "single-mode":
        kvec = single_mode(grid, mode)
        direction = _orthogonal_direction(kvec)
        row = int(np.argmax(np.abs(direction)))
        col = int(np.argmax(np.abs(np.asarray(kvec))))
        m = tau.pair_index(row, col)
        # real amplitudes, so the conjugation flag of the slot is moot; with
        # k_last = 0 the two signs are distinct slots, otherwise the same
        for sign in (1, -1):
            idx, _ = grid.mode_index(tuple(sign * c for c in kvec))
            u.comps[(slice(None),) + idx] = 0.5 * direction
            tau.comps[(m,) + idx] = 0.25
    elif recipe == "random-band":
        lo, hi = int(band[0]), int(band[1])
        rng = np.random.default_rng(seed)
        ksq = grid.k_squared
        keep = (ksq >= lo * lo) & (ksq <= hi * hi)
        u = VectorField.from_physical(
            grid, rng.standard_normal((grid.d,) + grid.shape))
        u = u.with_comps(u.comps * keep)
        tau = TensorField.from_physical(
            grid, rng.standard_normal((len(tau.pairs),) + grid.shape))
        tau = tau.with_comps(tau.comps * keep)
    else:  # taylor-green
        x = grid.coordinates()
        u_phys = np.zeros((grid.d,) + grid.shape)
        if grid.d == 2:
            u_phys[0] = np.sin(x[0]) * np.cos(x[1])
            u_phys[1] = -np.cos(x[0]) * np.sin(x[1])
            shear = np.sin(x[0]) * np.sin(x[1])
        else:
            u_phys[0] = np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2])
            u_phys[1] = -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
            shear = np.sin(x[0]) * np.sin(x[1]) * np.cos(x[2])
        u = VectorField.from_physical(grid, u_phys)
        tau_phys = np.zeros((len(tau.pairs),) + grid.shape)
        tau_phys[tau.pair_index(0, 1)] = shear
        tau = TensorField.from_physical(grid, tau_phys)

    u = leray_project(u)
    size = sobolev_norm(u, s) + sobolev_norm(tau, s)
    if size == 0.0:
        raise ValueError(f"recipe {recipe!r} produced an empty state")
    scale = epsilon / size
    return FlowState(u.with_comps(u.comps * scale),
                     tau.with_comps(tau.comps * scale), 0.0)
