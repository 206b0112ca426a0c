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

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .spectral import (
    Field,
    Grid,
    GridMismatchError,
    SpectralField,
    TensorField,
    VectorField,
    _data,
    _forward,
    _inverse,
    dealias,
    divergence,
    fractional_laplacian,
    l2_inner_product,
    leray_project,
    sobolev_norm,
)


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
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not -1.0 <= self.b <= 1.0:
            raise ValueError(f"b must lie in [-1, 1], got {self.b}")
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("fractional exponents must be >= 0, got "
                             f"alpha={self.alpha}, beta={self.beta}")

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
        if self.tau.kind != "symmetric":
            raise ValueError("stress tensor must use symmetric storage")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "FlowState":
        return FlowState(self.u.copy(), self.tau.copy(), self.t)


def strain_rate(u: VectorField) -> TensorField:
    """Symmetric gradient D(u)_ij = (du_i/dx_j + du_j/dx_i) / 2."""
    grid = u.grid
    ik = grid.derivative_multipliers
    pairs = TensorField.zeros(grid, "symmetric").pairs
    comps = np.empty((len(pairs),) + grid.shape, dtype=np.complex128)
    for m, (i, j) in enumerate(pairs):
        comps[m] = 0.5 * (ik[j] * u.comps[i] + ik[i] * u.comps[j])
    return TensorField(grid, comps, "symmetric")


def vorticity_tensor(u: VectorField) -> TensorField:
    """Antisymmetric gradient W(u)_ij = (du_i/dx_j - du_j/dx_i) / 2."""
    grid = u.grid
    ik = grid.derivative_multipliers
    pairs = TensorField.zeros(grid, "skew").pairs
    comps = np.empty((len(pairs),) + grid.shape, dtype=np.complex128)
    for m, (i, j) in enumerate(pairs):
        comps[m] = 0.5 * (ik[j] * u.comps[i] - ik[i] * u.comps[j])
    return TensorField(grid, comps, "skew")


def _gradient_physical(field_comps: np.ndarray, grid: Grid) -> np.ndarray:
    """Physical samples of all first derivatives; shape (m, d, *grid)."""
    ik = grid.derivative_multipliers
    m = field_comps.shape[0]
    grads = np.empty((m, grid.d) + grid.shape, dtype=np.complex128)
    for axis in range(grid.d):
        grads[:, axis] = field_comps * ik[axis]
    return _inverse(grads, grid)


def _full_physical_tensor(tau: TensorField) -> np.ndarray:
    """Dense (d, d, *grid) physical samples of a symmetric tensor."""
    grid = tau.grid
    tri = _inverse(tau.comps, grid)
    out = np.empty((grid.d, grid.d) + grid.shape)
    for m, (i, j) in enumerate(tau.pairs):
        out[i, j] = tri[m]
        if i != j:
            out[j, i] = tri[m]
    return out


def advect(u: VectorField, f: Field) -> Field:
    """Dealiased pseudo-spectral transport term u . grad f.

    Derivatives are taken spectrally, the product is formed on the grid,
    and the result is transformed back and dealiased.
    """
    grid = u.grid
    if f.grid != grid:
        raise GridMismatchError("advecting field lives on a different grid")
    u_phys = u.to_physical()
    data = _data(f)
    scalar = isinstance(f, SpectralField)
    comps = data[None] if scalar else data
    grads = _gradient_physical(comps, grid)
    products = np.einsum("j...,mj...->m...", u_phys, grads)
    out = _forward(products, grid) * grid.dealias_mask
    if scalar:
        return f.with_coeffs(out[0])
    return f.with_comps(out)


def _q_triangle_physical(tau: TensorField, grad_u: np.ndarray, b: float) -> np.ndarray:
    """Physical samples of the upper triangle of Q(tau, grad u).

    Both contributions are assembled as M + M^T on the grid, so the result
    is symmetric by construction:
    tau W - W tau = M + M^T with M = tau W, and D tau + tau D likewise.
    """
    grid = tau.grid
    swap = (1, 0) + tuple(range(2, 2 + grid.d))
    gt = grad_u.transpose(swap)
    d_phys = 0.5 * (grad_u + gt)
    w_phys = 0.5 * (grad_u - gt)
    tau_phys = _full_physical_tensor(tau)
    tw = np.einsum("ab...,bc...->ac...", tau_phys, w_phys)
    dt = np.einsum("ab...,bc...->ac...", d_phys, tau_phys)
    q_full = (tw + tw.transpose(swap)) - b * (dt + dt.transpose(swap))
    tri = np.empty((len(tau.pairs),) + grid.shape)
    for m, (i, j) in enumerate(tau.pairs):
        tri[m] = q_full[i, j]
    return tri


def q_bilinear(tau: TensorField, u: VectorField, b: float) -> TensorField:
    """Dealiased bilinear stress term Q = tau W - W tau - b (D tau + tau D)."""
    grid = tau.grid
    if u.grid != grid:
        raise GridMismatchError("velocity and stress grids differ")
    grad_u = _gradient_physical(u.comps, grid)      # grad_u[i, j] = dj u_i
    tri = _q_triangle_physical(tau, grad_u, b)
    out = _forward(tri, grid) * grid.dealias_mask
    return TensorField(grid, out, "symmetric")


def dissipation_rates(grid: Grid, params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal decay rates (velocity, stress) honouring the toggles.

    rate_u = nu |k|^(2 alpha), rate_tau = eta |k|^(2 beta) + a, with the
    k = 0 convention of the fractional Laplacian.
    """
    rate_u = params.nu_eff * grid.fractional_multiplier(params.alpha) \
        if params.nu_eff else np.zeros(grid.shape)
    rate_tau = params.eta_eff * grid.fractional_multiplier(params.beta) \
        if params.eta_eff else np.zeros(grid.shape)
    if params.a_eff:
        rate_tau = rate_tau + params.a_eff
    return rate_u, rate_tau


def _explicit_terms(state: FlowState, params: ModelParams,
                    ) -> Tuple[VectorField, TensorField, Optional[np.ndarray]]:
    """Kernel of explicit_rhs, plus the physical Q triangle (None if Q is off).

    u, grad u, grad tau and tau are inverted one stack each; u.grad tau and
    Q are summed on the grid and transformed once.
    """
    grid = state.grid
    tg = params.toggles
    u, tau = state.u, state.tau
    mask = grid.dealias_mask

    du = np.zeros((grid.d,) + grid.shape, dtype=np.complex128)
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
        nl = np.einsum("j...,mj...->m...", u_phys,
                       _gradient_physical(tau.comps, grid))
    q_tri = _q_triangle_physical(tau, grad_u, params.b) if tg.q_term else None
    if q_tri is not None:
        # in place into the advection samples, so q_tri itself survives
        nl = q_tri if nl is None else np.add(nl, q_tri, out=nl)
    if nl is not None:
        dtau -= _forward(nl, grid) * mask

    return du_field, TensorField(grid, dtau, "symmetric"), q_tri


def explicit_rhs(state: FlowState, params: ModelParams) -> Tuple[VectorField, TensorField]:
    """Tendencies without the diagonal dissipation/damping terms.

    This is the stiff-free part handled explicitly by the integrating-factor
    steppers.  The momentum tendency is Leray-projected.  One call inverts
    15 components and forward-transforms 5 in 2D (36 and 9 in 3D): u.grad
    tau and Q(tau, grad u) are summed on the grid before one transform.

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


def recover_pressure(state: FlowState, params: ModelParams) -> SpectralField:
    """Zero-mean pressure whose gradient closes the momentum balance.

    grad p is the non-solenoidal part of the momentum forcing
    G = -u.grad u + div tau, i.e. p = Lap^{-1} div G.
    """
    grid = state.grid
    tg = params.toggles
    g = np.zeros((grid.d,) + grid.shape, dtype=np.complex128)
    if tg.stress_divergence:
        g += divergence(state.tau).comps
    if tg.advection_u:
        u_phys = state.u.to_physical()
        grad_u = _gradient_physical(state.u.comps, grid)
        nl = np.einsum("j...,ij...->i...", u_phys, grad_u)
        g -= _forward(nl, grid) * grid.dealias_mask
    ik = grid.derivative_multipliers
    div_g = np.zeros(grid.shape, dtype=np.complex128)
    for j in range(grid.d):
        div_g += ik[j] * g[j]
    ksq = grid.k_squared
    coeffs = np.where(ksq > 0, -div_g / np.where(ksq > 0, ksq, 1), 0.0)
    return SpectralField(grid, coeffs)


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


def energy_balance_residual(state: FlowState, params: ModelParams) -> float:
    """Relative residual of the instantaneous L2 energy identity."""
    return energy_budget(state, params)["residual_rel"]


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


def make_initial_data(grid: Grid, recipe: str = "random-band",
                      epsilon: float = 1e-2, s: Optional[float] = None,
                      seed: int = 0, mode: Optional[Sequence[int]] = None,
                      band: Tuple[int, int] = (1, 4)) -> FlowState:
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
    epsilon; epsilon = 0 yields the zero state.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if s is None:
        s = 1.0 + grid.d / 2.0 + 0.01
    u = VectorField.zeros(grid)
    tau = TensorField.zeros(grid, "symmetric")

    if epsilon == 0.0:
        return FlowState(u, tau, 0.0)

    if recipe == "single-mode":
        kvec = tuple(int(m) for m in (mode if mode is not None
                                      else (0,) * (grid.d - 1) + (1,)))
        if len(kvec) != grid.d or all(m == 0 for m in kvec):
            raise ValueError(f"mode must be a nonzero {grid.d}-vector, got {kvec}")
        if any(abs(m) >= grid.n // 2 for m in kvec):
            raise ValueError(f"mode {kvec} is not resolved on n={grid.n}")
        direction = _orthogonal_direction(kvec)
        plus = grid.mode_index(kvec)
        minus = grid.mode_index(tuple(-m for m in kvec))
        for i in range(grid.d):
            u.comps[(i,) + plus] = 0.5 * direction[i]
            u.comps[(i,) + minus] = 0.5 * direction[i]
        row = int(np.argmax(np.abs(direction)))
        col = int(np.argmax(np.abs(np.asarray(kvec))))
        m = tau.pair_index(row, col)
        tau.comps[(m,) + plus] = 0.25
        tau.comps[(m,) + minus] = 0.25
    elif recipe == "random-band":
        lo, hi = int(band[0]), int(band[1])
        if not 1 <= lo <= hi:
            raise ValueError(f"band must satisfy 1 <= lo <= hi, got {band}")
        rng = np.random.default_rng(seed)
        ksq = grid.k_squared
        keep = (ksq >= lo * lo) & (ksq <= hi * hi)
        u = VectorField.from_physical(
            grid, rng.standard_normal((grid.d,) + grid.shape))
        u = u.with_comps(u.comps * keep)
        tau = TensorField.from_physical(
            grid, rng.standard_normal((len(tau.pairs),) + grid.shape))
        tau = tau.with_comps(tau.comps * keep)
    elif recipe == "taylor-green":
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
    else:
        raise ValueError(f"unknown initial-data recipe {recipe!r}")

    u = leray_project(u)
    size = sobolev_norm(u, s) + sobolev_norm(tau, s)
    if size == 0.0:
        raise ValueError(f"recipe {recipe!r} produced an empty state")
    scale = epsilon / size
    return FlowState(u.with_comps(u.comps * scale),
                     tau.with_comps(tau.comps * scale), 0.0)
