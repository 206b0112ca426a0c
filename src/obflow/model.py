"""Incompressible Oldroyd-B dynamics with fractional stress dissipation.

The evolved system on the torus is

    du/dt + u.grad u + grad p = div tau - nu (-Lap)^alpha u,   div u = 0,
    dtau/dt + u.grad tau + eta (-Lap)^beta tau + a tau + Q(tau, grad u) = D(u),

with Q(tau, G) = tau W - W tau - b (D tau + tau D), where D and W are the
symmetric and antisymmetric parts of G = grad u and b is in [-1, 1].  The
gradient convention is G[i, j] = du_i/dx_j.

Setting eta, nu or a to 0 switches off the stress or velocity dissipation
or the damping; every other right-hand-side term has one switch in
TermToggles, so the pieces can be tested in isolation.  The momentum
tendency is always returned inside the divergence-free subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .spectral import (
    COUNTS,
    PAIR_WEIGHTS,
    SYM_PAIRS,
    TWO_PI,
    ConfigError,
    Grid,
    GridMismatchError,
    SupportTable,
    TensorField,
    VectorField,
    _box_supported,
    _check_hermitian,
    _forward,
    _leray,
    _tensor_divergence,
    _unchecked_inverse,
    check_fields,
    dealias,
    leray_project,
    sobolev_norm,
)

RECIPES = ("single-mode", "random-band", "taylor-green")

# Bound of alpha and beta: |k|^(2 gamma) <= (3 (n/2)^2)^16 is finite for
# every n < 2^31.
MAX_EXPONENT = 16.0


@dataclass(frozen=True)
class TermToggles:
    """Per-term switches for the right-hand side (all on by default).

    A term has a toggle only when no parameter value switches it off: eta
    = 0, nu = 0 and a = 0 switch off eta (-Lap)^beta tau, nu (-Lap)^alpha u
    and a tau.  Transport and the coupling are one toggle each, in both
    equations, so every setting keeps energy_budget's identity.
    """

    advection: bool = True          # u . grad u and u . grad tau
    q_term: bool = True             # Q(tau, grad u)
    coupling: bool = True           # div tau in du/dt and D(u) in dtau/dt

    @property
    def nonlinear(self) -> bool:
        """Transport or Q: the terms that read u and grad u as samples."""
        return self.advection or self.q_term

    @classmethod
    def linear_waves(cls) -> "TermToggles":
        """Only the coupled linear terms: the damped-wave test system."""
        return cls(advection=False, q_term=False)

    @classmethod
    def dissipation_only(cls) -> "TermToggles":
        """Diagonal dissipation and damping only; no transport, no coupling."""
        return cls(advection=False, q_term=False, coupling=False)


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
        exponent = (lambda v: 0 <= v <= MAX_EXPONENT,
                    f"must lie in [0, {MAX_EXPONENT:g}] (dissipation "
                    "exponents are nonnegative, and |k|^(2 gamma) must "
                    "stay finite)")
        check_fields(self, (
            ("eta", lambda v: v >= 0, "must be >= 0"),
            ("beta",) + exponent,
            ("nu", lambda v: v >= 0, "must be >= 0"),
            ("alpha",) + exponent,
            ("b", lambda v: -1.0 <= v <= 1.0, "must lie in [-1, 1]"),
            ("a", lambda v: v >= 0, "must be >= 0"),
        ))

    def warnings(self) -> List[str]:
        """Soft parameter checks; offending configs still run."""
        out = []
        if self.eta == 0:
            out.append("eta=0 switches off the stress dissipation, on which "
                       "the estimates rest")
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
    """Velocity (divergence-free) and symmetric stress at one time."""

    u: VectorField
    tau: TensorField
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.tau.grid:
            raise GridMismatchError("velocity and stress grids differ")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "FlowState":
        return FlowState(self.u.copy(), self.tau.copy(), self.t)


@dataclass(frozen=True)
class Tendency:
    """One kernel evaluation's result (_explicit_terms): the explicit
    tendency under params at u and tau, all in the compact layout of its
    support table (u and tau are a state's own arrays on the whole table),
    and max |u| over the kernel's samples of u (those of u.to_physical(),
    bit for bit), taken whenever the kernel inverts u (None if no term
    does)."""

    table: SupportTable
    u: np.ndarray
    tau: np.ndarray
    du: np.ndarray
    dtau: np.ndarray
    params: ModelParams
    u_max: Optional[float]


def strain_rate(u: VectorField) -> TensorField:
    """Symmetric gradient D(u)_ij = (du_i/dx_j + du_j/dx_i) / 2."""
    return TensorField(u.grid, _strain(u.comps, u.grid.support_table(False)))


def _strain(u: np.ndarray, table: SupportTable) -> np.ndarray:
    """strain_rate of compact velocity coefficients, in compact layout."""
    ik = table.derivative_multipliers
    pairs = SYM_PAIRS[table.grid.d]
    comps = np.empty((len(pairs),) + table.shape, dtype=np.complex128)
    for m, (i, j) in enumerate(pairs):
        comps[m] = 0.5 * (ik[j] * u[i] + ik[i] * u[j])
    return comps


def _stack_chunks(table: SupportTable, m: int, values: bool,
                  derivatives: bool) -> List[Tuple[int, int]]:
    """The (start, stop) rows of each inverse of the stack of m components
    that _invert_rows builds: the whole stack if table.batched, else one
    group per call, the groups being the m values (if values) and then
    each component's d derivatives (if derivatives)."""
    d = table.grid.d
    ends = [m] * values + [m * values + d * (c + 1)
                           for c in range(m * derivatives)]
    if table.batched:
        return [(0, ends[-1])]
    return list(zip([0] + ends[:-1], ends))


def _invert_rows(comps: np.ndarray, table: SupportTable, values: bool,
                 start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Physical samples, into out, of rows start:stop of the stack of
    compact comps: the m values (if values), then the d derivatives of each
    component, i k_j c_i in row v + d i + j (v is m with values, else 0).
    The derivative rows are built with one broadcast product with the
    table's derivative multipliers, and the rows are inverted in one call,
    unchecked, as derivatives keep the Hermitian symmetry of their checked
    source."""
    d = table.grid.d
    v = len(comps) if values else 0
    work = table.workspace("work", (stop - start,) + table.grid.spectral_shape,
                           np.complex128)
    if stop == v:  # the values alone
        return _unchecked_inverse(comps, table, out=out, work=work)
    stack = table.workspace("stack", (stop - start,) + table.shape,
                            np.complex128)
    if start < v:
        stack[:v] = comps
    first, last = (max(start, v) - v) // d, (stop - v) // d
    if last > first:
        np.multiply(comps[first:last, None], table.derivative_multipliers,
                    out=stack[max(start, v) - start:].reshape(
                        (last - first, d) + table.shape))
    return _unchecked_inverse(stack, table, out=out, work=work)


def _q_triangle_physical(tri: np.ndarray, grad_u: np.ndarray, b: float,
                         out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Physical samples of the upper triangle of Q(tau, grad u), into out,
    from those of tau's upper triangle (tri) and of grad u, which it
    overwrites.

    Q = A + A^T with A = tau P and P = W - b D = ((1 - b) G - (1 + b) G^T) / 2,
    so the result is symmetric by construction.  P is written in place in
    grad u's slots, P_kk as -b G_kk; each Q_ij = A_ij + A_ji is summed over
    k in ascending order, with no dense tensor, in place in the output row
    and the three rows of work.
    """
    d = grad_u.shape[0]
    lo, hi = 0.5 * (1.0 - b), 0.5 * (1.0 + b)
    other, transpose, term = work
    for i in range(d):
        grad_u[i, i] *= -b
        for j in range(i + 1, d):  # P_ij and P_ji, from G_ij and G_ji
            np.multiply(grad_u[j, i], hi, out=other)
            np.multiply(grad_u[i, j], hi, out=transpose)
            grad_u[i, j] *= lo
            grad_u[i, j] -= other
            grad_u[j, i] *= lo
            grad_u[j, i] -= transpose
    t = [[None] * d for _ in range(d)]
    for m, (i, j) in enumerate(SYM_PAIRS[d]):
        t[i][j] = t[j][i] = tri[m]

    def a_into(acc, i, j):  # A_ij = sum_k tau_ik P_kj
        np.multiply(t[i][0], grad_u[0, j], out=acc)
        for k in range(1, d):
            np.multiply(t[i][k], grad_u[k, j], out=term)
            acc += term
        return acc

    for m, (i, j) in enumerate(SYM_PAIRS[d]):
        q = a_into(out[m], i, j)
        if i == j:
            q += q
        else:
            q += a_into(other, j, i)
    return out


def dissipation_rates(grid: Grid, params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal decay rates (velocity, stress).

    rate_u = nu |k|^(2 alpha), rate_tau = eta |k|^(2 beta) + a, with the
    k = 0 convention of the fractional Laplacian.
    """
    return _dissipation_rates(grid.support_table(False), params)


def _dissipation_rates(table: SupportTable, params: ModelParams,
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """dissipation_rates in table's compact layout."""
    return (params.nu * table.fractional_multiplier(params.alpha),
            params.eta * table.fractional_multiplier(params.beta)
            + params.a)


def _state_table(state: FlowState) -> SupportTable:
    """The box table if u and tau are zero outside the 2/3 box, else the
    whole table: one scan of each."""
    grid = state.grid
    return grid.support_table(_box_supported(state.u.comps, grid)
                              and _box_supported(state.tau.comps, grid))


def _explicit_terms(u: np.ndarray, tau: np.ndarray, table: SupportTable,
                    params: ModelParams, record: bool = False,
                    ) -> Tuple[Tendency, Optional[np.ndarray],
                               Optional[np.ndarray]]:
    """Kernel of tendency on the compact coefficients u and tau of table:
    (their Tendency, tau's samples if record, and F(Q), the dealiased
    transform of Q in the box table's compact layout, if record and Q is
    on; else None).  The only place the nonlinear terms u.grad u, u.grad
    tau and Q are built.

    Two source stacks are inverted where a term (or the record) reads them:
    [u, grad u] and [tau, grad tau], each built with one broadcast
    product, whole or a group per call as table.batched says (_stack_chunks).
    tau's own samples come first and give Q in its product rows, which a
    record copies into m more rows, before a later chunk overwrites them;
    each chunk of grad tau is contracted with u and added into its rows of
    u.grad tau + Q at once.
    u.grad u, u.grad tau + Q and a record's Q are transformed in one
    dealiased forward transform, which passes only over the lines the 2/3
    rule keeps and gathers the 2/3 box.  The samples, the products and the
    work buffers are the table's workspace, which every evaluation reuses
    if batched; du, dtau, F(Q) and tau's samples are new arrays.  Every
    inverse is unchecked, as a state is checked where it enters
    (_evaluate).  Every spectral product, the projection and the inverse
    passes run over the table's coefficients and lines only.  Its counts
    (spectral.COUNTS) are pinned by tests/test_model.py::TestFusedKernel.
    """
    COUNTS["evaluations"] += 1
    grid = table.grid
    d, m = grid.d, len(tau)
    tg = params.toggles
    q_rows = m * (record and tg.q_term)
    products = table.workspace("products", (
        d * tg.advection + m * tg.nonlinear + q_rows,) + grid.shape)
    nl = products[d * tg.advection:len(products) - q_rows]  # u.grad tau + Q

    u_max = None
    if tg.nonlinear:
        u_stack = table.workspace("u", (d + d * d,) + grid.shape)
        for start, stop in _stack_chunks(table, d, True, True):
            _invert_rows(u, table, True, start, stop, u_stack[start:stop])
        u_phys = u_stack[:d]
        grad_u = u_stack[d:].reshape((-1, d) + grid.shape)
        u_max = float(np.max(np.abs(u_phys)))
    if tg.advection:
        np.einsum("j...,ij...->i...", u_phys, grad_u, out=products[:d])

    tau_phys = None
    if tg.nonlinear or record:
        values = tg.q_term or record
        v = m if values else 0
        chunks = _stack_chunks(table, m, values, tg.advection)
        rows = max((stop - start for start, stop in chunks
                    if not (record and stop == v)), default=0)
        samples = table.workspace("tau", (rows,) + grid.shape)
        for start, stop in chunks:
            # a record's samples of tau leave the kernel: they are new,
            # inverted alone or copied before later chunks overwrite them
            alone = record and stop == v
            part = _invert_rows(tau, table, values, start, stop,
                                np.empty((m,) + grid.shape) if alone
                                else samples[:stop - start])
            if start < v:
                tau_phys = part[:m].copy() if record and not alone \
                    else part[:m]
            if start < v and tg.q_term:
                _q_triangle_physical(tau_phys, grad_u, params.b, nl,
                                     table.workspace("work", (3,) + grid.shape))
                if record:
                    products[len(products) - m:] = nl
            if tg.advection and stop > v:
                # u.grad tau, added to Q where Q is on: the sum of the two
                # is exact in either order
                first, last = (max(start, v) - v) // d, (stop - v) // d
                adv = nl[first:last]
                if tg.q_term:
                    adv = table.workspace("work", adv.shape)
                np.einsum("j...,mj...->m...", u_phys,
                          part[max(start, v) - start:].reshape(
                              (last - first, d) + grid.shape), out=adv)
                if tg.q_term:
                    np.add(nl[first:last], adv, out=nl[first:last])
                del adv
        del samples
    u_phys = grad_u = u_stack = None  # on large grids, free before forward

    f_q = None
    if len(products):
        # the work buffer is free once the products are built
        coeffs = _forward(products, grid, dealiased=True, work=table.workspace(
            "work", products.shape[:1] + grid.spectral_shape, np.complex128))
        if q_rows:
            coeffs, f_q = coeffs[:-m], coeffs[-m:]
        if not table.boxed:
            coeffs = grid.support_table(True).scatter(coeffs)
    du = np.zeros((d,) + table.shape, dtype=np.complex128)
    if tg.coupling:
        du += _tensor_divergence(tau, table)
    if tg.advection:
        du -= coeffs[:d]
    du = _leray(du, table)
    dtau = np.zeros_like(tau)
    if tg.coupling:
        dtau += _strain(u, table)
    if tg.nonlinear:
        dtau -= coeffs[len(coeffs) - m:]
    return (Tendency(table, u, tau, du, dtau, params, u_max),
            tau_phys if record else None, f_q)


def _evaluate(state: FlowState, params: ModelParams, record: bool = False,
              ) -> Tuple[Tendency, Optional[np.ndarray], Optional[np.ndarray]]:
    """A state's one entry into the kernel, for tendency and (record)
    _record_pass: _explicit_terms of u and tau, gathered here onto
    _state_table's table, as it returns them.  u and tau are checked for
    Hermitian symmetry where a term inverts them (both if the toggles are
    nonlinear), tau always in a record, which inverts it once, for the
    kernel's Q and its caller."""
    table = _state_table(state)
    u, tau = table.gather(state.u.comps), table.gather(state.tau.comps)
    nonlinear = params.toggles.nonlinear
    for source, inverted in zip((u, tau), (nonlinear, nonlinear or record)):
        if inverted:
            _check_hermitian(source, table)
    return _explicit_terms(u, tau, table, params, record)


def tendency(state: FlowState, params: ModelParams) -> Tendency:
    """Every term of state's tendency but the diagonal dissipation and
    damping, which the integrating-factor stepper takes exactly; the
    momentum tendency is Leray-projected.  One call inverts 15 components
    and forward-transforms 5 in 2D (36 and 9 in 3D; pinned by
    tests/test_model.py::TestFusedKernel), on the box table if u and tau
    are zero outside the 2/3 box, else on the whole; its entry, _evaluate,
    picks the table and checks u and tau.
    """
    return _evaluate(state, params)[0]


def explicit_rhs(state: FlowState, params: ModelParams) -> Tuple[VectorField, TensorField]:
    """The tendency of state on the half layout."""
    first = tendency(state, params)
    return (VectorField(state.grid, first.table.scatter(first.du)),
            TensorField(state.grid, first.table.scatter(first.dtau)))


def rhs(state: FlowState, params: ModelParams) -> Tuple[VectorField, TensorField]:
    """Full tendencies (du/dt, dtau/dt) of the toggled system."""
    du, dtau = explicit_rhs(state, params)
    rate_u, rate_tau = dissipation_rates(state.grid, params)
    return (du.with_comps(du.comps - rate_u * state.u.comps),
            dtau.with_comps(dtau.comps - rate_tau * state.tau.comps))


def _spectrum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_c mult_c a_c conj(b_c) over the leading axis of compact stacks;
    mult_c is a stress triangle's PAIR_WEIGHTS, else 1."""
    x = a.real * b.real + a.imag * b.imag
    weights = PAIR_WEIGHTS[a.ndim - 1]
    if len(a) == len(weights):  # a weight of 1.0 keeps its row bit for bit
        x *= np.reshape(weights, (-1,) + (1,) * (a.ndim - 1))
    return x.sum(axis=0)


def _record_pass(state: FlowState, params: ModelParams,
                 s: Optional[float] = None,
                 ) -> Tuple[dict, dict, np.ndarray, Tendency]:
    """(energy_budget's terms, the record's norm columns, tau's samples,
    the state's Tendency) from one pass over the compact coefficients of
    the state's table, which the Tendency of its one kernel evaluation
    (_evaluate) carries.  The pass transforms nothing itself: the kernel's
    one forward call gives F(Q) beside the tendencies.

    Every term is one np.sum of a weight cached on the table times the
    power spectrum of u or tau or a cross spectrum (u with du or div tau,
    tau with dtau or, over the box, F(Q)).  The columns are
    u_l2, tau_l2 and, for a Sobolev index s, u_hs, tau_hs, diss_tau,
    diss_u, visc_u and cross of DiagnosticsRecord.
    """
    COUNTS["records"] += 1
    grid = state.grid
    first, tau_phys, f_q = _evaluate(state, params, record=True)
    table, u, tau = first.table, first.u, first.tau
    rate_u, rate_tau = _dissipation_rates(table, params)
    p_u, p_tau = _spectrum(u, u), _spectrum(tau, tau)
    beta, alpha = map(table.fractional_multiplier, (params.beta, params.alpha))

    def total(weight, spectrum):
        return TWO_PI ** grid.d * float(np.sum(weight * spectrum))

    w0 = table.sobolev_weight(0.0)
    terms = {
        "u_work": total(w0, _spectrum(u, first.du) - rate_u * p_u),
        "tau_work": total(w0, _spectrum(tau, first.dtau) - rate_tau * p_tau),
        "diss_tau_l2": total(w0 * beta, p_tau) if params.eta else 0.0,
        "visc_u_l2": total(w0 * alpha, p_u) if params.nu else 0.0,
        "q_work": 0.0,
    }
    if f_q is not None:
        box = grid.support_table(True)
        terms["q_work"] = total(box.sobolev_weight(0.0), _spectrum(
            f_q, tau if table.boxed else box.gather(tau)))
    tau_sq = total(w0, p_tau)
    parts = (terms["u_work"], terms["tau_work"],
             params.eta * terms["diss_tau_l2"],
             params.nu * terms["visc_u_l2"], params.a * tau_sq,
             terms["q_work"])
    residual, scale = sum(parts), max(abs(p) for p in parts)
    terms["residual"] = residual
    terms["residual_rel"] = abs(residual) / scale if scale > 0 else 0.0

    # power spectra are sums of squares: their weighted sums are >= 0
    columns = {"u_l2": math.sqrt(total(w0, p_u)), "tau_l2": math.sqrt(tau_sq)}
    if s is not None:
        ws, wsb = table.sobolev_weight(s), table.sobolev_weight(s - params.beta)
        columns.update(
            u_hs=math.sqrt(total(ws, p_u)), tau_hs=math.sqrt(total(ws, p_tau)),
            diss_tau=total(ws * beta, p_tau),
            diss_u=total(wsb * table.gradient_weight, p_u),
            visc_u=params.nu * total(ws * alpha, p_u) if params.nu else 0.0,
            cross=total(wsb, _spectrum(u, _tensor_divergence(tau, table))))
    return terms, columns, tau_phys, first


def energy_budget(state: FlowState, params: ModelParams) -> dict:
    """Instantaneous L2 energy balance of the toggled system.

    Returns the work and dissipation terms together with the residual of

        <u, du/dt> + <tau, dtau/dt> + eta ||L^beta tau||^2
            + nu ||L^alpha u||^2 + a ||tau||^2 + <Q, tau> = 0,

    which holds under every toggle setting on a state zero outside the 2/3
    box: the coupling works <div tau, u> and <D(u), tau> cancel exactly.
    On a whole-table state advection breaks it, as the modes outside the
    box pair with the dealiased transport.

    It runs a record's pass (_record_pass): 15 inverse and 8 forward
    components in 2D (36 and 15 in 3D; tests/test_model.py::TestFusedKernel).
    It leaves nothing behind: the pass's Tendency is dropped
    (DiagnosticsCollector.observe returns it).
    """
    return _record_pass(state, params)[0]


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
        ksq = grid.support_table(False).k_squared
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
        # the modes have |k_i| <= 1 < kc; dealias zeroes the round-off
        # outside the 2/3 box, so the state steps on the box table
        u = dealias(VectorField.from_physical(grid, u_phys))
        tau_phys = np.zeros((len(tau.pairs),) + grid.shape)
        tau_phys[tau.pair_index(0, 1)] = shear
        tau = dealias(TensorField.from_physical(grid, tau_phys))

    u = leray_project(u)
    size = sobolev_norm(u, s) + sobolev_norm(tau, s)
    if size == 0.0:
        raise ValueError(f"recipe {recipe!r} produced an empty state")
    scale = epsilon / size
    return FlowState(u.with_comps(u.comps * scale),
                     tau.with_comps(tau.comps * scale), 0.0)
