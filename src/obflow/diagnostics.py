"""Norm tracking and the inequality checks used by the analysis.

A DiagnosticsRecord is one row of the time series: H^s and L2 norms, the
dissipation functionals, the accumulated energy functional

    E(t) = ||u||_{H^s}^2 + ||tau||_{H^s}^2
           + 2 int_0^t ( eta ||L^beta tau||_{H^s}^2
                         + (kc/2) ||grad u||_{H^(s-beta)}^2 ) dt',

the damped-wave Lyapunov functional

    L(t) = ||u||_{H^s}^2 + ||tau||_{H^s}^2 + 2 kc (u, div tau)_{H^(s-beta)},

and pointwise stress positivity.  The integral in E is accumulated with the
trapezoidal rule at the record cadence.  kc is the cross-term coefficient,
constrained to (0, 1/4) so that L is equivalent to the norm part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

# energy_budget stays importable here for the tracer of perfbench/spans.py
from .model import (FlowState, ModelParams, Tendency,  # noqa: F401
                    _record_pass, default_sobolev_index, energy_budget)
from .snapshots import csv_text
from .spectral import PAIR_WEIGHTS, SYM_PAIRS, TWO_PI, Grid, check_fields


@dataclass(frozen=True)
class DiagnosticParams:
    """Sobolev index, cross-term coefficient and record cadence.

    s = None resolves to model.default_sobolev_index.  k_cross must lie in
    (0, 1/4).  A record is taken every cadence_steps steps.
    """

    s: Optional[float] = None
    k_cross: float = 0.1
    cadence_steps: int = 10

    def __post_init__(self):
        check_fields(self, (
            ("s", None, ""),
            ("k_cross", lambda v: 0.0 < v < 0.25, "must lie in (0, 1/4)"),
            ("cadence_steps", lambda v: v >= 1, "must be >= 1"),
        ))

    def resolve_s(self, grid: Grid) -> float:
        return default_sobolev_index(grid.d) if self.s is None else float(self.s)

    def warnings(self, grid: Grid) -> List[str]:
        s = self.resolve_s(grid)
        out = []
        if s <= 1.0 + grid.d / 2.0:
            out.append(f"s={s:g} is not above 1 + d/2 = {1 + grid.d / 2:g}; "
                       "H^s is not an algebra there and norms may not control "
                       "the nonlinearity")
        return out


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostic row; field order is the CSV column order."""

    t: float
    u_hs: float                # ||u||_{H^s}
    tau_hs: float              # ||tau||_{H^s}
    u_l2: float
    tau_l2: float
    diss_tau: float            # ||L^beta tau||_{H^s}^2
    diss_u: float              # ||grad u||_{H^(s-beta)}^2
    visc_u: float              # nu ||L^alpha u||_{H^s}^2
    cross: float               # (u, div tau)_{H^(s-beta)}
    E: float
    L: float
    q_work: float              # <Q(tau, grad u), tau>_{L2}
    identity_residual: float   # relative instantaneous L2 balance residual
    min_eig_sigma: float       # min over x of eig_min(tau(x) + I)
    diss_tau_l2: float         # ||L^beta tau||_{L2}^2 (for the record-stream check)
    visc_u_l2: float           # nu ||L^alpha u||_{L2}^2


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _min_eig_sym2(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    mean = 0.5 * (a11 + a22)
    radius = np.sqrt(0.25 * (a11 - a22) ** 2 + a12 ** 2)
    return mean - radius


def _min_eig_sym3(a11, a12, a13, a22, a23, a33) -> np.ndarray:
    """Smallest eigenvalue of symmetric 3x3 matrices (trigonometric form)."""
    q = (a11 + a22 + a33) / 3.0
    p2 = ((a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2
          + 2.0 * (a12 ** 2 + a13 ** 2 + a23 ** 2))
    p = np.sqrt(p2 / 6.0)
    safe = np.where(p > 0, p, 1.0)
    b11, b22, b33 = (a11 - q) / safe, (a22 - q) / safe, (a33 - q) / safe
    b12, b13, b23 = a12 / safe, a13 / safe, a23 / safe
    det_b = (b11 * (b22 * b33 - b23 ** 2)
             - b12 * (b12 * b33 - b23 * b13)
             + b13 * (b12 * b23 - b22 * b13))
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eig = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.where(p > 0, eig, q)


def stress_min_eigenvalue(state: FlowState) -> float:
    """min over the grid of the smallest eigenvalue of tau(x) + identity."""
    return _min_eigenvalue(state.tau.to_physical())


def _min_eigenvalue(tri: np.ndarray) -> float:
    """stress_min_eigenvalue from the samples of tau's upper triangle, in
    SYM_PAIRS order, which is the argument order of _min_eig_sym2/3."""
    sigma = [c + 1.0 if i == j else c
             for c, (i, j) in zip(tri, SYM_PAIRS[tri.ndim - 1])]
    return float(np.min((_min_eig_sym2 if tri.ndim == 3 else _min_eig_sym3)(
        *sigma)))


class DiagnosticsCollector:
    """Builds the record stream along a run and tracks simple verdicts."""

    def __init__(self, params: ModelParams, diag: DiagnosticParams, grid: Grid):
        self.params = params
        self.diag = diag
        self.grid = grid
        self.s = diag.resolve_s(grid)
        self.records: List[DiagnosticsRecord] = []
        self.lyapunov_violations = 0
        self._dissipation_accum = 0.0
        self._prev: Optional[Tuple[float, float]] = None  # (t, integrand)

    def observe(self, state: FlowState, step: int = 0) -> Tendency:
        """Append the record of state, from one model._record_pass, and
        return the pass's Tendency, which integrate hands to the next step."""
        params, kc = self.params, self.diag.k_cross
        budget, columns, tau_phys, first = _record_pass(state, params, self.s)
        integrand = (params.eta_eff * columns["diss_tau"]
                     + 0.5 * kc * columns["diss_u"])
        if self._prev is not None:
            t_prev, g_prev = self._prev
            self._dissipation_accum += 0.5 * (g_prev + integrand) * (state.t - t_prev)
        self._prev = (state.t, integrand)

        norms_sq = columns["u_hs"] ** 2 + columns["tau_hs"] ** 2
        rec = DiagnosticsRecord(
            t=state.t,
            E=norms_sq + 2.0 * self._dissipation_accum,
            L=norms_sq + 2.0 * kc * columns["cross"],
            q_work=budget["q_work"],
            identity_residual=budget["residual_rel"],
            min_eig_sigma=_min_eigenvalue(tau_phys),
            diss_tau_l2=budget["diss_tau_l2"],
            visc_u_l2=params.nu * budget["visc_u_l2"],
            **columns,
        )
        self.records.append(rec)
        ok, _ = lyapunov_equivalence_check(rec, kc)
        if not ok:
            self.lyapunov_violations += 1
        return first


def lyapunov_equivalence_check(rec: DiagnosticsRecord,
                               k_cross: float) -> Tuple[bool, float]:
    """Check |2 kc (u, div tau)| <= 1/2 ||u||^2 + 2 kc^2 ||tau||^2 at H^s.

    Returns (passed, slack).  The bound holds mode-by-mode for beta >= 1/2,
    so slack should never be negative beyond roundoff; the pass condition
    allows a 1e-12 relative margin.
    """
    lhs = abs(2.0 * k_cross * rec.cross)
    rhs = 0.5 * rec.u_hs ** 2 + 2.0 * k_cross ** 2 * rec.tau_hs ** 2
    slack = rhs - lhs
    return slack >= -1e-12 * (rhs + lhs), slack


def _identity_balance(records: Sequence[DiagnosticsRecord],
                      params: ModelParams,
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, dx/dt, residual) of energy_identity_residual's records."""
    if len(records) < 3:
        raise ValueError("need at least three records for centered differences")
    t = np.array([r.t for r in records])
    spacing = np.diff(t)
    if spacing.min() <= 0:
        raise ValueError("record times must be strictly increasing")
    if (spacing.max() - spacing.min()) > 1e-9 * spacing.max():
        raise ValueError("records are not uniformly sampled")
    x = 0.5 * (np.array([r.u_l2 for r in records]) ** 2
               + np.array([r.tau_l2 for r in records]) ** 2)
    dxdt = (x[2:] - x[:-2]) / (t[2:] - t[:-2])
    diss = np.array([
        params.eta_eff * r.diss_tau_l2 + r.visc_u_l2
        + params.a * r.tau_l2 ** 2 + r.q_work
        for r in records[1:-1]])
    return t[1:-1], dxdt, dxdt + diss


def energy_identity_residual(records: Sequence[DiagnosticsRecord],
                             params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """Centered-difference residual of the L2 energy identity per interior record.

    residual(t_i) = d/dt [ (||u||^2 + ||tau||^2) / 2 ]
                    + eta ||L^beta tau||^2 + nu ||L^alpha u||^2
                    + a ||tau||^2 + <Q, tau>,

    evaluated from the record stream alone.  Requires at least three
    uniformly spaced records; the truncation error is O(dt_record^2).
    """
    t, _, resid = _identity_balance(records, params)
    return t, resid


def max_relative_identity_residual(records: Sequence[DiagnosticsRecord],
                                   params: ModelParams) -> float:
    """Max |residual| over interior records, relative to the balance scale:
    the larger of max |dx/dt| and max |residual - dx/dt|."""
    _, dxdt, resid = _identity_balance(records, params)
    scale = float(max(np.max(np.abs(dxdt)), np.max(np.abs(resid - dxdt))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(resid)) / scale)


BOUND_FACTOR = 4.0  # the multiple of its initial value that counts as bounded


@dataclass(frozen=True)
class BootstrapReport:
    """Boundedness summary of one record stream."""

    e0: float
    sup_e: float
    c_star: float
    norms0: float           # ||u||^2 + ||tau||^2 at t = 0
    sup_norms: float
    bounded_energy: bool    # sup E <= 4 E(0)
    bounded_norms: bool     # sup (||u||^2 + ||tau||^2) <= 4 * initial


def bootstrap_monitor(records: Sequence[DiagnosticsRecord]) -> BootstrapReport:
    """Report sup E, the smallest constant C with E(t) <= E(0) + C E(t)^(3/2),
    and the factor-BOUND_FACTOR boundedness verdicts."""
    if not records:
        raise ValueError("empty record stream")
    e = np.array([r.E for r in records])
    norms = np.array([r.u_hs ** 2 + r.tau_hs ** 2 for r in records])
    e0 = float(e[0])
    c_star = 0.0
    for val in e[1:]:
        if val > 0:
            c_star = max(c_star, (val - e0) / val ** 1.5)
    zero0 = e0 == 0.0
    return BootstrapReport(
        e0=e0,
        sup_e=float(e.max()),
        c_star=c_star,
        norms0=float(norms[0]),
        sup_norms=float(norms.max()),
        bounded_energy=bool(e.max() <= BOUND_FACTOR * e0) if not zero0
        else bool(e.max() == 0),
        bounded_norms=bool(norms.max() <= BOUND_FACTOR * norms[0]) if norms[0] > 0
        else bool(norms.max() == 0),
    )


def trajectory_distance(series_a: Sequence[Tuple[float, np.ndarray]],
                        series_b: Sequence[Tuple[float, np.ndarray]],
                        ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Sup-in-time L2 distance between two snapshot series.

    Each series is a list of (t, components) with physical samples laid out
    as d velocity components followed by the stress upper triangle.  Times
    must match pairwise to 1e-12 (relative).  Returns (times, distances,
    sup distance); the L2 norms carry the (2pi)^d volume and the Frobenius
    multiplicity of the mirrored stress components.
    """
    if len(series_a) != len(series_b):
        raise ValueError(f"snapshot counts differ: {len(series_a)} vs {len(series_b)}")
    if not series_a:
        raise ValueError("empty snapshot series")
    times, dists = [], []
    for (ta, ca), (tb, cb) in zip(series_a, series_b):
        if abs(ta - tb) > 1e-12 * max(1.0, abs(ta)):
            raise ValueError(f"snapshot times differ: {ta!r} vs {tb!r}")
        if ca.shape != cb.shape:
            raise ValueError(f"snapshot shapes differ: {ca.shape} vs {cb.shape}")
        d = ca.ndim - 1
        weights = PAIR_WEIGHTS[d]
        if ca.shape[0] != d + len(weights):
            raise ValueError(f"expected {d + len(weights)} components, got {ca.shape[0]}")
        cell = (TWO_PI / ca.shape[1]) ** d
        delta = ca - cb
        total = float(np.sum(delta[:d] ** 2))
        for mult, comp in zip(weights, delta[d:]):
            total += mult * float(np.sum(comp ** 2))
        times.append(ta)
        dists.append(math.sqrt(cell * total))
    times = np.array(times)
    dists = np.array(dists)
    return times, dists, float(dists.max())


def diagnostics_csv(records: Sequence[DiagnosticsRecord]) -> str:
    """CSV text with one row per record, columns in declaration order."""
    return csv_text(CSV_COLUMNS, ([getattr(rec, c) for c in CSV_COLUMNS]
                                  for rec in records))
