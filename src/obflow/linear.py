"""Dispersion analysis of the linearized velocity-stress waves.

Per Fourier mode of magnitude k, the pair (uhat, shat) of velocity and
projected stress-divergence amplitudes obeys

    d/dt (uhat, shat) = A (uhat, shat),   A = [[-d_u, 1], [-k^2/2, -d_s]],

with velocity dissipation d_u = nu k^(2 alpha) and stress dissipation plus
damping d_s = eta k^(2 beta) + a.  The characteristic polynomial is
lambda^2 + (d_u + d_s) lambda + d_u d_s + k^2/2, with discriminant
(d_s - d_u)^2 - 2 k^2.  This module evaluates the two roots with stable
arithmetic, the closed-form matrix exponential (including the defective
double-root branch), and decay envelopes over integer wavenumbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .model import ModelParams
from .snapshots import atomic_write_text
from .spectral import ConfigError

# Relative discriminant size below which the double-root (Jordan) branch
# of the matrix exponential is used.
CRITICAL_TOL = 1e-10

ArrayLike = Union[complex, np.ndarray]


@dataclass(frozen=True)
class ModeAnalysis:
    """Roots and regime of one wavenumber magnitude."""

    k: float
    eta: float
    beta: float
    damping: float          # d_u + d_s, minus the sum of the roots
    discriminant: float     # (d_s - d_u)^2 - 2 k^2
    lambda_plus: complex    # root with the larger real part / +Im branch
    lambda_minus: complex
    regime: str             # "underdamped" | "critical" | "overdamped"


def mode_coefficients(params: ModelParams) -> dict:
    """Keyword arguments of the per-mode functions for the system params runs.

    Dissipation and damping enter with their effective values, so a term
    switched off counts as zero.  Without both coupling terms the mode pair
    is no damped wave, so a coupling toggle that is off raises ConfigError.
    """
    off = [name for name in ("stress_divergence", "strain_source")
           if not getattr(params.toggles, name)]
    if off:
        raise ConfigError([f"model.toggles.{name} must be on for the linear "
                           "mode solution" for name in off])
    return {"eta": params.eta_eff, "beta": params.beta, "nu": params.nu_eff,
            "alpha": params.alpha, "a": params.a_eff}


def dispersion_roots(k: float, eta: float, beta: float, *, nu: float = 0.0,
                     alpha: float = 1.0, a: float = 0.0) -> ModeAnalysis:
    """Solve lambda^2 + (d_u + d_s) lambda + d_u d_s + k^2 / 2 = 0 stably.

    d_u = nu k^(2 alpha) and d_s = eta k^(2 beta) + a.  Overdamped roots are
    computed from the numerically safe root and the product identity
    lambda_+ lambda_- = d_u d_s + k^2 / 2, avoiding cancellation.
    """
    if k <= 0:
        raise ValueError(f"wavenumber magnitude must be positive, got {k}")
    if min(eta, nu, a) < 0:  # d_u + d_s >= 0 keeps the safe root safe
        raise ValueError(f"eta, nu and a must be >= 0, got {eta}, {nu}, {a}")
    d_u = nu * k ** (2.0 * alpha)
    d_s = eta * k ** (2.0 * beta) + a
    damping = d_u + d_s
    gap = d_s - d_u
    disc = gap * gap - 2.0 * k * k
    if abs(disc) < CRITICAL_TOL * gap * gap:
        lam = -0.5 * damping
        return ModeAnalysis(k, eta, beta, damping, disc,
                            complex(lam), complex(lam), "critical")
    if disc < 0:
        re, im = -0.5 * damping, 0.5 * math.sqrt(-disc)
        return ModeAnalysis(k, eta, beta, damping, disc,
                            complex(re, im), complex(re, -im), "underdamped")
    big = -0.5 * (damping + math.sqrt(disc))
    small = (d_u * d_s + 0.5 * k * k) / big
    return ModeAnalysis(k, eta, beta, damping, disc,
                        complex(small), complex(big), "overdamped")


def linear_mode_solution(u0: ArrayLike, s0: ArrayLike, k: float, eta: float,
                         beta: float, t: float, *, nu: float = 0.0,
                         alpha: float = 1.0,
                         a: float = 0.0) -> Tuple[ArrayLike, ArrayLike]:
    """Exact (uhat, shat) at time t >= 0 from initial amplitudes.

    Accepts scalars or arrays (propagated componentwise).  Near-critical
    discriminants take the Jordan branch exp(lambda t)(I + N t), N = A -
    lambda I nilpotent.  Otherwise the eigenvector of a root lambda is
    (1, lambda + d_u).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    u0 = np.asarray(u0, dtype=np.complex128)
    s0 = np.asarray(s0, dtype=np.complex128)
    roots = dispersion_roots(k, eta, beta, nu=nu, alpha=alpha, a=a)
    d_u = nu * k ** (2.0 * alpha)
    if roots.regime == "critical":
        lam = roots.lambda_plus
        half_gap = -d_u - lam   # N = [[half_gap, 1], [-k^2/2, -half_gap]]
        growth = cmath.exp(lam * t)
        u_t = growth * (u0 + t * (half_gap * u0 + s0))
        s_t = growth * (s0 - t * (0.5 * k * k * u0 + half_gap * s0))
    else:
        lp, lm = roots.lambda_plus, roots.lambda_minus
        v0 = s0 - d_u * u0
        c_plus = (v0 - lm * u0) / (lp - lm)
        c_minus = (lp * u0 - v0) / (lp - lm)
        ep, em = cmath.exp(lp * t), cmath.exp(lm * t)
        u_t = c_plus * ep + c_minus * em
        s_t = c_plus * lp * ep + c_minus * lm * em + d_u * u_t
    if u_t.ndim == 0:
        return complex(u_t), complex(s_t)
    return u_t, s_t


def decay_envelope(eta: float, beta: float, k_max: int, *, nu: float = 0.0,
                   alpha: float = 1.0, a: float = 0.0) -> List[ModeAnalysis]:
    """Mode analyses for integer wavenumbers 1 .. k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return [dispersion_roots(float(k), eta, beta, nu=nu, alpha=alpha, a=a)
            for k in range(1, k_max + 1)]


def dispersion_csv(rows: Sequence[ModeAnalysis]) -> str:
    """CSV text of a mode table (one row per wavenumber)."""
    lines = ["k,re_lambda_plus,im_lambda_plus,re_lambda_minus,im_lambda_minus,regime"]
    for row in rows:
        lines.append(",".join([
            repr(float(row.k)),
            repr(row.lambda_plus.real), repr(row.lambda_plus.imag),
            repr(row.lambda_minus.real), repr(row.lambda_minus.imag),
            row.regime,
        ]))
    return "\n".join(lines) + "\n"


def write_dispersion_csv(path, rows: Sequence[ModeAnalysis]) -> None:
    atomic_write_text(path, dispersion_csv(rows))
