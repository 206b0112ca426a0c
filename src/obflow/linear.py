"""Dispersion analysis of the linearized velocity-stress waves.

Per Fourier mode of magnitude k, the pair (uhat, shat) of velocity and
projected stress-divergence amplitudes obeys

    d/dt (uhat, shat) = A (uhat, shat),   A = [[-d_u, 1], [-k^2/2, -d_s]],

with velocity dissipation d_u = nu k^(2 alpha) and stress dissipation plus
damping d_s = eta k^(2 beta) + a.  The characteristic polynomial is
lambda^2 + (d_u + d_s) lambda + d_u d_s + k^2/2, with discriminant
(d_s - d_u - sqrt(2) k)(d_s - d_u + sqrt(2) k).  This module evaluates the
two roots with stable arithmetic, the matrix exponential in one closed form
for every damping regime, and decay envelopes over integer wavenumbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .model import ModelParams
from .snapshots import csv_text
from .spectral import ConfigError

ArrayLike = Union[complex, np.ndarray]


@dataclass(frozen=True)
class ModeAnalysis:
    """Roots and regime of one wavenumber magnitude."""

    k: float
    eta: float
    beta: float
    damping: float          # d_u + d_s, minus the sum of the roots
    discriminant: float     # (d_s - d_u - sqrt(2) k)(d_s - d_u + sqrt(2) k)
    lambda_plus: complex    # root with the larger real part / +Im branch
    lambda_minus: complex
    regime: str             # "underdamped" | "critical" | "overdamped"


def mode_coefficients(params: ModelParams) -> dict:
    """Keyword arguments of the per-mode functions for the system params runs.

    The stress dissipation enters with its effective value, zero when
    eta_dissipation is off.  Without the coupling the mode pair is no
    damped wave, so the coupling toggle off raises ConfigError.
    """
    if not params.toggles.coupling:
        raise ConfigError(["model.toggles.coupling must be on for the linear "
                           "mode solution"])
    return {"eta": params.eta_eff, "beta": params.beta, "nu": params.nu,
            "alpha": params.alpha, "a": params.a}


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
    disc = (gap - math.sqrt(2.0) * k) * (gap + math.sqrt(2.0) * k)
    if disc == 0.0:
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

    Accepts scalars or arrays (propagated componentwise).  One formula
    serves every regime: exp(A t) = e^(m t) [C I + S (A - m I)], with
    m = -(d_u + d_s)/2 and A - m I = [[g, 1], [-k^2/2, -g]], g = (d_s - d_u)/2,
    squaring to delta^2 I = discriminant I / 4.  C = cosh(delta t) and
    S = sinh(delta t) / delta are entire in x = (delta t)^2: for |x| < 1 they
    come from their even series, else from the roots m +- delta, >= 2/t apart.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    u0 = np.asarray(u0, dtype=np.complex128)
    s0 = np.asarray(s0, dtype=np.complex128)
    roots = dispersion_roots(k, eta, beta, nu=nu, alpha=alpha, a=a)
    g = 0.5 * (eta * k ** (2.0 * beta) + a - nu * k ** (2.0 * alpha))
    x = 0.25 * roots.discriminant * t * t
    if abs(x) < 1.0:
        c = s = 1.0
        # Horner over 12 terms; the first one left out is below 1/24!
        for n in range(22, 0, -2):
            c = 1.0 + x * c / ((n - 1) * n)
            s = 1.0 + x * s / (n * (n + 1))
        growth = math.exp(-0.5 * roots.damping * t)
        c, s = growth * c, growth * t * s
    else:
        ep = cmath.exp(roots.lambda_plus * t)
        em = cmath.exp(roots.lambda_minus * t)
        c = (0.5 * (ep + em)).real
        s = ((ep - em) / cmath.sqrt(roots.discriminant)).real
    u_t = c * u0 + s * (g * u0 + s0)
    s_t = c * s0 - s * (0.5 * k * k * u0 + g * s0)
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
    return csv_text(
        ["k", "re_lambda_plus", "im_lambda_plus", "re_lambda_minus",
         "im_lambda_minus", "regime"],
        ([row.k, row.lambda_plus.real, row.lambda_plus.imag,
          row.lambda_minus.real, row.lambda_minus.imag, row.regime]
         for row in rows))
