"""Oracles for the nonlinear dynamics from the equations' exact symmetries.

The linear oracle checks the linear waves and the energy identity checks
that the nonlinear terms do no net work; neither sees a nonlinear term that
does no work but is wrong.  Two symmetries of the full system do:

- Galilean invariance: if (u, tau) solves the system, so does
  (u(x - U t, t) + U, tau(x - U t, t)) for a constant U.  A run with mean
  velocity U, shifted back by the phase exp(i k.U T) and with its mean
  removed, differs from the run with U = 0 by the RK4 error of the
  advection by U alone, so the deviation falls 16x per dt halving.
- Orthogonal maps of the axes: permuting the axes, or reflecting x_1 to
  -x_1, with the vector and tensor components carried along, maps a
  solution to a solution.  The code treats the axes unalike (pruned c2c
  line blocks, the rfft last axis, the Nyquist column), so this holds to
  round-off only if every axis is treated alike.
"""

import numpy as np
import pytest

import obflow.model
from obflow.model import FlowState, ModelParams, make_initial_data
from obflow.spectral import SYM_PAIRS, Grid, TensorField, VectorField
from obflow.stepping import StepperConfig, integrate

PARAMS = ModelParams(eta=1.0, beta=0.75, b=0.5)


def initial(grid, band):
    return make_initial_data(grid, "random-band", 0.5, seed=7, band=band)


def run(state, dt, t_end):
    return integrate(state, PARAMS, StepperConfig(dt=dt, t_end=t_end)).state


def coefficients(state):
    return np.concatenate([state.u.comps, state.tau.comps])


def galilean_deviation(grid, U, dt, t_end=0.5):
    """Max coefficient deviation, over the max coefficient, of the run with
    mean velocity U, shifted back and with its mean removed, from the run
    with U = 0."""
    start = initial(grid, (1, 4))
    mean = (slice(None),) + (0,) * grid.d
    moving = start.copy()
    moving.u.comps[mean] += U
    ref, end = run(start, dt, t_end), run(moving, dt, t_end)
    end.u.comps[mean] -= U
    phase = np.exp(1j * t_end * sum(
        k * v for k, v in zip(grid.support_table(False).wavenumbers, U)))
    ref = coefficients(ref)
    return float(np.max(np.abs(coefficients(end) * phase - ref))
                 / np.max(np.abs(ref)))


@pytest.mark.parametrize("d, n, U", [(2, 32, (1.0, 0.5)),
                                     (3, 16, (1.0, 0.5, 0.25))])
def test_galilean_invariance_up_to_the_rk4_error(d, n, U):
    """At dt 0.02 and 0.01 the deviation is the RK4 error of the advection
    by U: it is small, and one halving divides it by about 16 (criterion
    2's band [13, 19]).  A velocity advection that does no work but is not
    u.grad u (u_j d_i u_j, a gradient that the projector removes) reads a
    ratio of about 1."""
    grid = Grid(d, n)
    coarse, fine = (galilean_deviation(grid, U, dt) for dt in (0.02, 0.01))
    assert fine < 1e-5
    assert 13.0 <= coarse / fine <= 19.0


def moved(grid, u, tau, perm, signs):
    """Samples of u and of the stress triangle under the map y_a =
    signs[a] x_perm[a]: axis a of the result is axis perm[a] of the input,
    reflected where signs[a] is -1, and so are the components."""
    def axes_moved(samples):
        samples = np.transpose(samples, perm)
        for a, sign in enumerate(signs):
            if sign < 0:  # index i -> -i mod n
                samples = np.roll(np.flip(samples, a), 1, a)
        return samples

    pairs = SYM_PAIRS[grid.d]
    u_new = np.stack([signs[a] * axes_moved(u[perm[a]])
                      for a in range(grid.d)])
    tau_new = np.stack([
        signs[a] * signs[b]
        * axes_moved(tau[pairs.index(tuple(sorted((perm[a], perm[b]))))])
        for a, b in pairs])
    return u_new, tau_new


def samples(state):
    return state.u.to_physical(), state.tau.to_physical()


# (d, n, band, boxed): the band [1, 4] lies inside the 2/3 box, so the runs
# step on the box table; the wider band reaches n/2, so they step on the
# whole table and the Nyquist column takes part
TABLES = [(2, 32, (1, 4), True), (2, 32, (1, 16), False),
          (3, 16, (1, 4), True), (3, 16, (1, 8), False)]
PERMUTATIONS = {2: (1, 0), 3: (2, 0, 1)}


@pytest.mark.parametrize("d, n, band, boxed", TABLES,
                         ids=[f"{d}d-n{n}-{'box' if boxed else 'whole'}"
                              for d, n, _, boxed in TABLES])
def test_axis_permutation_and_reflection_commute_with_the_step(d, n, band,
                                                               boxed):
    """20 steps of dt 0.005 from moved initial data agree to 1e-13
    relative with the moved run, for an axis permutation and for the
    reflection x_1 -> -x_1 (u_1 and tau_1j, j != 1, change sign)."""
    grid = Grid(d, n)
    start = initial(grid, band)
    assert obflow.model._state_table(start).boxed == boxed
    end = samples(run(start, 0.005, 0.1))
    scale = max(float(np.max(np.abs(f))) for f in end)
    # the band mask that make_initial_data applies, so that the moved data
    # is zero where the original is, and steps on the same table
    ksq = grid.support_table(False).k_squared
    keep = (ksq >= band[0] ** 2) & (ksq <= band[1] ** 2)
    for perm, signs in ((PERMUTATIONS[d], (1,) * d),
                        (tuple(range(d)), (-1,) + (1,) * (d - 1))):
        u, tau = moved(grid, *samples(start), perm, signs)
        mirror = FlowState(
            VectorField(grid, VectorField.from_physical(grid, u).comps * keep),
            TensorField(grid,
                        TensorField.from_physical(grid, tau).comps * keep))
        assert obflow.model._state_table(mirror).boxed == boxed
        got = samples(run(mirror, 0.005, 0.1))
        want = moved(grid, *end, perm, signs)
        deviation = max(float(np.max(np.abs(g - w)))
                        for g, w in zip(got, want)) / scale
        assert deviation < 1e-13, (perm, signs, deviation)
