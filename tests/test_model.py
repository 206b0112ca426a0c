"""Model terms: Q bilinear form, advection, tendencies, energy budget."""

import contextlib
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import obflow.model
import obflow.spectral
import obflow.stepping
from obflow.config import validate_config
from obflow.diagnostics import DiagnosticParams, DiagnosticsCollector
from obflow.experiments import run_single
from obflow.model import (
    FlowState,
    ModelParams,
    TermToggles,
    _explicit_terms,
    _q_triangle_physical,
    dissipation_rates,
    energy_budget,
    explicit_rhs,
    make_initial_data,
    rhs,
    strain_rate,
)
from obflow.snapshots import read_snapshot
from obflow.spectral import (
    COUNTS,
    SYM_PAIRS,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    SpectralField,
    TensorField,
    VectorField,
    dealias,
    divergence,
    gradient,
    l2_inner_product,
    l2_norm,
    leray_project,
    sobolev_norm,
    _forward,
    _hermitian_residue,
    _inverse,
)
from obflow.stepping import StepperConfig, integrate, step

from states import random_state


def dense_gradient(field):
    """(m, d, *grid) physical array with G[i, j] = d_j of component i."""
    g = field.grid
    return np.stack([
        np.stack([gradient(SpectralField(g, c)).component(j).to_physical()
                  for j in range(g.d)])
        for c in field.comps])


def dense_q(tau, u, b):
    """(d, d, *grid) physical Q = (tau W - W tau) - b (D tau + tau D) from
    full matrices and the dense gradient."""
    g = u.grid
    grad = dense_gradient(u)
    dmat = 0.5 * (grad + np.swapaxes(grad, 0, 1))
    wmat = 0.5 * (grad - np.swapaxes(grad, 0, 1))
    tri = tau.to_physical()
    full = np.zeros((g.d, g.d) + g.shape)
    for m, (i, j) in enumerate(tau.pairs):
        full[i, j] = full[j, i] = tri[m]
    tw = np.einsum("ab...,bc...->ac...", full, wmat)
    wt = np.einsum("ab...,bc...->ac...", wmat, full)
    dt = np.einsum("ab...,bc...->ac...", dmat, full)
    td = np.einsum("ab...,bc...->ac...", full, dmat)
    return (tw - wt) - b * (dt + td)


def only(term):
    """TermToggles with the single explicit term `term` switched on."""
    off = dict(advection=False, q_term=False, coupling=False)
    return TermToggles(**{**off, term: True})


def q_term(tau, u, b):
    """mask F(Q(tau, grad u)) from the production kernel: with only Q on,
    the explicit stress tendency is -mask F(Q)."""
    _, dtau = explicit_rhs(FlowState(u, tau),
                           ModelParams(b=b, toggles=only("q_term")))
    return dtau.with_comps(-dtau.comps)


class TestStrainAndVorticity:
    def test_decomposition_recovers_gradient(self):
        """D + W = grad u component-wise, with W the skew part of grad u."""
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            st = random_state(g, seed=d)
            dmat = strain_rate(st.u)
            grad = dense_gradient(st.u)
            for i in range(d):
                for j in range(d):
                    dij = dmat.component(i, j).to_physical()
                    wij = 0.5 * (grad[i, j] - grad[j, i])
                    np.testing.assert_allclose(dij + wij, grad[i, j],
                                               rtol=0, atol=1e-12)


class TestQBilinear:
    def test_identity_stress_gives_minus_2b_strain(self):
        """tau = I: the rotation terms cancel and Q = -2b D(u)."""
        g = Grid(2, 32)
        st = random_state(g, seed=2)
        tau = TensorField.zeros(g)
        for i in range(g.d):
            tau.comps[tau.pair_index(i, i)][g.mode_index((0, 0))[0]] = 1.0
        for b in (-1.0, 0.0, 0.5, 1.0):
            q = q_term(tau, st.u, b)
            dmat = strain_rate(st.u)
            np.testing.assert_allclose(q.comps, -2.0 * b * dmat.comps,
                                       rtol=0, atol=1e-13)

    def test_hand_case_constant_stress_shear_flow(self):
        """tau = [[2,1],[1,3]], u = (sin y, 0), b = 1/2:

        D = c/2 [[0,1],[1,0]], W = c/2 [[0,1],[-1,0]] with c = cos y, and
        Q = (tau W - W tau) - b (D tau + tau D)
          = c [[-1,-1/2],[-1/2,1]] - b c [[1,5/2],[5/2,1]].
        """
        g = Grid(2, 32)
        x = g.coordinates()
        u = VectorField.zeros(g)
        u.comps[0] = SpectralField.from_physical(g, np.sin(x[1])).comps
        tau = TensorField.zeros(g)
        for (i, j), val in (((0, 0), 2.0), ((0, 1), 1.0), ((1, 1), 3.0)):
            tau.comps[tau.pair_index(i, j)][g.mode_index((0, 0))[0]] = val
        q = q_term(tau, u, b=0.5)
        c = np.cos(x[1])
        np.testing.assert_allclose(q.component(0, 0).to_physical(),
                                   -1.5 * c, atol=1e-13)
        np.testing.assert_allclose(q.component(0, 1).to_physical(),
                                   -1.75 * c, atol=1e-13)
        np.testing.assert_allclose(q.component(1, 1).to_physical(),
                                   0.5 * c, atol=1e-13)

    def test_matches_dense_matrix_oracle(self):
        """Triangle-storage result equals the full-matrix computation."""
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            st = random_state(g, seed=d + 10)
            b = 0.7
            q = q_term(st.tau, st.u, b)
            oracle = dense_q(st.tau, st.u, b)
            for idx, (i, j) in enumerate(st.tau.pairs):
                got = dealias(SpectralField.from_physical(g, oracle[i, j]))
                np.testing.assert_allclose(q.comps[idx], got.comps,
                                           rtol=0, atol=1e-13)

    def test_result_is_symmetric(self):
        g = Grid(2, 16)
        st = random_state(g, seed=21)
        for b in (-1.0, 0.3, 1.0):
            q = q_term(st.tau, st.u, b)
            full = np.stack([np.stack([q.component(i, j).comps
                                       for j in range(g.d)])
                             for i in range(g.d)])
            gap = np.max(np.abs(full - np.swapaxes(full, 0, 1)))
            assert gap < 1e-13


def tau_tensor(tau):
    """(d, d, *grid) physical samples of the symmetric stress."""
    g = tau.grid
    tri = _inverse(tau.comps, g)
    tau_phys = np.empty((g.d, g.d) + g.shape)
    for m, (i, j) in enumerate(tau.pairs):
        tau_phys[i, j] = tau_phys[j, i] = tri[m]
    return tau_phys


def dense_a_triangle(tau, grad_u, b):
    """Q = A + A^T with A = tau P as one dense einsum, read back as the
    upper triangle; P = W - b D is built as the kernel builds it, off the
    diagonal as (1 - b)/2 G - (1 + b)/2 G^T and on it as -b G."""
    g = tau.grid
    swap = (1, 0) + tuple(range(2, 2 + g.d))
    p = 0.5 * (1.0 - b) * grad_u - 0.5 * (1.0 + b) * grad_u.transpose(swap)
    for k in range(g.d):
        p[k, k] = -b * grad_u[k, k]
    a = np.einsum("ik...,kj...->ij...", tau_tensor(tau), p)
    q_full = a + a.transpose(swap)
    return np.stack([q_full[i, j] for i, j in tau.pairs])


def dense_q_triangle(tau, grad_u, b):
    """The dense Q assembly of the definition: full d x d tensors, two
    einsums and M + M^T, read back as the upper triangle."""
    g = tau.grid
    swap = (1, 0) + tuple(range(2, 2 + g.d))
    gt = grad_u.transpose(swap)
    d_phys = 0.5 * (grad_u + gt)
    w_phys = 0.5 * (grad_u - gt)
    tau_phys = tau_tensor(tau)
    tw = np.einsum("ab...,bc...->ac...", tau_phys, w_phys)
    dt = np.einsum("ab...,bc...->ac...", d_phys, tau_phys)
    q_full = (tw + tw.transpose(swap)) - b * (dt + dt.transpose(swap))
    return np.stack([q_full[i, j] for i, j in tau.pairs])


class TestPairwiseQ:
    """The Q triangle is A + A^T with A = tau (W - b D), summed over k in
    ascending order as the dense einsum sums it."""

    def q_triangle(self, d, n, b, project):
        g = Grid(d, n)
        st = random_state(g, seed=d + 30, scale=3.0, project=project)
        grad_u, tri = dense_gradient(st.u), _inverse(st.tau.comps, g)
        got = _q_triangle_physical(tri, grad_u.copy(), b, np.empty_like(tri),
                                   np.empty((3,) + g.shape))
        return got, st.tau, grad_u

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("b", [-1.0, 0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("project", [True, False])
    def test_equals_dense_assembly_exactly(self, d, n, b, project):
        got, tau, grad_u = self.q_triangle(d, n, b, project)
        np.testing.assert_array_equal(got, dense_a_triangle(tau, grad_u, b))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("b", [-1.0, 0.0, 0.3, 0.5, 1.0])
    def test_matches_the_definition_to_round_off(self, d, n, b):
        """The rounding of tau W - W tau - b (D tau + tau D) as M + M^T,
        with M = tau W and N = D tau, within 1e-15 of max |Q| (2.9e-16
        measured)."""
        got, tau, grad_u = self.q_triangle(d, n, b, False)
        ref = dense_q_triangle(tau, grad_u, b)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestKernelHermitianCheck:
    """A broken column-0 or Nyquist mode of u or tau stops the kernel."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("name", ["u", "tau"])
    @pytest.mark.parametrize("column", ["zero", "nyquist"])
    def test_broken_mode_raises(self, d, n, name, column):
        g = Grid(d, n)
        st = random_state(g, seed=d)
        # the mirror of this slot, at -k, is in the same column and kept
        slot = (0,) + (1,) * (d - 1) + (0 if column == "zero" else n // 2,)
        getattr(st, name).comps[slot] += 0.5
        with pytest.raises(HermitianSymmetryError):
            explicit_rhs(st, ModelParams(b=0.5))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("name", ["u", "tau"])
    @pytest.mark.parametrize("column", ["zero", "nyquist"])
    @pytest.mark.parametrize("entry", [
        "step", "integrate", "integrate-recorded", "observe", "energy_budget"])
    def test_broken_mode_raises_at_every_entry(self, d, n, name, column,
                                               entry):
        """The check is made where a state enters the kernel, so every
        public entry that evaluates it raises as explicit_rhs does."""
        g = Grid(d, n)
        st = random_state(g, seed=d)
        slot = (0,) + (1,) * (d - 1) + (0 if column == "zero" else n // 2,)
        getattr(st, name).comps[slot] += 0.5
        params = ModelParams(b=0.5)
        record = DiagnosticsCollector(params, DiagnosticParams(), g).observe
        config = StepperConfig(dt=1e-3, t_end=2e-3)
        run = {
            "step": lambda: step(st, params, 1e-3),
            "integrate": lambda: integrate(st, params, config),
            "integrate-recorded": lambda: integrate(st, params, config,
                                                    [(1, record)]),
            "observe": lambda: record(st),
            "energy_budget": lambda: energy_budget(st, params)}[entry]
        with pytest.raises(HermitianSymmetryError):
            run()

    @pytest.mark.parametrize("d, n, band", [
        (2, 16, (1, 4)), (2, 16, (1, 8)), (3, 8, (1, 2)), (3, 8, (1, 4))])
    @pytest.mark.parametrize("recorded", [False, True])
    def test_two_scans_per_step(self, monkeypatch, d, n, band, recorded):
        """One step under integrate scans u and tau once each, where they
        enter the kernel (a record's pass or integrate's own tendency), on
        the state's table; step's three later stages are not scanned.  The
        record after the step, which serves no step, scans twice more."""
        # a patch, not the tally: it records each scan's table
        scans = []

        def recording(coeffs, table):
            scans.append(table.boxed)
            return _hermitian_residue(coeffs, table)

        g = Grid(d, n)
        st = make_initial_data(g, epsilon=0.5, seed=4, band=band)
        boxed = band[1] < g.dealias_cutoff
        assert obflow.model._state_table(st).boxed == boxed
        params = ModelParams(eta=1.0, beta=0.5, b=0.5)
        callbacks = [(1, DiagnosticsCollector(
            params, DiagnosticParams(), g).observe)] if recorded else []
        monkeypatch.setattr(obflow.spectral, "_hermitian_residue", recording)
        res = integrate(st, params, StepperConfig(dt=1e-3, t_end=1e-3),
                        callbacks)
        assert res.steps == 1
        assert scans == [boxed] * 2 * (1 + recorded)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("column", ["zero", "nyquist"])
    def test_each_streamed_stress_gradient_is_checked(self, d, n, column):
        """With only transport on, tau is not inverted whole, only one
        gradient component at a time; its residue is read on entry, so a
        broken mode in any one stress component still stops the kernel."""
        g = Grid(d, n)
        slot = (1,) * (d - 1) + (0 if column == "zero" else n // 2,)
        params = ModelParams(toggles=only("advection"))
        for m in range(len(SYM_PAIRS[d])):
            st = random_state(g, seed=d + m)
            st.tau.comps[(m,) + slot] += 0.5
            with pytest.raises(HermitianSymmetryError):
                explicit_rhs(st, params)


    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    # the ids True and False say whether q_term is on
    @pytest.mark.parametrize("toggles, scanned", [
        pytest.param(TermToggles(), ("u", "tau"), id="True"),
        pytest.param(TermToggles(q_term=False), ("u", "tau"), id="False"),
        pytest.param(TermToggles.linear_waves(), (), id="linear")])
    def test_two_scans_per_evaluation(self, monkeypatch, d, n, toggles,
                                      scanned):
        """Each inverted source, u and tau (for transport or Q), is
        scanned once, in the compact layout of the box table, as the state
        is zero outside the 2/3 box; the derivative stacks are not scanned,
        and the linear terms invert nothing."""
        # a patch, not the tally: it records each scan's shape
        scans = []

        def recording(coeffs, table):
            scans.append(coeffs.shape)
            return _hermitian_residue(coeffs, table)

        monkeypatch.setattr(obflow.spectral, "_hermitian_residue", recording)
        g = Grid(d, n)
        st = random_state(g, seed=d)
        explicit_rhs(st, ModelParams(b=0.5, toggles=toggles))
        assert sorted(scans) == sorted(
            getattr(st, name).comps.shape[:1] + g.support_table(True).shape
            for name in scanned)


class TestAdvectionSkewSymmetry:
    """<u . grad f, f> = 0 for divergence-free u; the strict dealias band
    keeps the pairing alias-free so this holds to roundoff.  The transport
    terms come from explicit_rhs with only transport on, where the
    tendencies are -mask F(u . grad tau) and -P mask F(u . grad u)."""

    def test_scalar_advection_integrates_to_zero(self):
        """A scalar carried as the one nonzero stress component (0, 0)."""
        params = ModelParams(toggles=only("advection"))
        for n in (16, 32):
            g = Grid(2, n)
            st = random_state(g, seed=n)
            f = dealias(SpectralField.from_physical(
                g, np.random.default_rng(n + 1).standard_normal(g.shape)))
            tau = TensorField.zeros(g)
            tau.comps[tau.pair_index(0, 0)] = f.comps
            _, dtau = explicit_rhs(FlowState(st.u, tau), params)
            assert np.max(np.abs(dtau.comps[1:])) == 0.0
            ip = l2_inner_product(dtau, tau)
            scale = l2_norm(st.u) * l2_norm(f) ** 2 * (n / 3.0)
            assert abs(ip) < 1e-13 * max(scale, 1.0)

    def test_tensor_advection_integrates_to_zero(self):
        g = Grid(2, 16)
        st = random_state(g, seed=33)
        _, dtau = explicit_rhs(st, ModelParams(toggles=only("advection")))
        ip = l2_inner_product(dtau, st.tau)
        scale = l2_norm(st.u) * l2_norm(st.tau) ** 2 * (16 / 3.0)
        assert abs(ip) < 1e-13 * max(scale, 1.0)

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 32), (3, 8)])
    def test_velocity_advection_integrates_to_zero(self, d, n):
        st = random_state(Grid(d, n), seed=50 + n)
        du, _ = explicit_rhs(st, ModelParams(toggles=only("advection")))
        assert np.max(np.abs(du.comps)) > 0.0
        ip = l2_inner_product(du, st.u)
        scale = l2_norm(st.u) ** 3 * (n / 3.0)
        assert abs(ip) < 1e-13 * max(scale, 1.0)


class TestTendencies:
    def test_all_terms_off_gives_zero(self):
        g = Grid(2, 16)
        st = random_state(g, seed=4)
        off = TermToggles(advection=False, q_term=False, coupling=False)
        params = ModelParams(eta=0.0, nu=0.0, a=0.0, toggles=off)
        du, dtau = rhs(st, params)
        assert np.max(np.abs(du.comps)) == 0.0
        assert np.max(np.abs(dtau.comps)) == 0.0

    def test_coupling_only_matches_mode_matrix(self):
        """With only the wave coupling on, each mode obeys
        du = (P div tau), dtau = D(u), and the mode pair (u, s) with
        s = (P div tau) reduces to s' = -(k^2/2) u."""
        g = Grid(2, 16)
        params = ModelParams(eta=2.0, beta=1.0,
                             toggles=TermToggles.linear_waves())
        mode = (0, 2)
        st = make_initial_data(g, recipe="single-mode", epsilon=0.1,
                               mode=mode)
        idx, _ = g.mode_index(mode)
        du, dtau = explicit_rhs(st, params)
        s_field = leray_project(divergence(st.tau))
        np.testing.assert_allclose(du.comps[(slice(None),) + idx],
                                   s_field.comps[(slice(None),) + idx],
                                   rtol=0, atol=1e-15)
        # ds/dt from the tau tendency: P div D(u) at the mode = -(k^2/2) u
        ds = leray_project(divergence(dtau))
        k_sq = 4.0
        np.testing.assert_allclose(ds.comps[(slice(None),) + idx],
                                   -0.5 * k_sq * st.u.comps[(slice(None),) + idx],
                                   rtol=1e-13, atol=1e-16)

    def test_velocity_tendency_is_divergence_free(self):
        for seed in range(3):
            g = Grid(2, 16)
            st = random_state(g, seed=40 + seed, scale=0.5)
            params = ModelParams(eta=1.0, beta=0.5, nu=0.1, alpha=1.0,
                                 b=0.4, a=0.2)
            du, _ = rhs(st, params)
            assert l2_norm(divergence(du)) < 1e-12 * max(l2_norm(du), 1.0)

    def test_dissipation_rates_spot_values(self):
        g = Grid(2, 16)
        params = ModelParams(eta=2.0, beta=0.5, nu=0.3, alpha=1.0, a=0.25)
        rate_u, rate_tau = dissipation_rates(g, params)
        idx, _ = g.mode_index((3, 4))
        assert rate_u[idx] == pytest.approx(0.3 * 25.0, rel=1e-14)
        assert rate_tau[idx] == pytest.approx(2.0 * 5.0 + 0.25, rel=1e-14)
        zero, _ = g.mode_index((0, 0))
        assert rate_u[zero] == 0.0
        assert rate_tau[zero] == pytest.approx(0.25)


def split_explicit_rhs(state, params):
    """Reference tendencies built term by term on the grid from dense
    gradients and full matrices, one forward transform per term."""
    u, tau = state.u, state.tau
    g = u.grid
    u_phys = u.to_physical()
    q_full = dense_q(tau, u, params.b)
    q_tri = np.stack([q_full[i, j] for i, j in tau.pairs])
    adv_u = np.einsum("j...,ij...->i...", u_phys, dense_gradient(u))
    adv_tau = np.einsum("j...,mj...->m...", u_phys, dense_gradient(tau))
    du = (divergence(tau).comps
          - dealias(VectorField.from_physical(g, adv_u)).comps)
    dtau = (strain_rate(u).comps
            - dealias(TensorField.from_physical(g, adv_tau)).comps
            - dealias(TensorField.from_physical(g, q_tri)).comps)
    return leray_project(u.with_comps(du)).comps, dtau


def kernel_outputs(u, tau, table, params, record=False):
    """(du, dtau, tau's samples, F(Q)) and max |u| of one _explicit_terms
    call."""
    first, tau_phys, f_q = _explicit_terms(u, tau, table, params, record)
    return (first.du, first.dtau, tau_phys, f_q), first.u_max


@contextlib.contextmanager
def counting():
    """Yield a dict that holds, once the block is left, the increment of
    every key of the package's tally, spectral.COUNTS, over the block."""
    before, counts = COUNTS.copy(), {}
    yield counts
    counts.update((key, n - before[key]) for key, n in COUNTS.items())


def evaluations(times, inverse, forward, **more):
    """The counts of times kernel evaluations of inverse/forward components:
    two inverse calls (the stacks of u and tau), one forward call and one
    projection each; more sets other keys."""
    return {**dict.fromkeys(COUNTS, 0), "evaluations": times,
            "inverse_calls": 2 * times, "inverse_components": times * inverse,
            "forward_calls": times, "forward_components": times * forward,
            "projections": times, **more}


class TestFusedKernel:
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_matches_split_operators(self, d, n):
        st = random_state(Grid(d, n), seed=90 + d, scale=0.7)
        params = ModelParams(eta=1.0, beta=0.5, b=0.6)
        du, dtau = explicit_rhs(st, params)
        ref_u, ref_tau = split_explicit_rhs(st, params)
        for got, ref in ((du.comps, ref_u), (dtau.comps, ref_tau)):
            scale = np.max(np.abs(ref))
            assert scale > 0
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 64), (3, 8), (3, 32)])
    def test_streamed_stress_advection_equals_the_full_stack(self, d, n):
        """u.grad tau is built one stress component at a time; the full
        m d-component gradient stack with the same einsum is the oracle."""
        g = Grid(d, n)
        st = random_state(g, seed=80 + d, scale=0.7)
        _, dtau = explicit_rhs(st, ModelParams(toggles=only("advection")))
        adv = np.einsum("j...,mj...->m...", st.u.to_physical(),
                        dense_gradient(st.tau))
        np.testing.assert_array_equal(
            dtau.comps, -(_forward(adv, g) * g.dealias_mask))

    @pytest.mark.parametrize("d, n, inverse, forward",
                             [(2, 16, 15, 5), (3, 8, 36, 9)])
    def test_step_after_budget_takes_its_tendency(
            self, monkeypatch, d, n, inverse, forward):
        """The step takes the table and the first stage from the Tendency
        of a record's pass: three kernel evaluations, and no scan of the
        state."""
        st = random_state(Grid(d, n), seed=96, scale=0.5)
        params = ModelParams(eta=1.0, beta=0.5, b=-0.4)
        fresh = step(st, params, 1e-3)
        first = DiagnosticsCollector(params, DiagnosticParams(),
                                     st.grid).observe(st)

        def no_scan(coeffs, grid):
            raise AssertionError("the step scanned a state with a tendency")

        # the table's support scan is not tallied
        monkeypatch.setattr(obflow.model, "_box_supported", no_scan)
        with counting() as counts:
            out = step(st, params, 1e-3, first)
        assert counts == evaluations(3, inverse, forward, projections=4)
        assert_bits_equal(out.u.comps, fresh.u.comps)
        assert_bits_equal(out.tau.comps, fresh.tau.comps)

    @pytest.mark.parametrize("d, n, inverse, forward",
                             [(2, 16, 15, 5), (3, 8, 36, 9)])
    def test_explicit_rhs_after_budget_recomputes(self, monkeypatch, d, n,
                                                  inverse, forward):
        """energy_budget leaves nothing behind: explicit_rhs and the step
        after it evaluate the tendency afresh, the step four times.  The
        package's tally pins the work of a record, an evaluation and a
        step without a record, and none of them makes a complex n-d
        transform (a patch, as the tally counts the package's passes)."""
        def complex_transform(*args, **kwargs):
            raise AssertionError("complex fftn/ifftn called on real fields")

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, complex_transform)
        st = random_state(Grid(d, n), seed=96, scale=0.5)
        params = ModelParams(eta=1.0, beta=0.5, b=-0.4)
        fresh = explicit_rhs(st, params)
        fresh_step = step(st, params, 1e-3)
        with counting() as counts:
            energy_budget(st, params)
        # one kernel pass, whose one forward call also transforms Q
        assert counts == evaluations(
            1, inverse, forward, scans=2, records=1,
            forward_components=forward + len(st.tau.pairs))
        assert set(vars(st)) == {"u", "tau", "t"}
        with counting() as counts:
            du, dtau = explicit_rhs(st, params)
        assert counts == evaluations(1, inverse, forward, scans=2)
        assert_bits_equal(du.comps, fresh[0].comps)
        assert_bits_equal(dtau.comps, fresh[1].comps)
        with counting() as counts:
            out = step(st, params, 1e-3)
        # each kernel's du and the result projected, and u and tau
        # scanned once, where the first stage enters
        assert counts == evaluations(4, inverse, forward, projections=5,
                                     scans=2)
        assert_bits_equal(out.u.comps, fresh_step.u.comps)
        assert_bits_equal(out.tau.comps, fresh_step.tau.comps)

    def test_q_work_matches_q_bilinear(self):
        """q_work = <mask F(Q), tau> = -<dtau, tau> with only Q on, up to
        the order of the sum: q_work sums over the 2/3 box's compact
        layout, l2_inner_product over the half layout."""
        st = random_state(Grid(2, 16), seed=97, scale=0.5)
        params = ModelParams(eta=1.0, beta=0.5, b=0.7)
        _, dtau = explicit_rhs(st.copy(), ModelParams(
            eta=1.0, beta=0.5, b=0.7, toggles=only("q_term")))
        ref = -l2_inner_product(dtau, st.tau)
        assert abs(energy_budget(st, params)["q_work"] - ref) <= 1e-15 * abs(ref)


class TestBatchedKernel:
    """The kernel inverts each source stack whole in its table's workspace
    (SupportTable.batched), or one group per call into new arrays, and
    transforms its products forward once; none of it shows in the
    values."""

    PARAMS = ModelParams(eta=1.0, beta=0.5, b=0.5)

    @staticmethod
    def compact_state(d, n, band):
        st = make_initial_data(Grid(d, n), epsilon=0.5, seed=8, band=band)
        table = obflow.model._state_table(st)
        return table, table.gather(st.u.comps), table.gather(st.tau.comps)

    @pytest.mark.parametrize("d, n, band", [
        (2, 16, (1, 4)), (2, 16, (1, 8)), (3, 12, (1, 3)), (3, 12, (1, 6))])
    @pytest.mark.parametrize("record", [False, True])
    def test_one_group_per_call_is_invisible(self, monkeypatch, d, n, band,
                                             record):
        """With the predicate flipped to one group per call, on either
        table, every output is that of one call per stack, bit for bit."""
        table, u, tau = self.compact_state(d, n, band)
        assert table.boxed == (band[1] < table.grid.dealias_cutoff)
        ref, ref_max = kernel_outputs(u, tau, table, self.PARAMS, record)
        assert table.batched
        monkeypatch.setattr(table, "batched", False)
        with counting() as counts:
            got, got_max = kernel_outputs(u, tau, table, self.PARAMS, record)
        m = len(SYM_PAIRS[d])
        # u's values, each row of grad u, tau's values, each row of grad tau
        assert counts["inverse_calls"] == 1 + d + 1 + m
        assert counts["inverse_components"] == d + d * d + m + m * d
        assert got_max == ref_max
        # Q is on, so a record returns tau's samples and F(Q)
        assert [r is None for r in ref] == [False, False] + [not record] * 2
        for g, r in zip(got, ref):
            assert (g is None) == (r is None)
            if r is not None:
                assert_bits_equal(g, r)

    @pytest.mark.parametrize("d, n, batched, calls", [
        pytest.param(2, 64, True, 6, id="2-64-6"),
        pytest.param(2, 128, False, 16, id="2-128-16"),
        pytest.param(3, 32, False, 48, id="3-32-48"),
        pytest.param(3, 16, False, 48, id="3-16-48")])
    def test_numpy_fft_calls_per_evaluation(self, monkeypatch, d, n, batched,
                                            calls):
        """On the box table, 2D n=64 makes one inverse of each stack and
        one forward, two numpy.fft calls each.  The larger grids take one
        group per call: u's values and each row of grad u, tau's values and
        each row of grad tau (7 inverses of 2 calls in 2D, 11 of 4 in 3D),
        and one forward (2 calls, 4 in 3D)."""
        table, u, tau = self.compact_state(d, n, (1, 4))
        assert table.boxed
        assert table.batched == batched
        made = []  # numpy's calls, which the tally does not see
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, lambda *a, _fn=getattr(
                np.fft, name), **k: made.append(1) or _fn(*a, **k))
        _explicit_terms(u, tau, table, self.PARAMS)
        assert len(made) == calls

    def test_a_warm_evaluation_allocates_no_stack(self):
        """Once one evaluation has filled the workspace, the next reuses
        its buffers and allocates less than tau's stack of samples (the
        one-gradient-per-call kernel allocated twice that)."""
        table, u, tau = self.compact_state(2, 64, (1, 4))
        _explicit_terms(u, tau, table, self.PARAMS)
        buffers = dict(table._workspace)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _explicit_terms(u, tau, table, self.PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table._workspace.keys() == buffers.keys()
        assert all(table._workspace[k] is v for k, v in buffers.items())
        stack = 8 * len(SYM_PAIRS[2]) * 3 * 64 ** 2
        assert peak - entry < stack

    def test_nothing_that_leaves_the_kernel_is_workspace(self):
        """du, dtau, F(Q) and a record's samples of tau share no byte with
        the table's workspace."""
        table, u, tau = self.compact_state(2, 16, (1, 4))
        out, _ = kernel_outputs(u, tau, table, self.PARAMS, record=True)
        assert table._workspace
        for array in out:
            for raw in table._workspace.values():
                assert not np.shares_memory(array, raw)


class TestRecordPass:
    """A record (DiagnosticsCollector.observe) runs one pass: one kernel
    evaluation, tau inverted once for Q and the eigenvalue floor."""

    @pytest.mark.parametrize("d, n, inverse, forward",
                             [(2, 16, 15, 8), (3, 8, 36, 15)])
    @pytest.mark.parametrize("q_term", [True, False])
    def test_transform_components_per_record(self, d, n, inverse, forward,
                                             q_term):
        st = random_state(Grid(d, n), seed=99, scale=0.5)
        params = ModelParams(eta=1.0, beta=0.5, nu=0.1, a=0.1, b=0.5,
                             toggles=TermToggles(q_term=q_term))
        coll = DiagnosticsCollector(params, DiagnosticParams(), st.grid)
        with counting() as counts:
            first = coll.observe(st)
        m = len(SYM_PAIRS[d])
        # one forward call, which transforms Q beside the tendencies where
        # Q is on; either way tau is inverted once, in its stack, which the
        # record reads
        assert counts == evaluations(
            1, inverse, forward - (0 if q_term else m), scans=2, records=1)
        # the step from the record's Tendency evaluates three stages; one
        # without it evaluates four, as the record left nothing on the state
        for handed, kernels in ((first, 3), (None, 4)):
            with counting() as counts:
                step(st, params, 1e-3, handed)
            assert counts["evaluations"] == kernels

    @pytest.mark.parametrize("d, n, band", [
        (2, 16, (1, 4)), (2, 16, (1, 8)), (3, 12, (1, 3)), (3, 12, (1, 6))])
    @pytest.mark.parametrize("batched", [True, False])
    def test_f_q_is_the_dealiased_transform_of_q(self, monkeypatch, d, n,
                                                 band, batched):
        """A record's F(Q), from the kernel's one forward call, is _forward
        of the Q triangle, dealiased, bit for bit, on either table and
        either inversion plan; the triangle is built from the dense samples
        of tau and grad u."""
        g = Grid(d, n)
        st = make_initial_data(g, epsilon=0.5, seed=8, band=band)
        table = obflow.model._state_table(st)
        assert table.boxed == (band[1] < g.dealias_cutoff)
        assert table.batched
        monkeypatch.setattr(table, "batched", batched)
        params = ModelParams(eta=1.0, beta=0.5, b=0.5)
        tri = st.tau.to_physical()
        q = _q_triangle_physical(tri, dense_gradient(st.u), params.b,
                                 np.empty_like(tri), np.empty((3,) + g.shape))
        (_, _, tau_phys, f_q), _ = kernel_outputs(
            table.gather(st.u.comps), table.gather(st.tau.comps), table,
            params, record=True)
        assert_bits_equal(tau_phys, tri)
        assert_bits_equal(f_q, _forward(q, g, dealiased=True))


class TestEnergyBudget:
    def test_instantaneous_identity_on_random_states(self):
        """d/dt (||u||^2 + ||tau||^2)/2 + dissipation + Q-work = 0.

        The coupling terms cancel spectrally and advection integrates to
        zero on the dealiased band, so the relative residual sits at
        roundoff for any parameter choice.
        """
        for seed in range(5):
            g = Grid(2, 16)
            st = random_state(g, seed=60 + seed, scale=0.3)
            params = ModelParams(eta=1.3, beta=0.5, nu=0.2, alpha=0.75,
                                 b=-0.6, a=0.1)
            resid = energy_budget(st, params)["residual_rel"]
            assert resid < 1e-11

    def test_identity_in_3d(self):
        g = Grid(3, 8)
        st = random_state(g, seed=70, scale=0.3)
        params = ModelParams(eta=0.8, beta=1.0, nu=0.05, alpha=1.0, b=1.0)
        assert energy_budget(st, params)["residual_rel"] < 1e-11

    def test_budget_terms_signs(self):
        g = Grid(2, 16)
        st = random_state(g, seed=80)
        params = ModelParams(eta=1.0, beta=0.5, nu=0.1, alpha=1.0)
        budget = energy_budget(st, params)
        assert budget["diss_tau_l2"] > 0.0
        assert budget["visc_u_l2"] > 0.0


# the 8 toggle settings, each with the stress dissipation on and off
# (eta = 1, 0), and random-band states zero outside the 2/3 box
TOGGLE_NAMES = [f.name for f in dataclasses.fields(TermToggles)]
TOGGLE_SETTINGS = [TermToggles(**dict(zip(TOGGLE_NAMES, flags)))
                   for flags in itertools.product((True, False),
                                                  repeat=len(TOGGLE_NAMES))]
SETTINGS = list(itertools.product(TOGGLE_SETTINGS, (1.0, 0.0)))
BOX_STATES = [pytest.param(2, 16, (1, 4), id="2d"),
              pytest.param(3, 8, (1, 2), id="3d")]


def box_state(d, n, band):
    st = make_initial_data(Grid(d, n), recipe="random-band", epsilon=0.5,
                           seed=3, band=band)
    assert obflow.model._state_table(st).boxed
    return st


class TestToggleSettings:
    """Transport and the coupling are one toggle each, acting in both
    equations, so no toggle setting is one-sided; eta = 0 is the stress
    dissipation's off switch."""

    @pytest.mark.parametrize("d, n, band", BOX_STATES)
    def test_identity_under_every_setting(self, d, n, band):
        """The L2 identity holds to round-off on a box-supported state under
        all 8 settings and eta in {0, 1}, with and without viscosity and
        damping: the coupling works cancel, and advection integrates to
        zero."""
        st = box_state(d, n, band)
        size = l2_norm(st.u) ** 2 + l2_norm(st.tau) ** 2
        assert len(SETTINGS) == 16
        for toggles, eta in SETTINGS:
            for nu, a in ((0.0, 0.0), (0.05, 0.1)):
                params = ModelParams(eta=eta, beta=0.5, b=0.5, nu=nu, a=a,
                                     toggles=toggles)
                residual = energy_budget(st, params)["residual"]
                assert abs(residual) <= 1e-12 * size, (toggles, eta, nu, a)

    @pytest.mark.parametrize("d, n, band", BOX_STATES)
    def test_no_dead_switch(self, d, n, band):
        """From every setting, switching off any toggle that is on, or eta,
        changes rhs."""
        st = box_state(d, n, band)
        tendencies = {}
        for toggles, eta in SETTINGS:
            du, dtau = rhs(st, ModelParams(eta=eta, beta=0.5, b=0.5,
                                           toggles=toggles))
            tendencies[toggles, eta] = np.concatenate(
                [du.comps.ravel(), dtau.comps.ravel()])
        for (toggles, eta), flat in tendencies.items():
            offs = [(dataclasses.replace(toggles, **{name: False}), eta)
                    for name in TOGGLE_NAMES if getattr(toggles, name)]
            if eta:
                offs.append((toggles, 0.0))
            for off in offs:
                assert not np.array_equal(flat, tendencies[off]), (
                    toggles, eta, off)


def assert_bits_equal(got, ref):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(ref).view(np.uint64))


class TestBoxSupportedKernel:
    """explicit_rhs, energy_budget and step scan u and tau for support in
    the 2/3 box and run on the box table's compact coefficients, or on the
    whole table; either way they give the values of the whole table, bit
    for bit, signs of zeros included.  The budget sums over the table's
    compact layout, so its terms agree to round-off: 1e-13 relative, and
    the residual within 1e-15 of the balance scale."""

    PARAMS = ModelParams(eta=1.0, beta=0.75, nu=0.05, b=0.5, a=0.1)

    @staticmethod
    def terms(state, params):
        du, dtau = explicit_rhs(state.copy(), params)
        out = step(state.copy(), params, 1e-2)
        return ((du.comps, dtau.comps, out.u.comps, out.tau.comps),
                energy_budget(state.copy(), params))

    def assert_equals_the_whole_table(self, monkeypatch, state):
        with monkeypatch.context() as patch:
            patch.setattr(obflow.model, "_box_supported", lambda c, g: False)
            ref, ref_budget = self.terms(state, self.PARAMS)
        got, budget = self.terms(state, self.PARAMS)
        assert np.any(got[1] != 0)
        for g, r in zip(got, ref):
            assert_bits_equal(g, r)
        assert budget.keys() == ref_budget.keys()
        scale = max(abs(v) for k, v in ref_budget.items()
                    if not k.startswith("residual"))
        for key, r in ref_budget.items():
            tol = {"residual": 1e-15 * scale, "residual_rel": 1e-15}.get(
                key, 1e-13 * abs(r))
            assert abs(budget[key] - r) <= tol, key

    @pytest.mark.parametrize("d, n, mode, boxed", [
        (2, 16, (0, 7), False), (2, 16, (2, 3), True),
        (3, 12, (0, 5, 1), False), (3, 12, (1, 2, 3), True)])
    def test_single_mode_equals_the_full_passes(self, monkeypatch, d, n,
                                                mode, boxed):
        g = Grid(d, n)
        st = make_initial_data(g, recipe="single-mode", epsilon=0.5,
                               mode=mode)
        assert obflow.model._state_table(st) is g.support_table(boxed)
        self.assert_equals_the_whole_table(monkeypatch, st)

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 48), (3, 12)])
    def test_random_state_equals_the_full_passes(self, monkeypatch, d, n):
        g = Grid(d, n)
        st = random_state(g, seed=40 + d, scale=0.5)
        assert obflow.model._state_table(st).boxed
        self.assert_equals_the_whole_table(monkeypatch, st)

    @pytest.mark.parametrize("d, n, band", [(2, 24, (1, 12)), (3, 12, (1, 6))])
    def test_band_past_the_cutoff_takes_the_whole_table(self, monkeypatch, d,
                                                       n, band):
        """Data outside the box: the scan picks the whole table, and one
        coefficient outside the box in tau alone is enough."""
        g = Grid(d, n)
        st = make_initial_data(g, epsilon=0.5, seed=3, band=band)
        assert not obflow.model._state_table(st).boxed
        self.assert_equals_the_whole_table(monkeypatch, st)
        st = random_state(g, seed=5, scale=0.5)
        st.tau.comps[(0,) * d + (g.dealias_cutoff,)] = 1e-3
        assert not obflow.model._state_table(st).boxed

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 12)])
    def test_kernel_tables_agree(self, d, n):
        """_explicit_terms on the box table's compact coefficients, scattered,
        equals _explicit_terms on the whole table, and its F(Q) and tau's
        samples too; either table's max |u| is that of u.to_physical()."""
        g = Grid(d, n)
        st = random_state(g, seed=50 + d, scale=0.5)
        box, whole = g.support_table(True), g.support_table(False)
        (du, dtau, tau_phys, f_q), u_max = kernel_outputs(
            box.gather(st.u.comps), box.gather(st.tau.comps), box,
            self.PARAMS, record=True)
        ref, ref_max = kernel_outputs(st.u.comps, st.tau.comps, whole,
                                      self.PARAMS, record=True)
        assert du.shape == (d,) + box.shape
        for got, r in zip((box.scatter(du), box.scatter(dtau), tau_phys,
                           f_q), ref):
            assert_bits_equal(got, r)
        assert_bits_equal(tau_phys, st.tau.to_physical())
        assert u_max == ref_max == float(np.max(np.abs(st.u.to_physical())))


class TestInitialData:
    def test_norm_normalization_exact(self):
        for recipe in ("single-mode", "random-band", "taylor-green"):
            g = Grid(2, 32)
            st = make_initial_data(g, recipe=recipe, epsilon=1e-2, s=2.01,
                                   seed=3)
            total = sobolev_norm(st.u, 2.01) + sobolev_norm(st.tau, 2.01)
            assert total == pytest.approx(1e-2, rel=1e-12)

    def test_velocity_is_divergence_free(self):
        for recipe in ("single-mode", "random-band", "taylor-green"):
            g = Grid(2, 32)
            st = make_initial_data(g, recipe=recipe, epsilon=1.0, seed=5)
            assert l2_norm(divergence(st.u)) < 1e-12 * max(l2_norm(st.u), 1.0)

    def test_seed_determinism_bitwise(self):
        g = Grid(2, 16)
        a = make_initial_data(g, recipe="random-band", epsilon=1e-2, seed=42)
        b = make_initial_data(g, recipe="random-band", epsilon=1e-2, seed=42)
        np.testing.assert_array_equal(a.u.comps, b.u.comps)
        np.testing.assert_array_equal(a.tau.comps, b.tau.comps)
        c = make_initial_data(g, recipe="random-band", epsilon=1e-2, seed=43)
        assert np.max(np.abs(a.u.comps - c.u.comps)) > 0.0

    def test_zero_amplitude_gives_zero_state(self):
        g = Grid(2, 16)
        st = make_initial_data(g, recipe="random-band", epsilon=0.0)
        assert np.max(np.abs(st.u.comps)) == 0.0
        assert np.max(np.abs(st.tau.comps)) == 0.0

    @pytest.mark.parametrize("recipe", ["single-mode", "random-band"])
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_is_named(self, recipe, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be finite"):
            make_initial_data(Grid(2, 16), recipe=recipe, epsilon=epsilon)

    def test_single_mode_validation(self):
        g = Grid(2, 16)
        with pytest.raises(ValueError):
            make_initial_data(g, recipe="single-mode", mode=(0, 0))
        with pytest.raises(ValueError):
            make_initial_data(g, recipe="single-mode", mode=(0, 8))

    def test_negative_seed_is_named(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            make_initial_data(Grid(2, 16), recipe="random-band", seed=-1)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_band_reaches_half_the_grid_and_no_further(self, d, n):
        """A band edge above n/2 kept modes beside the Nyquist column whose
        mirrors the projection got wrong; such a band is now rejected, and
        one that ends at n/2 steps cleanly."""
        g = Grid(d, n)
        with pytest.raises(ConfigError, match="^band .* is not resolved"):
            make_initial_data(g, recipe="random-band", band=(1, n // 2 + 1))
        st = make_initial_data(g, recipe="random-band", band=(1, n // 2),
                               epsilon=1e-2, seed=2)
        out = step(st, ModelParams(eta=1.0, beta=0.5, b=0.5), 1e-3)
        assert np.all(np.isfinite(out.u.comps))
        assert np.all(np.isfinite(out.tau.comps))

    def test_defaults_are_the_config_defaults(self, tmp_path):
        """make_initial_data(grid) is the initial state of a run of {}
        (cut to t_end = 0, which the initial state does not depend on)."""
        cfg, _ = validate_config({"stepper": {"t_end": 0.0}})
        run_single(cfg, tmp_path)
        _, _, snap0 = read_snapshot(tmp_path / "snapshots" / "snap_00000000.obsf")
        st = make_initial_data(cfg.grid)
        np.testing.assert_array_equal(
            snap0, np.concatenate([st.u.to_physical(), st.tau.to_physical()]))

    def test_3d_recipes(self):
        g = Grid(3, 8)
        for recipe in ("single-mode", "random-band", "taylor-green"):
            st = make_initial_data(g, recipe=recipe, epsilon=1e-2, seed=1)
            total = (sobolev_norm(st.u, 2.51) + sobolev_norm(st.tau, 2.51))
            assert total == pytest.approx(1e-2, rel=1e-12)


class TestParams:
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_exponent_bound(self, name):
        """|k|^(2 gamma) overflows for a large exponent, which would make
        the dissipation rates NaN; the bound is a named ConfigError."""
        ModelParams(**{name: 16.0})
        with pytest.raises(ConfigError, match=f"^{name} must lie in "
                                              r"\[0, 16\]"):
            ModelParams(nu=0.0, **{name: 200.0})
        rate_u, rate_tau = dissipation_rates(Grid(3, 64),
                                             ModelParams(nu=1.0, alpha=16.0,
                                                         beta=16.0))
        assert np.all(np.isfinite(rate_u)) and np.all(np.isfinite(rate_tau))

    def test_hard_validation(self):
        with pytest.raises(ValueError):
            ModelParams(eta=-1e-12)
        with pytest.raises(ValueError):
            ModelParams(eta=1.0, b=1.5)
        with pytest.raises(ValueError):
            ModelParams(eta=1.0, a=-0.1)
        with pytest.raises(ValueError):
            ModelParams(eta=1.0, nu=-1e-3)

    @pytest.mark.parametrize("name, value", [
        ("eta", math.inf), ("eta", math.nan), ("beta", math.nan),
        ("beta", math.inf), ("alpha", math.nan), ("nu", math.nan),
        ("nu", math.inf), ("a", math.nan), ("a", math.inf), ("b", math.nan)])
    def test_non_finite_values_are_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ModelParams(**{name: value})

    def test_soft_warnings(self):
        assert ModelParams(eta=1.0, beta=1.0, alpha=1.0).warnings() == []
        # eta = 0 is the off switch of the stress dissipation: it runs
        assert ModelParams(eta=0.0).warnings() == [
            "eta=0 switches off the stress dissipation, on which the "
            "estimates rest"]
        assert any("beta" in w for w in
                   ModelParams(eta=1.0, beta=0.4).warnings())
        # alpha above min(1, 3 beta - 1) with nu > 0 is flagged
        msgs = ModelParams(eta=1.0, beta=0.5, alpha=0.9, nu=0.1).warnings()
        assert any("alpha" in w for w in msgs)
        assert ModelParams(eta=1.0, beta=0.5, alpha=0.9, nu=0.0).warnings() == []
