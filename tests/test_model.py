"""Model terms: Q bilinear form, advection, tendencies, energy budget."""

import math

import numpy as np
import pytest

from obflow.model import (
    FlowState,
    ModelParams,
    TermToggles,
    advect,
    dissipation_rates,
    energy_balance_residual,
    energy_budget,
    explicit_rhs,
    make_initial_data,
    q_bilinear,
    recover_pressure,
    rhs,
    strain_rate,
    vorticity_tensor,
)
from obflow.spectral import (
    Grid,
    TensorField,
    VectorField,
    dealias,
    divergence,
    forward_transform,
    gradient,
    inverse_transform,
    l2_inner_product,
    l2_norm,
    leray_project,
    sobolev_norm,
)


def random_state(grid, seed, scale=1.0, project=True):
    """Dealiased random state; u divergence-free unless project=False."""
    rng = np.random.default_rng(seed)
    u = VectorField(grid, np.stack([
        forward_transform(scale * rng.standard_normal(grid.shape), grid).coeffs
        for _ in range(grid.d)]))
    u = dealias(u)
    if project:
        u = leray_project(u)
    tau = TensorField.zeros(grid)
    for i in range(tau.comps.shape[0]):
        tau.comps[i] = forward_transform(
            scale * rng.standard_normal(grid.shape), grid).coeffs
    tau = dealias(tau)
    return FlowState(u, tau)


def dense_gradient(u):
    """(d, d, *grid) physical array with G[i, j] = d_j u_i."""
    g = u.grid
    return np.stack([
        np.stack([inverse_transform(gradient(u.component(i)).component(j))
                  for j in range(g.d)])
        for i in range(g.d)])


class TestStrainAndVorticity:
    def test_decomposition_recovers_gradient(self):
        """D + W = grad u component-wise, both built from the same multipliers."""
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            st = random_state(g, seed=d)
            dmat = strain_rate(st.u)
            wmat = vorticity_tensor(st.u)
            grad = dense_gradient(st.u)
            for i in range(d):
                for j in range(d):
                    dij = inverse_transform(dmat.component(i, j))
                    wij = inverse_transform(wmat.component(i, j))
                    np.testing.assert_allclose(dij + wij, grad[i, j],
                                               rtol=0, atol=1e-12)

    def test_strain_is_symmetric_vorticity_skew(self):
        g = Grid(2, 16)
        st = random_state(g, seed=5)
        dmat = strain_rate(st.u)
        wmat = vorticity_tensor(st.u)
        assert dmat.kind == "symmetric"
        assert wmat.kind == "skew"
        np.testing.assert_array_equal(wmat.component(1, 0).coeffs,
                                      -wmat.component(0, 1).coeffs)


class TestQBilinear:
    def test_identity_stress_gives_minus_2b_strain(self):
        """tau = I: the rotation terms cancel and Q = -2b D(u)."""
        g = Grid(2, 32)
        st = random_state(g, seed=2)
        tau = TensorField.zeros(g)
        for i in range(g.d):
            tau.comps[tau.pair_index(i, i)][g.mode_index((0, 0))] = 1.0
        for b in (-1.0, 0.0, 0.5, 1.0):
            q = q_bilinear(tau, st.u, b)
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
        u.comps[0] = forward_transform(np.sin(x[1]), g).coeffs
        tau = TensorField.zeros(g)
        for (i, j), val in (((0, 0), 2.0), ((0, 1), 1.0), ((1, 1), 3.0)):
            tau.comps[tau.pair_index(i, j)][g.mode_index((0, 0))] = val
        q = q_bilinear(tau, u, b=0.5)
        c = np.cos(x[1])
        np.testing.assert_allclose(inverse_transform(q.component(0, 0)),
                                   -1.5 * c, atol=1e-13)
        np.testing.assert_allclose(inverse_transform(q.component(0, 1)),
                                   -1.75 * c, atol=1e-13)
        np.testing.assert_allclose(inverse_transform(q.component(1, 1)),
                                   0.5 * c, atol=1e-13)

    def test_matches_dense_matrix_oracle(self):
        """Triangle-storage result equals the full-matrix computation."""
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            st = random_state(g, seed=d + 10)
            b = 0.7
            q = q_bilinear(st.tau, st.u, b)

            grad = dense_gradient(st.u)
            dmat = 0.5 * (grad + np.swapaxes(grad, 0, 1))
            wmat = 0.5 * (grad - np.swapaxes(grad, 0, 1))
            tau_full = st.tau.to_physical()  # triangle
            full = np.zeros((d, d) + g.shape)
            for idx, (i, j) in enumerate(st.tau.pairs):
                full[i, j] = tau_full[idx]
                full[j, i] = tau_full[idx]
            tw = np.einsum("ab...,bc...->ac...", full, wmat)
            wt = np.einsum("ab...,bc...->ac...", wmat, full)
            dt = np.einsum("ab...,bc...->ac...", dmat, full)
            td = np.einsum("ab...,bc...->ac...", full, dmat)
            oracle = (tw - wt) - b * (dt + td)
            for idx, (i, j) in enumerate(st.tau.pairs):
                got = dealias(forward_transform(oracle[i, j], g))
                np.testing.assert_allclose(q.comps[idx], got.coeffs,
                                           rtol=0, atol=1e-13)

    def test_result_is_symmetric(self):
        g = Grid(2, 16)
        st = random_state(g, seed=21)
        for b in (-1.0, 0.3, 1.0):
            q = q_bilinear(st.tau, st.u, b)
            full = q.full_matrix()
            gap = np.max(np.abs(full - np.swapaxes(full, 0, 1)))
            assert gap < 1e-13


class TestAdvectionSkewSymmetry:
    def test_scalar_advection_integrates_to_zero(self):
        """<u . grad f, f> = 0 for divergence-free u; the strict dealias
        band keeps the pairing alias-free so this holds to roundoff."""
        from obflow.model import advect

        for n in (16, 32):
            g = Grid(2, n)
            st = random_state(g, seed=n)
            f = dealias(forward_transform(
                np.random.default_rng(n + 1).standard_normal(g.shape), g))
            adv = advect(st.u, f)
            ip = l2_inner_product(adv, f)
            scale = l2_norm(st.u) * l2_norm(f) ** 2 * (n / 3.0)
            assert abs(ip) < 1e-13 * max(scale, 1.0)

    def test_tensor_advection_integrates_to_zero(self):
        from obflow.model import advect

        g = Grid(2, 16)
        st = random_state(g, seed=33)
        adv = advect(st.u, st.tau)
        ip = l2_inner_product(adv, st.tau)
        scale = l2_norm(st.u) * l2_norm(st.tau) ** 2 * (16 / 3.0)
        assert abs(ip) < 1e-13 * max(scale, 1.0)


class TestTendencies:
    def test_all_terms_off_gives_zero(self):
        g = Grid(2, 16)
        st = random_state(g, seed=4)
        off = TermToggles(advection_u=False, advection_tau=False, q_term=False,
                          stress_divergence=False, strain_source=False,
                          nu_dissipation=False, eta_dissipation=False,
                          damping=False)
        params = ModelParams(eta=1.0, nu=0.5, a=0.3, toggles=off)
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
        idx = g.mode_index(mode)
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
        idx = g.mode_index((3, 4))
        assert rate_u[idx] == pytest.approx(0.3 * 25.0, rel=1e-14)
        assert rate_tau[idx] == pytest.approx(2.0 * 5.0 + 0.25, rel=1e-14)
        assert rate_u[g.mode_index((0, 0))] == 0.0
        assert rate_tau[g.mode_index((0, 0))] == pytest.approx(0.25)


def split_explicit_rhs(state, params):
    """Reference tendencies built term by term from the split operators."""
    u, tau = state.u, state.tau
    du = divergence(tau).comps - advect(u, u).comps
    dtau = (strain_rate(u).comps - advect(u, tau).comps
            - q_bilinear(tau, u, params.b).comps)
    return leray_project(u.with_comps(du)).comps, dtau


@pytest.fixture
def fft_components(monkeypatch):
    """Counts [inverse, forward] transformed components of numpy's fftn."""
    counts = [0, 0]

    def counting(fn, slot):
        def wrapper(a, s=None, axes=None, norm=None):
            a = np.asarray(a)
            counts[slot] += a.size // math.prod(a.shape[ax] for ax in axes)
            return fn(a, s=s, axes=axes, norm=norm)
        return wrapper

    monkeypatch.setattr(np.fft, "ifftn", counting(np.fft.ifftn, 0))
    monkeypatch.setattr(np.fft, "fftn", counting(np.fft.fftn, 1))
    return counts


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

    @pytest.mark.parametrize("d, n, inverse, forward",
                             [(2, 16, 15, 5), (3, 8, 36, 9)])
    def test_transform_components_per_call(self, fft_components, d, n,
                                           inverse, forward):
        st = random_state(Grid(d, n), seed=95, scale=0.5)
        fft_components[:] = [0, 0]
        explicit_rhs(st, ModelParams(eta=1.0, b=0.5))
        assert fft_components == [inverse, forward]

    @pytest.mark.parametrize("d, n, inverse, forward",
                             [(2, 16, 15, 5), (3, 8, 36, 9)])
    def test_budget_hands_its_tendency_to_explicit_rhs(
            self, fft_components, d, n, inverse, forward):
        st = random_state(Grid(d, n), seed=96, scale=0.5)
        params = ModelParams(eta=1.0, beta=0.5, b=-0.4)
        fresh = explicit_rhs(st.copy(), params)
        fft_components[:] = [0, 0]
        energy_budget(st, params)
        # one kernel pass plus the forward transform of the Q triangle
        budget = [inverse, forward + len(st.tau.pairs)]
        assert fft_components == budget
        du, dtau = explicit_rhs(st, params)
        assert fft_components == budget
        np.testing.assert_array_equal(du.comps, fresh[0].comps)
        np.testing.assert_array_equal(dtau.comps, fresh[1].comps)
        # the hand-off is dropped once taken
        explicit_rhs(st, params)
        assert fft_components == [budget[0] + inverse, budget[1] + forward]

    def test_q_work_matches_q_bilinear(self):
        st = random_state(Grid(2, 16), seed=97, scale=0.5)
        params = ModelParams(eta=1.0, beta=0.5, b=0.7)
        ref = l2_inner_product(q_bilinear(st.tau, st.u, params.b), st.tau)
        assert energy_budget(st, params)["q_work"] == ref


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
            resid = energy_balance_residual(st, params)
            assert resid < 1e-11

    def test_identity_in_3d(self):
        g = Grid(3, 8)
        st = random_state(g, seed=70, scale=0.3)
        params = ModelParams(eta=0.8, beta=1.0, nu=0.05, alpha=1.0, b=1.0)
        assert energy_balance_residual(st, params) < 1e-11

    def test_budget_terms_signs(self):
        g = Grid(2, 16)
        st = random_state(g, seed=80)
        params = ModelParams(eta=1.0, beta=0.5, nu=0.1, alpha=1.0)
        budget = energy_budget(st, params)
        assert budget["diss_tau_l2"] > 0.0
        assert budget["visc_u_l2"] > 0.0


class TestPressure:
    def test_isotropic_stress_recovers_potential(self):
        """tau = phi I with u = 0 forces p = phi - mean(phi)."""
        g = Grid(2, 32)
        x = g.coordinates()
        phi = 1.0 + np.cos(x[0]) + 0.5 * np.sin(2.0 * x[1])
        tau = TensorField.zeros(g)
        phi_hat = forward_transform(phi, g).coeffs
        for i in range(g.d):
            tau.comps[tau.pair_index(i, i)] = phi_hat.copy()
        st = FlowState(VectorField.zeros(g), tau)
        p = recover_pressure(st, ModelParams(eta=1.0))
        np.testing.assert_allclose(inverse_transform(p), phi - np.mean(phi),
                                   atol=1e-12)

    def test_gradient_removal_makes_forcing_solenoidal(self):
        g = Grid(2, 16)
        st = random_state(g, seed=90, scale=0.5)
        params = ModelParams(eta=1.0, b=0.2)
        p = recover_pressure(st, params)
        # recompute the full forcing: -(u.grad u) + div tau
        from obflow.model import advect

        adv = advect(st.u, st.u)
        div_tau = divergence(st.tau)
        comps = div_tau.comps - adv.comps
        grad_p = gradient(p)
        resid = divergence(VectorField(g, comps - grad_p.comps))
        assert l2_norm(resid) < 1e-11 * max(l2_norm(VectorField(g, comps)), 1.0)


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

    def test_single_mode_validation(self):
        g = Grid(2, 16)
        with pytest.raises(ValueError):
            make_initial_data(g, recipe="single-mode", mode=(0, 0))
        with pytest.raises(ValueError):
            make_initial_data(g, recipe="single-mode", mode=(0, 8))

    def test_3d_recipes(self):
        g = Grid(3, 8)
        for recipe in ("single-mode", "random-band", "taylor-green"):
            st = make_initial_data(g, recipe=recipe, epsilon=1e-2, seed=1)
            total = (sobolev_norm(st.u, 2.51) + sobolev_norm(st.tau, 2.51))
            assert total == pytest.approx(1e-2, rel=1e-12)


class TestParams:
    def test_hard_validation(self):
        with pytest.raises(ValueError):
            ModelParams(eta=0.0)
        with pytest.raises(ValueError):
            ModelParams(eta=1.0, b=1.5)
        with pytest.raises(ValueError):
            ModelParams(eta=1.0, a=-0.1)
        with pytest.raises(ValueError):
            ModelParams(eta=1.0, nu=-1e-3)

    def test_soft_warnings(self):
        assert ModelParams(eta=1.0, beta=1.0, alpha=1.0).warnings() == []
        assert any("beta" in w for w in
                   ModelParams(eta=1.0, beta=0.4).warnings())
        # alpha above min(1, 3 beta - 1) with nu > 0 is flagged
        msgs = ModelParams(eta=1.0, beta=0.5, alpha=0.9, nu=0.1).warnings()
        assert any("alpha" in w for w in msgs)
        assert ModelParams(eta=1.0, beta=0.5, alpha=0.9, nu=0.0).warnings() == []
