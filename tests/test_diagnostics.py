"""Energy functionals, Lyapunov bookkeeping, eigenvalue floor, distances."""

import math

import numpy as np
import pytest

from obflow.diagnostics import (
    CSV_COLUMNS,
    DiagnosticParams,
    DiagnosticsCollector,
    bootstrap_monitor,
    diagnostics_csv,
    energy_identity_residual,
    lyapunov_equivalence_check,
    max_relative_identity_residual,
    stress_min_eigenvalue,
    trajectory_distance,
)
import obflow.model
from obflow.model import (
    FlowState,
    ModelParams,
    TermToggles,
    explicit_rhs,
    make_initial_data,
    rhs,
)
from obflow.spectral import (
    Grid,
    SpectralField,
    TensorField,
    VectorField,
    divergence,
    fractional_laplacian,
    gradient,
    l2_inner_product,
    sobolev_inner_product,
)
from obflow.stepping import StepperConfig, integrate

from states import random_state

TWO_PI = 2.0 * math.pi


def collect_one(state, params, diag=None):
    diag = diag or DiagnosticParams()
    coll = DiagnosticsCollector(params, diag, state.grid)
    coll.observe(state, 0)
    return coll.records[0], coll


class TestRecordFields:
    def test_zero_state(self):
        g = Grid(2, 16)
        st = FlowState(VectorField.zeros(g), TensorField.zeros(g))
        rec, coll = collect_one(st, ModelParams(eta=1.0))
        assert rec.u_hs == 0.0
        assert rec.tau_hs == 0.0
        assert rec.E == 0.0
        assert rec.L == 0.0
        assert rec.cross == 0.0
        # sigma = tau + I = I, so the eigenvalue floor is exactly 1
        assert rec.min_eig_sigma == pytest.approx(1.0, rel=1e-14)
        assert coll.lyapunov_violations == 0

    def test_velocity_free_state_has_no_cross_term(self):
        g = Grid(2, 16)
        x = g.coordinates()
        tau = TensorField.zeros(g)
        tau.comps[tau.pair_index(0, 1)] = SpectralField.from_physical(
            g, np.sin(x[1])).comps
        st = FlowState(VectorField.zeros(g), tau)
        rec, _ = collect_one(st, ModelParams(eta=1.0))
        assert rec.cross == 0.0
        assert rec.L == pytest.approx(rec.tau_hs ** 2, rel=1e-13)

    def test_cross_term_hand_value(self):
        """u = 2 cos(y) e_x, tau_01 = 3 sin(y), s = 2, beta = 1:

        <u, div tau>_{H^1} = (2 pi)^2 * (1 + 1)^1 * (2*3)/2 = 6 (2 pi)^2.
        """
        g = Grid(2, 32)
        x = g.coordinates()
        u = VectorField.zeros(g)
        u.comps[0] = SpectralField.from_physical(g, 2.0 * np.cos(x[1])).comps
        tau = TensorField.zeros(g)
        tau.comps[tau.pair_index(0, 1)] = SpectralField.from_physical(
            g, 3.0 * np.sin(x[1])).comps
        st = FlowState(u, tau)
        params = ModelParams(eta=1.0, beta=1.0)
        diag = DiagnosticParams(s=2.0, k_cross=0.1)
        rec, _ = collect_one(st, params, diag)
        expected = 6.0 * TWO_PI ** 2
        assert rec.cross == pytest.approx(expected, rel=1e-12)
        assert rec.L == pytest.approx(
            rec.u_hs ** 2 + rec.tau_hs ** 2 + 0.2 * expected, rel=1e-12)

    def test_initial_energy_is_squared_norms(self):
        g = Grid(2, 16)
        st = random_state(g, seed=3, scale=0.1)
        rec, _ = collect_one(st, ModelParams(eta=1.0, beta=0.5))
        assert rec.E == pytest.approx(rec.u_hs ** 2 + rec.tau_hs ** 2,
                                      rel=1e-13)

    def test_csv_columns_and_round_trip(self):
        g = Grid(2, 16)
        st = random_state(g, seed=4, scale=0.1)
        rec, coll = collect_one(st, ModelParams(eta=1.0))
        text = diagnostics_csv(coll.records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0].startswith("t,u_hs,tau_hs,u_l2,tau_l2,")
        values = lines[1].split(",")
        # repr floats parse back exactly
        assert float(values[1]) == rec.u_hs
        assert float(values[CSV_COLUMNS.index("E")]) == rec.E


def half_layout_record(state, params, diag):
    """Every column of a first record by sums over the half layout, with
    the public operators (E has no dissipation integral yet), and the
    balance scale of the L2 identity."""
    u, tau, s, kc = state.u, state.tau, diag.resolve_s(state.grid), diag.k_cross
    sb = s - params.beta

    def norm(f, sigma):
        return math.sqrt(sobolev_inner_product(f, f, sigma))

    def pairing(f, gamma, sigma):
        return sobolev_inner_product(fractional_laplacian(f, gamma), f, sigma)

    du, dtau = rhs(state.copy(), params)
    u_work, tau_work = l2_inner_product(u, du), l2_inner_product(tau, dtau)
    diss_tau_l2 = pairing(tau, params.beta, 0.0) if params.eta_eff else 0.0
    visc_u_l2 = pairing(u, params.alpha, 0.0) if params.nu else 0.0
    q_work = 0.0
    if params.toggles.q_term:  # with only Q on, the stress tendency is -F(Q)
        _, q = explicit_rhs(state.copy(), ModelParams(b=params.b, toggles=(
            TermToggles(advection=False, coupling=False))))
        q_work = -l2_inner_product(q, tau)
    parts = (u_work, tau_work, params.eta_eff * diss_tau_l2,
             params.nu * visc_u_l2, params.a * l2_inner_product(tau, tau),
             q_work)
    scale = max(abs(p) for p in parts)
    cross = sobolev_inner_product(u, divergence(tau), sb)
    u_hs, tau_hs = norm(u, s), norm(tau, s)
    return {
        "t": state.t, "u_hs": u_hs, "tau_hs": tau_hs,
        "u_l2": norm(u, 0.0), "tau_l2": norm(tau, 0.0),
        "diss_tau": pairing(tau, params.beta, s),
        "diss_u": sum(sobolev_inner_product(g, g, sb) for g in (
            gradient(u.component(i)) for i in range(state.grid.d))),
        "visc_u": params.nu * pairing(u, params.alpha, s) if params.nu else 0.0,
        "cross": cross,
        "E": u_hs ** 2 + tau_hs ** 2,
        "L": u_hs ** 2 + tau_hs ** 2 + 2.0 * kc * cross,
        "q_work": q_work,
        "identity_residual": abs(sum(parts)) / scale,
        "min_eig_sigma": stress_min_eigenvalue(state),
        "diss_tau_l2": diss_tau_l2,
        "visc_u_l2": params.nu * visc_u_l2,
    }, scale


class TestRecordPass:
    """observe sums over the compact spectra of the record's support table;
    every column agrees with the half-layout formulas to round-off, and
    min_eig_sigma, from tau's one inverse, bit for bit."""

    @pytest.mark.parametrize("d, n, band, boxed", [
        (2, 32, (1, 4), True), (2, 32, (1, 16), False),
        (3, 12, (1, 3), True), (3, 16, (1, 8), False)])
    @pytest.mark.parametrize("params", [
        ModelParams(eta=1.0, beta=0.75, nu=0.05, alpha=0.7, a=0.1, b=0.5),
        ModelParams(eta=1.3, beta=0.5, nu=0.2, b=-0.6,
                    toggles=TermToggles(q_term=False)),
        ModelParams(eta=1.0, beta=1.0, a=0.2, b=0.3,
                    toggles=TermToggles(eta_dissipation=False))],
        ids=["nu-a", "no-q", "no-eta"])
    def test_columns_match_the_half_layout(self, d, n, band, boxed, params):
        g = Grid(d, n)
        st = make_initial_data(g, epsilon=0.5, seed=11, band=band)
        assert obflow.model._state_table(st).boxed == boxed
        diag = DiagnosticParams()
        rec, _ = collect_one(st, params, diag)
        ref, scale = half_layout_record(st, params, diag)
        assert set(ref) == set(CSV_COLUMNS)
        for name in CSV_COLUMNS:
            got = getattr(rec, name)
            if name == "min_eig_sigma":
                assert np.float64(got).view(np.uint64) == \
                    np.float64(ref[name]).view(np.uint64)
            elif name == "q_work":
                assert abs(got - ref[name]) <= 1e-15 * scale
            elif name == "identity_residual":
                assert abs(got - ref[name]) <= 1e-15
            else:
                assert abs(got - ref[name]) <= 1e-13 * abs(ref[name]), name


class TestLyapunovEquivalence:
    def test_random_states_never_violate(self):
        """|2 kc <u, div tau>_{s-b}| <= u^2/2 + 2 kc^2 tau^2 for kc < 1/4
        and beta >= 1/2; checked over random states for each beta."""
        diag = DiagnosticParams(k_cross=0.1)
        for beta in (0.5, 0.75, 1.0):
            params = ModelParams(eta=1.0, beta=beta)
            coll = DiagnosticsCollector(params, diag, Grid(2, 16))
            for trial in range(70):
                st = random_state(Grid(2, 16), seed=1000 + trial, scale=2.0)
                coll.observe(st, trial)
            assert coll.lyapunov_violations == 0

    def test_check_reports_slack(self):
        g = Grid(2, 16)
        st = random_state(g, seed=5)
        params = ModelParams(eta=1.0, beta=0.5)
        rec, _ = collect_one(st, params)
        passed, slack = lyapunov_equivalence_check(rec, 0.1)
        assert passed
        assert slack >= 0.0

    @staticmethod
    def relative_slacks(n, beta):
        """Per K = 1 .. n/3, the check's slack over its right side on the
        2D mode u = (0, A cos K x0), tau_01 = sin K x0, A = 2 sqrt(2) kc,
        where the cross term is largest against the norms; observe counts
        a violation exactly where the check fails."""
        g, kc, out = Grid(2, n), DiagnosticParams().k_cross, []
        u, tau = np.zeros((2,) + g.shape), np.zeros((3,) + g.shape)
        for k in range(1, n // 3 + 1):
            u[1] = 2.0 * math.sqrt(2.0) * kc * np.cos(k * g.coordinates()[0])
            tau[1] = np.sin(k * g.coordinates()[0])
            rec, coll = collect_one(FlowState(
                VectorField.from_physical(g, u), TensorField.from_physical(
                    g, tau)), ModelParams(beta=beta, b=0.5))
            passed, slack = lyapunov_equivalence_check(rec, kc)
            assert coll.lyapunov_violations == (not passed)
            rhs = 0.5 * rec.u_hs ** 2 + 2.0 * kc ** 2 * rec.tau_hs ** 2
            out.append(slack / rhs)
        return out

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 1.0])
    def test_holds_at_every_kept_mode_from_beta_one_half(self, n, beta):
        """The cross term carries K^(1 - 2 beta) against the H^s norms.  At
        beta = 1/4 the check fails at a mode the 2/3 rule keeps (relative
        slack -1.23 at K = 10 for n = 32, -2.24 at K = 21 for n = 64); for
        beta >= 1/2 it holds at every K <= n/3, by at least +0.29."""
        worst = min(self.relative_slacks(n, beta))
        assert worst < -1.0 if beta < 0.5 else worst > 0.25

    def test_equivalence_bounds_l_by_e_initially(self):
        """At t=0 the two functionals agree within the cross-term margin:
        E/2 - 2 kc^2 tau^2 <= L <= 3 E/2 + 2 kc^2 tau^2 style bounds reduce
        to L in [E/2, 3E/2] for kc <= 1/4 (coarse but universal)."""
        g = Grid(2, 16)
        for trial in range(20):
            st = random_state(g, seed=300 + trial, scale=1.5)
            rec, _ = collect_one(st, ModelParams(eta=1.0, beta=0.5))
            assert 0.25 * rec.E <= rec.L <= 1.75 * rec.E


class TestLyapunovDecay:
    """Where beta >= 1/2 enters the decay of L, mode by mode: on the span
    of the 2D transverse mode u = (0, cos K x0) and tau_01 = sin K x0,
    under the linear waves (eta = 1, kc = 0.1, b = 0.5), the largest
    ratio (dL/dt) / D, with D = eta diss_tau + (kc/2) diss_u the integrand
    of E, is the largest generalized eigenvalue of their 2x2 forms."""

    KC = DiagnosticParams().k_cross

    @staticmethod
    def basis(n, k):
        """The u-mode and the tau-mode, each a state of its own."""
        g = Grid(2, n)
        x0 = g.coordinates()[0]
        u, tau = np.zeros((2,) + g.shape), np.zeros((3,) + g.shape)
        u[1] = np.cos(k * x0)
        only_u = FlowState(VectorField.from_physical(g, u),
                           TensorField.zeros(g))
        tau[1] = np.sin(k * x0)
        only_tau = FlowState(VectorField.zeros(g),
                             TensorField.from_physical(g, tau))
        return only_u, only_tau

    def lyapunov_form(self, x, y, beta, s):
        """L as a symmetric bilinear form of the pairs (u, tau) x and y:
        L(x, x) is the record's L."""
        (u1, t1), (u2, t2) = x, y
        return (sobolev_inner_product(u1, u2, s)
                + sobolev_inner_product(t1, t2, s)
                + self.KC * (
                    sobolev_inner_product(u1, divergence(t2), s - beta)
                    + sobolev_inner_product(u2, divergence(t1), s - beta)))

    def dissipation_form(self, x, y, beta, s):
        """D as a symmetric bilinear form: D(x, x) is the record's
        eta diss_tau + (kc/2) diss_u at eta = 1."""
        (u1, t1), (u2, t2) = x, y
        return (sobolev_inner_product(fractional_laplacian(t1, beta), t2, s)
                + 0.5 * self.KC * sobolev_inner_product(
                    fractional_laplacian(u1, 1.0), u2, s - beta))

    def worst_rates(self, n, beta):
        """Per K = 1 .. n/3, the largest (dL/dt) / D over the span, dL/dt
        from the model's own rhs: x^T A x = 2 L(x, rhs(x))."""
        params = ModelParams(eta=1.0, beta=beta, b=0.5,
                             toggles=TermToggles.linear_waves())
        s, out = obflow.model.default_sobolev_index(2), []
        for k in range(1, n // 3 + 1):
            states = self.basis(n, k)
            pairs = [(st.u, st.tau) for st in states]
            moved = [rhs(st, params) for st in states]
            a = np.array([[self.lyapunov_form(x, y, beta, s) for y in moved]
                          for x in pairs])
            a += a.T
            b = np.array([[self.dissipation_form(x, y, beta, s)
                           for y in pairs] for x in pairs])
            assert b[0, 1] == b[1, 0] == 0.0  # D splits u from tau
            scale = 1.0 / np.sqrt(np.diag(b))
            out.append(float(np.linalg.eigvalsh(
                a * np.outer(scale, scale)).max()))
        return out

    def test_forms_are_the_records(self):
        """On one state of the span, the forms give the record's L and E
        integrand."""
        beta, s = 0.5, obflow.model.default_sobolev_index(2)
        only_u, only_tau = self.basis(32, 5)
        x = (only_u.u, only_tau.tau.with_comps(0.3 * only_tau.tau.comps))
        rec, _ = collect_one(FlowState(*x), ModelParams(beta=beta, b=0.5))
        assert self.lyapunov_form(x, x, beta, s) == pytest.approx(
            rec.L, rel=1e-12)
        assert self.dissipation_form(x, x, beta, s) == pytest.approx(
            rec.diss_tau + 0.5 * self.KC * rec.diss_u, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 1.0])
    def test_decays_uniformly_in_k_from_beta_one_half(self, beta):
        """The ratio of 2 kc ||div tau||^2_{s-beta} to 2 eta ||L^beta
        tau||^2_s carries K^(2 - 4 beta).  For beta in {1/2, 3/4, 1} the
        largest rate stays at or below -1.5 for every K <= 42 (n = 128;
        -1.70 to -1.63 at beta = 1/2); at beta = 1/4 it turns positive at
        a mode that n = 64 keeps (from K = 20; +0.145 at K = 21)."""
        if beta < 0.5:
            assert max(self.worst_rates(64, beta)) > 0.0
        else:
            assert max(self.worst_rates(128, beta)) <= -1.5


class TestPureDecayRun:
    def drift(self, dt):
        g = Grid(2, 16)
        params = ModelParams(eta=0.5, beta=0.75,
                             toggles=TermToggles.dissipation_only())
        st = make_initial_data(g, recipe="random-band", epsilon=1.0, seed=6)
        st = FlowState(VectorField.zeros(g), st.tau)
        coll = DiagnosticsCollector(params, DiagnosticParams(), g)
        integrate(st, params, StepperConfig(dt=dt, t_end=1.0),
                  [(1, lambda s, i: coll.observe(s, i))])
        energies = [r.E for r in coll.records]
        e0 = energies[0]
        return max(abs(e - e0) for e in energies) / e0, coll.records

    def test_energy_functional_is_conserved(self):
        """With only stress dissipation active and u = 0 the decay of
        ||tau||^2 exactly balances the accumulated dissipation integral,
        so the only E drift is the trapezoid quadrature error, which is
        O(dt^2) in the record spacing."""
        coarse, records = self.drift(0.01)
        fine, _ = self.drift(0.005)
        assert coarse < 1e-3
        assert 3.5 <= coarse / fine <= 4.5
        report = bootstrap_monitor(records)
        assert report.bounded_energy
        assert report.bounded_norms
        assert report.c_star < 1e-2

    def test_monotone_norm_decay(self):
        g = Grid(2, 16)
        params = ModelParams(eta=0.5, beta=0.75,
                             toggles=TermToggles.dissipation_only())
        st = make_initial_data(g, recipe="random-band", epsilon=1.0, seed=6)
        coll = DiagnosticsCollector(params, DiagnosticParams(), g)
        integrate(st, params, StepperConfig(dt=0.01, t_end=1.0),
                  [(10, lambda s, i: coll.observe(s, i))])
        taus = [r.tau_hs for r in coll.records]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(taus, taus[1:]))


class TestIdentityResidualStream:
    def run_records(self, cadence, dt=1e-3, t_end=0.5):
        g = Grid(2, 32)
        params = ModelParams(eta=1.0, beta=0.5, b=0.5)
        st = make_initial_data(g, recipe="random-band", epsilon=0.5, seed=9)
        coll = DiagnosticsCollector(params, DiagnosticParams(), g)
        integrate(st, params, StepperConfig(dt=dt, t_end=t_end),
                  [(cadence, lambda s, i: coll.observe(s, i))])
        return coll.records, params

    def test_residual_is_second_order_in_record_spacing(self):
        """The centered-difference d/dt || . ||^2 dominates the residual;
        halving the record spacing shrinks it about 4x."""
        rec_c, params = self.run_records(50)
        rec_f, _ = self.run_records(25)
        r_coarse = max_relative_identity_residual(rec_c, params)
        r_fine = max_relative_identity_residual(rec_f, params)
        assert r_coarse > 1e-6
        assert 3.5 <= r_coarse / r_fine <= 4.5

    def test_requires_three_uniform_records(self):
        records, params = self.run_records(100, t_end=0.1)
        assert len(records) < 3
        with pytest.raises(ValueError):
            energy_identity_residual(records, params)

    def test_rejects_nonuniform_spacing(self):
        rec, params = self.run_records(100, t_end=0.45)
        # cadence 100 at dt=1e-3 over 0.45 fires at t=0, 0.1, ..., 0.4, 0.45
        with pytest.raises(ValueError):
            energy_identity_residual(rec, params)


class TestStressEigenvalueFloor:
    def test_matches_dense_solver(self):
        """Closed-form per-point eigenvalues agree with eigvalsh."""
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            st = random_state(g, seed=40 + d, scale=0.8)
            got = stress_min_eigenvalue(st)
            tri = st.tau.to_physical()
            full = np.zeros((d, d) + g.shape)
            for idx, (i, j) in enumerate(st.tau.pairs):
                full[i, j] = tri[idx]
                full[j, i] = tri[idx]
            mats = np.moveaxis(full.reshape(d, d, -1), -1, 0)
            mats = mats + np.eye(d)
            expected = np.linalg.eigvalsh(mats)[:, 0].min()
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_identity_floor_for_zero_stress(self):
        g = Grid(3, 8)
        st = FlowState(VectorField.zeros(g), TensorField.zeros(g))
        assert stress_min_eigenvalue(st) == pytest.approx(1.0, rel=1e-14)


class TestBootstrapMonitor:
    def test_growth_clamp_and_margin(self):
        g = Grid(2, 16)
        st = random_state(g, seed=60, scale=0.1)
        _, coll = collect_one(st, ModelParams(eta=1.0))
        report = bootstrap_monitor(coll.records)
        assert report.c_star == 0.0     # single record, no growth
        assert report.bounded_energy
        assert report.sup_e == report.e0


class TestTrajectoryDistance:
    def make_series(self, grid, seed, times=(0.0, 0.5, 1.0)):
        rng = np.random.default_rng(seed)
        ncomp = grid.d + len(TensorField.zeros(grid).pairs)
        return [(t, rng.standard_normal((ncomp,) + grid.shape))
                for t in times]

    def test_identical_series_distance_zero(self):
        g = Grid(2, 16)
        a = self.make_series(g, 1)
        times, dists, sup = trajectory_distance(a, [(t, c.copy())
                                                    for t, c in a])
        assert sup == 0.0
        assert list(times) == [0.0, 0.5, 1.0]

    def test_constant_offset_hand_value(self):
        """Adding c to one velocity component changes the L2 distance by
        c (2 pi)^(d/2); on an off-diagonal stress slot the Frobenius
        pairing doubles the square, giving c sqrt(2) (2 pi)^(d/2)."""
        g = Grid(2, 16)
        a = self.make_series(g, 2)
        c = 0.3
        b = [(t, comp.copy()) for t, comp in a]
        b[1][1][0] += c
        _, dists, sup = trajectory_distance(a, b)
        assert dists[0] == 0.0
        assert dists[1] == pytest.approx(c * TWO_PI, rel=1e-12)
        assert sup == dists[1]

        ob = [(t, comp.copy()) for t, comp in a]
        ob[2][1][g.d + 1] += c   # pair (0,1) sits right after the diagonal
        _, dists2, _ = trajectory_distance(a, ob)
        assert dists2[2] == pytest.approx(c * math.sqrt(2.0) * TWO_PI,
                                          rel=1e-12)

    def test_overflow_is_inf_without_a_warning(self):
        """A member that blew up leaves samples whose squares overflow: its
        distance is inf, and no RuntimeWarning is raised."""
        g = Grid(2, 16)
        a = self.make_series(g, 4)
        b = [(t, 1e300 * comp) for t, comp in a]
        _, dists, sup = trajectory_distance(a, b)
        assert np.all(np.isinf(dists)) and sup == math.inf

    def test_time_mismatch_rejected(self):
        g = Grid(2, 16)
        a = self.make_series(g, 3)
        b = self.make_series(g, 3, times=(0.0, 0.5001, 1.0))
        with pytest.raises(ValueError):
            trajectory_distance(a, b)


class TestDiagnosticParams:
    def test_k_cross_domain(self):
        with pytest.raises(ValueError):
            DiagnosticParams(k_cross=0.25)
        with pytest.raises(ValueError):
            DiagnosticParams(k_cross=0.0)
        with pytest.raises(ValueError):
            DiagnosticParams(k_cross=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("s", math.nan), ("s", math.inf), ("s", -math.inf),
        ("k_cross", math.nan), ("k_cross", math.inf)])
    def test_non_finite_values_are_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            DiagnosticParams(**{name: value})

    def test_default_s_tracks_dimension(self):
        assert DiagnosticParams().resolve_s(Grid(2, 16)) == pytest.approx(2.01)
        assert DiagnosticParams().resolve_s(Grid(3, 8)) == pytest.approx(2.51)
        assert DiagnosticParams(s=3.0).resolve_s(Grid(2, 16)) == 3.0

    def test_low_regularity_warning(self):
        msgs = DiagnosticParams(s=1.9).warnings(Grid(2, 16))
        assert any("s" in m for m in msgs)
        assert DiagnosticParams(s=2.5).warnings(Grid(2, 16)) == []
