"""Time integration: exactness, convergence orders, scheduling, blow-up."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

import obflow.experiments
import obflow.model
import obflow.spectral
import obflow.stepping
from obflow.diagnostics import DiagnosticParams, DiagnosticsCollector
from obflow.config import validate_config
from obflow.linear import linear_mode_solution
from obflow.model import (
    FlowState,
    ModelParams,
    Tendency,
    TermToggles,
    _state_table,
    dissipation_rates,
    energy_budget,
    explicit_rhs,
    make_initial_data,
    tendency,
)
from obflow.spectral import (
    COUNTS,
    Grid,
    SpectralField,
    TensorField,
    VectorField,
    divergence,
    leray_project,
)
from obflow.stepping import (
    BlowUpError,
    StepperConfig,
    _first_non_finite,
    cfl_dt,
    integrate,
    step,
)


def mode_pair(state, mode):
    """(uhat, shat) of one mode, with shat the projected stress divergence."""
    idx, conjugated = state.grid.mode_index(mode)
    shat = leray_project(divergence(state.tau))
    pair = (state.u.comps[(slice(None),) + idx].copy(),
            shat.comps[(slice(None),) + idx].copy())
    return tuple(v.conj() for v in pair) if conjugated else pair


def linear_deviation(dt, k=4, eta=0.2, beta=0.5, eps=0.5, t_end=1.0, n=16):
    """Max deviation from the exact mode solution after integrating."""
    g = Grid(2, n)
    params = ModelParams(eta=eta, beta=beta,
                         toggles=TermToggles.linear_waves())
    st = make_initial_data(g, recipe="single-mode", epsilon=eps, mode=(0, k))
    u0, s0 = mode_pair(st, (0, k))
    res = integrate(st, params, StepperConfig(dt=dt, t_end=t_end))
    u_num, s_num = mode_pair(res.state, (0, k))
    u_ref, s_ref = linear_mode_solution(u0, s0, float(k), eta, beta, t_end)
    return max(np.max(np.abs(u_num - u_ref)), np.max(np.abs(s_num - s_ref)))


class TestExactness:
    def test_pure_dissipation_is_exact_at_any_dt(self):
        """With no explicit terms the integrating factor is the whole
        solution, so one 0.7-sized step matches exp(-rate t) to roundoff."""
        g = Grid(2, 16)
        off = TermToggles(advection_u=False, advection_tau=False,
                          q_term=False, stress_divergence=False,
                          strain_source=False)
        params = ModelParams(eta=1.7, beta=0.5, nu=0.3, alpha=1.0, a=0.2,
                             toggles=off)
        st = make_initial_data(g, recipe="random-band", epsilon=1.0, seed=8)
        dt = 0.7
        out = step(st, params, dt)
        ksq = g.support_table(False).k_squared.astype(float)
        decay_u = np.exp(-0.3 * ksq ** 1.0 * dt)
        decay_tau = np.exp(-(1.7 * ksq ** 0.5 + 0.2) * dt)
        np.testing.assert_allclose(out.u.comps, st.u.comps * decay_u,
                                   rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(out.tau.comps, st.tau.comps * decay_tau,
                                   rtol=1e-13, atol=1e-16)

    def test_zero_state_stays_zero(self):
        g = Grid(2, 16)
        params = ModelParams(eta=1.0, nu=0.1, b=0.5)
        st = make_initial_data(g, recipe="random-band", epsilon=0.0)
        out = step(st, params, 0.01)
        assert np.max(np.abs(out.u.comps)) == 0.0
        assert np.max(np.abs(out.tau.comps)) == 0.0


class TestConvergenceOrders:
    def test_rk4_ratio_against_exact_mode(self):
        """Halving dt divides the deviation from the exact damped-wave
        solution by ~2^4; parameters are chosen so the error sits well
        above roundoff (~3e-8 at dt=0.05)."""
        coarse = linear_deviation(0.05)
        fine = linear_deviation(0.025)
        assert coarse > 1e-9
        ratio = coarse / fine
        assert 13.0 <= ratio <= 19.0

    def test_nonlinear_self_convergence(self):
        """Full physics, no oracle: with errors E, E/16, E/256 at dt,
        dt/2, dt/4, the distance ratio |y1-y4| / |y2-y4| tends to
        255/15 = 17."""
        g = Grid(2, 32)
        params = ModelParams(eta=0.5, beta=0.75, b=0.5)
        st0 = make_initial_data(g, recipe="random-band", epsilon=0.5, seed=11)

        def final(dt):
            return integrate(st0.copy(), params,
                             StepperConfig(dt=dt, t_end=0.5)).state

        def dist(a, b):
            return math.sqrt(
                float(np.sum(np.abs(a.u.comps - b.u.comps) ** 2))
                + float(np.sum(np.abs(a.tau.comps - b.tau.comps) ** 2)))

        y1, y2, y4 = final(0.02), final(0.01), final(0.005)
        e1, e2 = dist(y1, y4), dist(y2, y4)
        assert e1 > 1e-12
        assert 13.0 <= e1 / e2 <= 22.0


class TestCfl:
    def test_zero_velocity_uses_wave_and_cap(self):
        g = Grid(2, 16)
        st = make_initial_data(g, recipe="random-band", epsilon=0.0)
        cfg = StepperConfig(dt="auto", cfl_wave=0.4, dt_cap=1.0)
        expected = 0.4 * math.sqrt(2.0) / 8.0
        assert cfl_dt(st, cfg) == pytest.approx(expected, rel=1e-13)
        cfg_capped = StepperConfig(dt="auto", cfl_wave=0.4, dt_cap=1e-3)
        assert cfl_dt(st, cfg_capped) == 1e-3

    def test_fast_flow_limits_step(self):
        g = Grid(2, 16)
        x = g.coordinates()
        u = VectorField(g, np.stack([
            SpectralField.from_physical(g, 10.0 * np.cos(x[1])).comps,
            SpectralField.from_physical(g, np.zeros(g.shape)).comps]))
        st = FlowState(u, TensorField.zeros(g))
        cfg = StepperConfig(dt="auto", cfl_advective=0.5, cfl_wave=100.0,
                            dt_cap=1.0)
        expected = 0.5 * g.dx / 10.0
        assert cfl_dt(st, cfg) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d, n, band, toggles", [
        pytest.param(2, 16, (1, 4), TermToggles(), id="box-2d"),
        pytest.param(3, 12, (1, 3), TermToggles(), id="box-3d"),
        pytest.param(2, 16, (1, 8), TermToggles(), id="whole-2d"),
        pytest.param(2, 16, (1, 4), TermToggles.linear_waves(), id="linear")])
    def test_integrate_chooses_cfl_dt(self, monkeypatch, d, n, band,
                                      toggles):
        """integrate takes max |u| from the first kernel evaluation of each
        step, which gives the dt of cfl_dt bit for bit; with no term that
        inverts u (linear toggles) it calls cfl_dt instead."""
        params = ModelParams(eta=1.0, beta=0.5, b=0.5, toggles=toggles)
        st = make_initial_data(Grid(d, n), epsilon=2.0, seed=4, band=band)
        assert _state_table(st).boxed == (band[1] < st.grid.dealias_cutoff)
        cfg = StepperConfig(dt="auto", cfl_advective=2e-3, cfl_wave=100.0,
                            dt_cap=1.0, t_end=0.3)
        steps, cfl_calls = [], []

        def take(state, params, dt, first=None):
            steps.append((state, dt))
            return step(state, params, dt, first)

        def counting_cfl(state, config):
            cfl_calls.append(state)
            return cfl_dt(state, config)

        monkeypatch.setattr(obflow.stepping, "step", take)
        monkeypatch.setattr(obflow.stepping, "cfl_dt", counting_cfl)
        integrate(st, params, cfg)
        # the advective bound sets every dt but the last, which lands on
        # t_end, so u_max matters
        assert len(steps) >= 3
        for state, dt in steps[:-1]:
            assert dt == cfl_dt(state, cfg) < cfg.dt_cap
        state, dt = steps[-1]
        assert dt == min(cfl_dt(state, cfg), cfg.t_end - state.t)
        assert len(cfl_calls) == (0 if toggles.advection_u else len(steps))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_auto_step_inverts_only_in_its_kernel(self, d, n):
        """An auto-dt step with no record makes four kernel evaluations,
        and no inverse but their two stacks: neither to_physical nor
        cfl_dt runs."""
        st = make_initial_data(Grid(d, n), epsilon=0.5, seed=6, band=(1, 2))
        before = COUNTS.copy()
        res = integrate(st, ModelParams(eta=1.0, beta=0.5, b=0.5),
                        StepperConfig(dt="auto", t_end=0.03))
        counts = {key: v - before[key] for key, v in COUNTS.items()}
        assert res.steps >= 2
        assert counts["evaluations"] == 4 * res.steps
        assert counts["inverse_calls"] == 8 * res.steps


def rk4_four_tendencies(state, params, dt):
    """The IF-RK4 step with all four stage tendencies kept to the end: the
    reference for the running sums of step."""
    grid = state.grid
    rate_u, rate_tau = dissipation_rates(grid, params)
    eu_h, et_h = np.exp(-0.5 * dt * rate_u), np.exp(-0.5 * dt * rate_tau)
    eu_f, et_f = np.exp(-dt * rate_u), np.exp(-dt * rate_tau)
    u0, tau0, t0 = state.u.comps, state.tau.comps, state.t

    def project(u):
        return leray_project(VectorField(grid, u)).comps

    def stage(u, tau, t):
        du, dtau = explicit_rhs(FlowState(VectorField(grid, u),
                                          TensorField(grid, tau), t), params)
        return dt * du.comps, dt * dtau.comps

    ku1, kt1 = stage(u0, tau0, t0)
    ku2, kt2 = stage(project(eu_h * (u0 + 0.5 * ku1)),
                        et_h * (tau0 + 0.5 * kt1), t0 + 0.5 * dt)
    ku3, kt3 = stage(project(eu_h * u0 + 0.5 * ku2),
                        et_h * tau0 + 0.5 * kt2, t0 + 0.5 * dt)
    ku4, kt4 = stage(project(eu_f * u0 + eu_h * ku3),
                        et_f * tau0 + et_h * kt3, t0 + dt)
    u1 = eu_f * u0 + (eu_f * ku1 + 2.0 * eu_h * (ku2 + ku3) + ku4) / 6.0
    tau1 = et_f * tau0 + (et_f * kt1 + 2.0 * et_h * (kt2 + kt3) + kt4) / 6.0
    return project(u1), tau1


class TestStageSums:
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_step_equals_the_four_tendency_formula(self, d, n):
        params = ModelParams(eta=0.8, beta=0.6, nu=0.05, alpha=0.7, a=0.3,
                             b=0.4)
        st = make_initial_data(Grid(d, n), recipe="random-band", epsilon=0.5,
                               seed=12)
        u1, tau1 = rk4_four_tendencies(st, params, 0.01)
        out = step(st, params, 0.01)
        np.testing.assert_array_equal(out.u.comps, u1)
        np.testing.assert_array_equal(out.tau.comps, tau1)


class TestWorkingSet:
    """What one step and one run keep alive."""

    # Peak of one step above its entry, in complex components of the half
    # layout, at b = 0.5 with every term on, bounded at most 5% above its
    # measure.  A step on the box table measures 16.5 (2D n=32, where the
    # kernel inverts each stack whole in its table's workspace) and 42.1
    # (3D n=16, where it inverts one group per call into new arrays), one
    # on the whole table, from a band past kc, 33.3 (2D n=32).  With groups
    # packed into a byte budget, 3D n=16 measured 56.3; before the kernel's
    # batched stacks, 27.0, 42.4 and 35.6.  A step on the half layout
    # throughout measured 35.8 and 61.5, and before that, with stage
    # tendencies kept past their last use and the grad u stack built whole,
    # 57.5 and 101.
    @pytest.mark.parametrize("d, n, bound, band", [
        pytest.param(2, 32, 17.3, (1, 4), id="2-32-17.3"),
        pytest.param(3, 16, 44.2, (1, 4), id="3-16-44.2"),
        pytest.param(2, 32, 35.0, (1, 12), id="whole-2-32-35.0")])
    def test_step_peak_in_components(self, d, n, bound, band):
        grid = Grid(d, n)
        params = ModelParams(eta=1.0, beta=0.5, b=0.5)
        st = make_initial_data(grid, epsilon=1.0, seed=5, band=band)
        assert _state_table(st).boxed == (band[1] < grid.dealias_cutoff)
        st = step(st, params, 1e-3)  # fills the grid's cached multipliers
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            step(st, params, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        component = 16 * math.prod(grid.spectral_shape)
        assert (peak - entry) / component <= bound

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_integrate_step_peak_is_the_steps(self, d, n):
        """One step under integrate peaks within half a component of step
        alone: integrate keeps no reference to the step's first Tendency,
        so its du and dtau go once stage 1 is summed."""
        grid = Grid(d, n)
        params = ModelParams(eta=1.0, beta=0.5, b=0.5)
        st = make_initial_data(grid, epsilon=1.0, seed=5, band=(1, 4))
        st = step(st, params, 1e-3)  # fills the grid's cached multipliers
        config = StepperConfig(dt=1e-3, t_end=1e-3)

        def peak(run):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        alone = peak(lambda: step(st, params, 1e-3))
        under = peak(lambda: integrate(st, params, config))
        component = 16 * math.prod(grid.spectral_shape)
        assert (under - alone) / component <= 0.5

    def test_run_drops_the_initial_state(self, monkeypatch):
        """Neither run_single nor integrate holds the state of step 0 once
        the first step has consumed it."""
        observe = obflow.experiments.DiagnosticsCollector.observe
        initial, alive = [], []

        def watch(collector, state, i):
            if i == 0:
                initial.append(weakref.ref(state))
            else:
                alive.append(initial[0]() is not None)
            return observe(collector, state, i)

        monkeypatch.setattr(obflow.experiments.DiagnosticsCollector,
                            "observe", watch)
        cfg, _ = validate_config({"grid": {"d": 2, "n": 16},
                                  "stepper": {"dt": 0.01, "t_end": 0.02},
                                  "diagnostics": {"cadence_steps": 1}})
        obflow.experiments.run_single(cfg)
        assert alive == [False, False]


class TestBoxSupport:
    """The box table rests on this: a state that is zero outside the
    2/3 box stays so, exactly, as the linear terms act mode by mode and
    the nonlinear ones are dealiased."""

    @pytest.mark.parametrize("d, n, recipe, mode", [
        (2, 32, "random-band", None), (3, 16, "random-band", None),
        (2, 24, "taylor-green", None), (3, 16, "taylor-green", None),
        (2, 16, "single-mode", (2, 3)), (3, 16, "single-mode", (0, 1, 3)),
        (2, 48, "taylor-green", None)])
    def test_states_stay_zero_outside_the_box(self, d, n, recipe, mode):
        """Every recipe starts inside the box: taylor-green is sampled, and
        it dealiases the samples to drop their round-off outside it."""
        g = Grid(d, n)
        st = make_initial_data(g, recipe=recipe, epsilon=0.5, mode=mode,
                               band=(1, 4), seed=5)
        outside = ~g.dealias_mask
        assert not np.any(st.u.comps[..., outside])
        assert not np.any(st.tau.comps[..., outside])
        params = ModelParams(eta=1.0, beta=0.75, nu=0.05, b=0.5, a=0.1)
        for _ in range(4):
            st = step(st, params, 0.01)
            assert np.any(st.tau.comps != 0)
            assert not np.any(st.u.comps[..., outside])
            assert not np.any(st.tau.comps[..., outside])


class TestTendencyHandOff:
    """A record's Tendency reaches the next step only through integrate:
    a callback returns it, and integrate passes it to step when it was
    evaluated under the run's params."""

    PARAMS = ModelParams(eta=0.8, beta=0.5, b=0.4, nu=0.05)

    def state(self):
        return make_initial_data(Grid(2, 16), recipe="random-band",
                                 epsilon=0.5, seed=8)

    def run(self, callbacks=(), t_end=0.03):
        return integrate(self.state(), self.PARAMS,
                         StepperConfig(dt=0.01, t_end=t_end), callbacks)

    def test_step_after_budget_is_bit_identical(self):
        """energy_budget leaves the state as it was; the Tendency of a
        record's pass, given to step, gives the step bit for bit."""
        st = self.state()
        fresh = step(st, self.PARAMS, 0.01)
        energy_budget(st, self.PARAMS)
        assert set(vars(st)) == {"u", "tau", "t"}
        first = DiagnosticsCollector(self.PARAMS, DiagnosticParams(),
                                     st.grid).observe(st)
        assert isinstance(first, Tendency) and first.params == self.PARAMS
        out = step(st, self.PARAMS, 0.01, first)
        np.testing.assert_array_equal(out.u.comps, fresh.u.comps)
        np.testing.assert_array_equal(out.tau.comps, fresh.tau.comps)

    @pytest.mark.parametrize("d, n, band", [
        (2, 16, (1, 4)), (2, 16, (1, 8)), (3, 12, (1, 3)), (3, 12, (1, 6))])
    def test_step_gathers_none_of_its_input(self, monkeypatch, d, n, band):
        """step starts from the compact u and tau that its first Tendency
        carries, on either table: no SupportTable.gather call reads the
        state's arrays (the kernel's dealiased forward transforms gather
        their own products)."""
        st = make_initial_data(Grid(d, n), epsilon=0.5, seed=8, band=band)
        first = tendency(st, self.PARAMS)
        assert first.table.boxed == (band[1] < st.grid.dealias_cutoff)
        gather, read = obflow.spectral.SupportTable.gather, []

        def recording(table, half):
            read.append(half)
            return gather(table, half)

        monkeypatch.setattr(obflow.spectral.SupportTable, "gather", recording)
        step(st, self.PARAMS, 0.01, first)
        assert read
        assert sum(a is st.u.comps or a is st.tau.comps for a in read) == 0

    def test_hand_off_with_other_params_is_ignored(self):
        """A Tendency of other params, None or any other return value
        leaves integrate to evaluate the tendency itself: four kernel
        evaluations a step, and the run of no callback, bit for bit.  One
        of the run's params is taken: three a step."""
        other = ModelParams(eta=0.8, beta=0.5, b=-0.7, nu=0.05)
        ref = self.run()
        # (return value, the callback's own evaluations per call, the
        # evaluations of each step)
        for returned, own, per_step in (
                (lambda s: tendency(s, other), 1, 4), (lambda s: None, 0, 4),
                (lambda s: "a record", 0, 4),
                (lambda s: tendency(s, self.PARAMS), 1, 3)):
            before = COUNTS["evaluations"]
            res = self.run([(1, lambda s, i: returned(s))])
            assert COUNTS["evaluations"] - before == \
                per_step * res.steps + own * (res.steps + 1)
            np.testing.assert_array_equal(res.state.u.comps,
                                          ref.state.u.comps)
            np.testing.assert_array_equal(res.state.tau.comps,
                                          ref.state.tau.comps)

    def test_no_hand_off_outlives_the_run(self):
        """Nothing is left on the states, and the last record's Tendency,
        which serves no step, is dropped when integrate returns."""
        seen, last = [], []

        def record(state, i):
            energy_budget(state, self.PARAMS)
            first = tendency(state, self.PARAMS)
            seen.append(state)
            last[:] = [weakref.ref(first)]
            return first

        res = self.run([(1, record)])
        assert len(seen) == 4
        assert all(set(vars(s)) == {"u", "tau", "t"} for s in seen)
        assert res.state is seen[-1]
        assert last[0]() is None


class TestIntegrate:
    def test_zero_horizon_returns_input(self):
        g = Grid(2, 16)
        st = make_initial_data(g, recipe="random-band", epsilon=0.1, seed=2)
        calls = []
        res = integrate(st, ModelParams(eta=1.0),
                        StepperConfig(dt=0.1, t_end=0.0),
                        [(1, lambda s, i: calls.append(i))])
        assert res.steps == 0
        assert calls == [0]
        assert res.state is st

    def test_partial_final_step_lands_on_target(self):
        g = Grid(2, 16)
        st = make_initial_data(g, recipe="random-band", epsilon=0.1, seed=2)
        res = integrate(st, ModelParams(eta=1.0),
                        StepperConfig(dt=0.1, t_end=0.25))
        assert res.steps == 3
        assert res.state.t == 0.25

    def test_exact_multiple_has_no_extra_step(self):
        g = Grid(2, 16)
        st = make_initial_data(g, recipe="random-band", epsilon=0.1, seed=2)
        res = integrate(st, ModelParams(eta=1.0),
                        StepperConfig(dt=0.05, t_end=0.2))
        assert res.steps == 4
        assert res.state.t == 0.2

    def test_callback_cadence_and_final_fire(self):
        g = Grid(2, 16)
        st = make_initial_data(g, recipe="random-band", epsilon=0.1, seed=2)
        calls = []
        integrate(st, ModelParams(eta=1.0),
                  StepperConfig(dt=0.1, t_end=0.5),
                  [(2, lambda s, i: calls.append(i))])
        assert calls == [0, 2, 4, 5]

    def test_auto_dt_reaches_target(self):
        g = Grid(2, 16)
        st = make_initial_data(g, recipe="random-band", epsilon=0.1, seed=2)
        res = integrate(st, ModelParams(eta=1.0),
                        StepperConfig(dt="auto", t_end=0.3))
        assert res.state.t == pytest.approx(0.3, abs=1e-12)

    def test_repeat_runs_bit_identical(self):
        g = Grid(2, 16)
        params = ModelParams(eta=0.8, beta=0.5, b=0.3, nu=0.01)
        cfg = StepperConfig(dt=0.01, t_end=0.3)

        def run():
            st = make_initial_data(g, recipe="random-band", epsilon=0.5,
                                   seed=5)
            return integrate(st, params, cfg).state

        a, b = run(), run()
        np.testing.assert_array_equal(a.u.comps, b.u.comps)
        np.testing.assert_array_equal(a.tau.comps, b.tau.comps)

    def test_blow_up_carries_last_finite_state(self):
        g = Grid(2, 32)
        params = ModelParams(eta=0.5, beta=0.75, b=0.5)
        st = make_initial_data(g, recipe="random-band", epsilon=20.0, seed=3)
        with pytest.raises(BlowUpError) as info:
            integrate(st, params, StepperConfig(dt=0.5, t_end=50.0))
        exc = info.value
        assert np.all(np.isfinite(exc.state.u.comps))
        assert np.all(np.isfinite(exc.state.tau.comps))
        assert exc.step > 0
        # the failed step, rerun, is finite in every component before the
        # named one (u first, then tau in triangle order) and not in it
        with np.errstate(over="ignore", invalid="ignore"):
            bad = step(exc.state, params, 0.5)
        names = ["u[0]", "u[1]", "tau[0,0]", "tau[0,1]", "tau[1,1]"]
        finite = [bool(np.all(np.isfinite(c)))
                  for c in (*bad.u.comps, *bad.tau.comps)]
        assert exc.field == names[finite.index(False)]
        assert f"lost finiteness in {exc.field} after step {exc.step}" \
            in str(exc)

    @pytest.mark.parametrize("slots, field", [
        ((("tau", 4),), "tau[1,2]"), ((("tau", 5), ("u", 2)), "u[2]"),
        ((("tau", 0), ("tau", 3)), "tau[0,0]")])
    def test_blow_up_names_first_non_finite_component(self, slots, field):
        g = Grid(3, 8)
        st = make_initial_data(g, epsilon=0.1, seed=1)
        for name, m in slots:
            getattr(st, name).comps[m][1, 2, 3] = np.nan
        assert _first_non_finite(st) == field

    def test_scheme_validation(self):
        """IF-RK4 is the only scheme: there is no scheme to select."""
        with pytest.raises(TypeError):
            StepperConfig(scheme="if-rk4")
        with pytest.raises(ValueError):
            StepperConfig(dt=-0.1)
        with pytest.raises(ValueError):
            StepperConfig(t_end=-1.0)

    @pytest.mark.parametrize("name, value", [
        ("dt", math.inf), ("dt", math.nan), ("t_end", math.nan),
        ("t_end", math.inf), ("dt_cap", math.nan), ("dt_cap", math.inf),
        ("cfl_wave", math.nan), ("cfl_advective", math.inf)])
    def test_non_finite_numbers_are_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            StepperConfig(**{name: value})
