"""End-to-end acceptance checks.

Each test exercises one headline guarantee on production-sized settings and
registers one [ACCEPT] line (printed in the terminal summary) with the
measured numbers.  Tolerances are pinned here and nowhere else; a failure
means the package does not meet its contract, not that a knob needs
turning.
"""

import json
import math
import time

import numpy as np
import pytest

from obflow.config import validate_config
from obflow.diagnostics import (
    DiagnosticParams,
    DiagnosticsCollector,
    max_relative_identity_residual,
)
from obflow.experiments import (
    linear_verify,
    run_members,
    run_single,
    sweep_viscosity,
)
from obflow.linear import linear_mode_solution
from obflow.model import (
    FlowState,
    ModelParams,
    TermToggles,
    energy_budget,
    make_initial_data,
)
from obflow.spectral import (
    Grid,
    SpectralField,
    TensorField,
    VectorField,
    dealias,
    divergence,
    gradient,
    l2_norm,
    leray_project,
)
from obflow.stepping import StepperConfig, integrate


@pytest.fixture
def accept(request):
    def record(criterion, passed, detail):
        verdict = "PASS" if passed else "FAIL"
        line = f"[ACCEPT] criterion {criterion}: {verdict} - {detail}"
        request.config._acceptance_lines.append(line)
        print(line)
        assert passed, line
    return record


def random_state(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    u = leray_project(dealias(VectorField(grid, np.stack([
        SpectralField.from_physical(
            grid, scale * rng.standard_normal(grid.shape)).comps
        for _ in range(grid.d)]))))
    tau = TensorField.zeros(grid)
    for i in range(tau.comps.shape[0]):
        tau.comps[i] = SpectralField.from_physical(
            grid, scale * rng.standard_normal(grid.shape)).comps
    return FlowState(u, dealias(tau))


class TestAcceptance:
    def test_criterion_1_spectral_operators(self, accept):
        """Derivatives, projection, and Parseval at 1e-12 relative accuracy
        on every supported grid size and dimension."""
        worst = 0.0
        for d in (2, 3):
            for n in (16, 32, 64):
                g = Grid(d, n)
                x = g.coordinates()
                f_phys = np.sin(3.0 * x[0]) + 2.0 * np.cos(x[1])
                f = SpectralField.from_physical(g, f_phys)

                # round trip
                err = np.max(np.abs(f.to_physical() - f_phys))
                worst = max(worst, err / max(np.max(np.abs(f_phys)), 1.0))

                # gradient of an analytic profile
                prof = np.sin(3.0 * x[0]) * np.cos(2.0 * x[1])
                gf = gradient(SpectralField.from_physical(g, prof))
                d0 = 3.0 * np.cos(3.0 * x[0]) * np.cos(2.0 * x[1])
                d1 = -2.0 * np.sin(3.0 * x[0]) * np.sin(2.0 * x[1])
                scale = 3.0
                worst = max(worst, np.max(np.abs(
                    gf.component(0).to_physical() - d0)) / scale)
                worst = max(worst, np.max(np.abs(
                    gf.component(1).to_physical() - d1)) / scale)

                # Parseval against the physical quadrature
                rng = np.random.default_rng(n + d)
                vals = rng.standard_normal(g.shape)
                h = SpectralField.from_physical(g, vals)
                quad = math.sqrt(g.cell_volume * float(np.sum(vals * vals)))
                worst = max(worst, abs(l2_norm(h) - quad) / quad)

                # Leray projection annihilates divergence on the dealiased band
                st = random_state(g, seed=n * d)
                rel = l2_norm(divergence(st.u)) / max(l2_norm(st.u), 1.0)
                worst = max(worst, rel)
        accept(1, worst < 1e-12,
               f"max relative operator error {worst:.3e} < 1e-12 over "
               f"d in {{2,3}}, n in {{16,32,64}}")

    def test_criterion_2_linear_oracle(self, accept):
        """Toggles-off single-mode run tracks the closed-form damped wave to
        1e-10 over T=2, and halving dt cuts the deviation ~16x."""
        raw = {
            "grid": {"d": 2, "n": 16},
            "model": {"eta": 2.0, "beta": 1.0,
                      "toggles": {"advection_u": False,
                                  "advection_tau": False, "q_term": False}},
            "stepper": {"dt": 1e-3, "t_end": 2.0},
            "diagnostics": {"cadence_steps": 200},
            "initial_data": {"recipe": "single-mode", "epsilon": 1e-2,
                             "mode": [0, 1]},
        }
        cfg, _ = validate_config(raw)
        report = linear_verify(cfg)
        dev_ok = report.max_deviation < 1e-10

        # convergence ratio on a stiffer mode where the error is measurable
        def deviation(dt):
            g = Grid(2, 16)
            params = ModelParams(eta=0.2, beta=0.5,
                                 toggles=TermToggles.linear_waves())
            st = make_initial_data(g, recipe="single-mode", epsilon=0.5,
                                   mode=(0, 4))
            idx, _ = g.mode_index((0, 4))
            u0 = st.u.comps[(slice(None),) + idx].copy()
            s0 = leray_project(divergence(st.tau)).comps[
                (slice(None),) + idx].copy()
            res = integrate(st, params, StepperConfig(dt=dt, t_end=1.0))
            u1 = res.state.u.comps[(slice(None),) + idx]
            s1 = leray_project(divergence(res.state.tau)).comps[
                (slice(None),) + idx]
            ur, sr = linear_mode_solution(u0, s0, 4.0, 0.2, 0.5, 1.0)
            return max(np.max(np.abs(u1 - ur)), np.max(np.abs(s1 - sr)))

        coarse, fine = deviation(0.05), deviation(0.025)
        ratio = coarse / fine
        ratio_ok = 13.0 <= ratio <= 19.0 and coarse > 1e-9
        accept(2, dev_ok and ratio_ok,
               f"oracle deviation {report.max_deviation:.3e} < 1e-10; "
               f"dt-halving ratio {ratio:.2f} in [13, 19]")

    def test_criterion_3_energy_identity(self, accept):
        """Instantaneous balance at 1e-9 on random states; integrated
        record-stream residual is quadratic in the record spacing."""
        worst = 0.0
        cases = [(2, 16, 0), (2, 32, 1), (3, 8, 2), (2, 16, 3), (3, 8, 4)]
        for d, n, seed in cases:
            st = random_state(Grid(d, n), seed=100 + seed, scale=0.1)
            params = ModelParams(eta=1.0 + 0.3 * seed, beta=0.5 + 0.1 * seed,
                                 nu=0.05 * seed, alpha=1.0, b=0.4 - 0.2 * seed,
                                 a=0.1 * seed)
            worst = max(worst, energy_budget(st, params)["residual_rel"])
        inst_ok = worst < 1e-9

        def stream_residual(cadence):
            g = Grid(2, 64)
            params = ModelParams(eta=1.0, beta=0.5, b=0.5)
            st = make_initial_data(g, recipe="random-band", epsilon=0.5,
                                   seed=9)
            coll = DiagnosticsCollector(params, DiagnosticParams(), g)
            integrate(st, params, StepperConfig(dt=1e-3, t_end=0.4),
                      [(cadence, lambda s, i: coll.observe(s, i))])
            return max_relative_identity_residual(coll.records, params)

        r_coarse, r_fine = stream_residual(40), stream_residual(20)
        ratio = r_coarse / r_fine
        stream_ok = 3.0 <= ratio <= 5.0
        accept(3, inst_ok and stream_ok,
               f"instantaneous residual {worst:.3e} < 1e-9; cadence-halving "
               f"ratio {ratio:.2f} in [3, 5] (n=64)")

    def test_criterion_4_lyapunov_equivalence(self, accept):
        """The cross term never defeats the norm equivalence of L and E:
        zero violations over 1000 random states and along a trajectory."""
        diag = DiagnosticParams(k_cross=0.1)
        violations = 0
        for beta in (0.5, 0.75, 1.0):
            params = ModelParams(eta=1.0, beta=beta)
            coll = DiagnosticsCollector(params, diag, Grid(2, 16))
            for trial in range(334):
                st = random_state(Grid(2, 16), seed=2000 + trial, scale=3.0)
                coll.observe(st, trial)
            violations += coll.lyapunov_violations
        trials = 3 * 334

        g = Grid(2, 32)
        params = ModelParams(eta=1.0, beta=0.5, b=0.8)
        st = make_initial_data(g, recipe="random-band", epsilon=0.5, seed=4)
        coll = DiagnosticsCollector(params, diag, g)
        integrate(st, params, StepperConfig(dt=2e-3, t_end=2.0),
                  [(10, lambda s, i: coll.observe(s, i))])
        violations += coll.lyapunov_violations
        accept(4, violations == 0,
               f"0 violations required, saw {violations} over {trials} random "
               f"states and {len(coll.records)} trajectory records")

    def test_criterion_5_bootstrap_bounds(self, accept):
        """Long horizon small-data runs stay bounded: sup of the squared
        norms within 4x initial, finite growth constant C*, and under
        amplitude halving sup E drops ~4x while C* changes by at most a
        factor 2 (up to a 1% allowance: C* scales like 1/eps for small
        data, so the ratio sits at the factor-2 boundary with an O(eps)
        correction)."""
        keys = [(beta, eps) for beta in (0.5, 1.0) for eps in (1e-2, 5e-3)]
        members = []
        for beta, eps in keys:
            raw = {
                "grid": {"d": 2, "n": 64},
                "model": {"eta": 1.0, "beta": beta, "b": 0.5},
                "stepper": {"dt": "auto", "t_end": 50.0},
                "diagnostics": {"cadence_steps": 50},
                "initial_data": {"recipe": "random-band",
                                 "epsilon": eps, "seed": 7},
            }
            cfg, _ = validate_config(raw)
            members.append((cfg, None))
        results = {key: summary["bootstrap"] for key, summary
                   in zip(keys, run_members(members, threads=2))}

        ok = True
        details = []
        for beta in (0.5, 1.0):
            full = results[(beta, 1e-2)]
            half = results[(beta, 5e-3)]
            bounded = (full["bounded_norms"] and half["bounded_norms"])
            finite = math.isfinite(full["c_star"]) and full["c_star"] >= 0.0
            c_ratio = half["c_star"] / full["c_star"]
            e_ratio = full["sup_e"] / half["sup_e"]
            c_ok = 0.5 / 1.01 <= c_ratio <= 2.0 * 1.01
            e_ok = 3.5 <= e_ratio <= 4.5
            ok = ok and bounded and finite and c_ok and e_ok
            details.append(f"beta={beta}: norms<=4x {bounded}, "
                           f"C*={full['c_star']:.1f}, C* ratio {c_ratio:.4f}, "
                           f"supE ratio {e_ratio:.2f}")
        accept(5, ok, "; ".join(details))

    def test_criterion_6_uniform_in_viscosity(self, accept):
        """Adding fractional velocity dissipation nu in [0, 1e-2] moves the
        sup-in-time H^s norms by less than 10% of the inviscid run."""
        pairs = ((1.0, 1.0), (0.5, 0.5))
        nus = (0.0, 1e-4, 1e-3, 1e-2)
        members = []
        for alpha, beta in pairs:
            for nu in nus:
                raw = {
                    "grid": {"d": 2, "n": 64},
                    "model": {"eta": 1.0, "beta": beta, "alpha": alpha,
                              "nu": nu, "b": 0.5},
                    "stepper": {"dt": 5e-3, "t_end": 5.0},
                    "diagnostics": {"cadence_steps": 20},
                    "initial_data": {"recipe": "random-band",
                                     "epsilon": 1e-2, "seed": 7},
                }
                cfg, _ = validate_config(raw)
                members.append((cfg, None))
        # in the members' order: the four nus of one (alpha, beta), then
        # of the next
        summaries = iter(run_members(members, threads=2))
        ok = True
        details = []
        for alpha, beta in pairs:
            sups = {nu: (summary["sup_u_hs"], summary["sup_tau_hs"])
                    for nu, summary in zip(nus, summaries)}
            base_u, base_tau = sups[0.0]
            gap = max(max(abs(u - base_u) / base_u,
                          abs(t - base_tau) / base_tau)
                      for u, t in sups.values())
            ok = ok and gap < 0.10
            details.append(f"(alpha,beta)=({alpha:g},{beta:g}): "
                           f"max norm shift {100 * gap:.2f}%")
        accept(6, ok, "; ".join(details) + " (tolerance 10%)")

    def test_criterion_7_vanishing_viscosity_rate(self, accept, tmp_path):
        """The sup-in-time distance to the inviscid trajectory scales like
        nu^1: fitted log-log slope within [0.9, 1.1], in under 15 minutes."""
        t0 = time.time()
        raw = {
            "grid": {"d": 2, "n": 64},
            "model": {"eta": 1.0, "beta": 1.0, "alpha": 1.0, "b": 0.5},
            "stepper": {"dt": 5e-3, "t_end": 5.0},
            "diagnostics": {"cadence_steps": 100},
            "initial_data": {"recipe": "random-band", "epsilon": 0.1,
                             "seed": 7},
            "output": {"snapshot_cadence_steps": 200},
        }
        cfg, _ = validate_config(raw)
        result = sweep_viscosity(cfg, [1e-2, 1e-3, 1e-4],
                                 tmp_path / "sweep", threads=2)
        elapsed = time.time() - t0
        slope_ok = 0.9 <= result.slope <= 1.1
        time_ok = elapsed < 900.0
        accept(7, slope_ok and time_ok and not result.blew_up,
               f"slope {result.slope:.4f} in [0.9, 1.1], "
               f"wall time {elapsed:.0f}s < 900s")

    def test_criterion_8_determinism(self, accept, tmp_path):
        """Reruns and different worker counts produce byte-identical CSVs."""
        raw = {
            "grid": {"d": 2, "n": 64},
            "model": {"eta": 1.0, "beta": 0.5, "b": 0.5},
            "stepper": {"dt": 5e-3, "t_end": 0.5},
            "diagnostics": {"cadence_steps": 10},
            "initial_data": {"recipe": "random-band", "epsilon": 0.1,
                             "seed": 12},
            "output": {"snapshot_cadence_steps": 50},
        }
        cfg, _ = validate_config(raw)
        run_single(cfg, tmp_path / "a")
        run_single(cfg, tmp_path / "b")
        rerun_same = (
            (tmp_path / "a" / "diagnostics.csv").read_bytes()
            == (tmp_path / "b" / "diagnostics.csv").read_bytes()
            and (tmp_path / "a" / "snapshots" / "snap_00000100.obsf").read_bytes()
            == (tmp_path / "b" / "snapshots" / "snap_00000100.obsf").read_bytes())

        sweep_raw = json.loads(json.dumps(raw))
        sweep_raw["grid"]["n"] = 32
        sweep_raw["initial_data"]["epsilon"] = 0.1
        cfg_s, _ = validate_config(sweep_raw)
        sweep_viscosity(cfg_s, [1e-2, 1e-3, 1e-4], tmp_path / "s1", threads=1)
        sweep_viscosity(cfg_s, [1e-2, 1e-3, 1e-4], tmp_path / "s4", threads=4)
        names = ["sweep.csv", "nu_0/diagnostics.csv",
                 "nu_1.000e-02/diagnostics.csv",
                 "nu_1.000e-03/diagnostics.csv",
                 "nu_1.000e-04/diagnostics.csv"]
        threads_same = all(
            (tmp_path / "s1" / name).read_bytes()
            == (tmp_path / "s4" / name).read_bytes()
            for name in names)
        accept(8, rerun_same and threads_same,
               f"rerun byte-identical: {rerun_same}; threads 1 vs 4 "
               f"byte-identical: {threads_same}")
