"""Dispersion relation and exact mode propagator for the damped wave pair."""

import math

import numpy as np
import pytest
import scipy.linalg

from obflow.linear import (
    decay_envelope,
    dispersion_csv,
    dispersion_roots,
    linear_mode_solution,
)

SQRT2 = math.sqrt(2.0)


def companion(k, eta, beta):
    """The per-mode system matrix d/dt (u, s) = A (u, s)."""
    return np.array([[0.0, 1.0],
                     [-0.5 * k * k, -eta * k ** (2.0 * beta)]])


def full_companion(k, eta, beta, nu, alpha, a):
    """A with velocity dissipation nu k^(2 alpha) and stress damping a."""
    return np.array([[-nu * k ** (2.0 * alpha), 1.0],
                     [-0.5 * k * k, -(eta * k ** (2.0 * beta) + a)]])


class TestDispersionRoots:
    def test_overdamped_frozen_case(self):
        """eta=2, beta=1, k=1: lambda^2 + 2 lambda + 1/2 = 0 has roots
        -1 +- sqrt(2)/2."""
        r = dispersion_roots(1.0, 2.0, 1.0)
        assert r.regime == "overdamped"
        assert r.lambda_plus == pytest.approx(-1.0 + SQRT2 / 2.0, rel=1e-14)
        assert r.lambda_minus == pytest.approx(-1.0 - SQRT2 / 2.0, rel=1e-14)
        assert r.discriminant == pytest.approx(2.0, rel=1e-14)

    def test_underdamped_frozen_case(self):
        """eta=0.2, beta=1/2, k=1: roots -0.1 +- 0.7i."""
        r = dispersion_roots(1.0, 0.2, 0.5)
        assert r.regime == "underdamped"
        assert r.lambda_plus == pytest.approx(-0.1 + 0.7j, rel=1e-14)
        assert r.lambda_minus == pytest.approx(-0.1 - 0.7j, rel=1e-14)
        assert r.discriminant == pytest.approx(-1.96, rel=1e-14)

    def test_critical_case(self):
        """damping^2 = 2 k^2 collapses both roots onto -damping/2."""
        r = dispersion_roots(1.0, SQRT2, 0.75)
        assert r.regime == "critical"
        assert r.lambda_plus == pytest.approx(-SQRT2 / 2.0, rel=1e-12)
        assert r.lambda_plus == r.lambda_minus

    def test_vieta_relations(self):
        """Root sum = -eta k^(2 beta), root product = k^2 / 2.

        The product form matters: the naive quadratic formula loses the
        slow root to cancellation at large k, the implementation must not.
        """
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = float(rng.uniform(0.5, 64.0))
            eta = float(rng.uniform(0.05, 5.0))
            beta = float(rng.uniform(0.25, 1.25))
            r = dispersion_roots(k, eta, beta)
            s = r.lambda_plus + r.lambda_minus
            p = r.lambda_plus * r.lambda_minus
            assert s.real == pytest.approx(-eta * k ** (2 * beta), rel=1e-12)
            assert abs(s.imag) < 1e-12 * max(1.0, abs(s.real))
            assert p.real == pytest.approx(0.5 * k * k, rel=1e-12)
            assert abs(p.imag) < 1e-12 * p.real

    def test_all_roots_decay(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            r = dispersion_roots(float(rng.uniform(0.5, 32.0)),
                                 float(rng.uniform(0.01, 4.0)),
                                 float(rng.uniform(0.25, 1.0)))
            assert r.lambda_plus.real < 0.0
            assert r.lambda_minus.real < 0.0

    def test_underdamped_frequency_formula(self):
        """k=4, eta=0.2, beta=1/2: Im = sqrt(k^2/2 - damping^2/4) = 2.8."""
        r = dispersion_roots(4.0, 0.2, 0.5)
        assert r.lambda_plus.imag == pytest.approx(2.8, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            dispersion_roots(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dispersion_roots(1.0, -1.0, 1.0)


class TestModeSolution:
    def test_matches_matrix_exponential(self):
        """Closed-form propagation equals expm(A t) across all regimes."""
        cases = [(1.0, 2.0, 1.0),     # overdamped
                 (1.0, 0.2, 0.5),     # underdamped
                 (1.0, SQRT2, 1.0),   # critical (Jordan block)
                 (16.0, 1.0, 1.0),    # stiff, large k
                 (3.0, 0.05, 0.75)]
        for k, eta, beta in cases:
            a_mat = companion(k, eta, beta)
            y0 = np.array([0.3 - 0.2j, -1.1 + 0.7j])
            for t in (0.0, 0.1, 1.0, 5.0):
                u, s = linear_mode_solution(y0[0], y0[1], k, eta, beta, t)
                ref = scipy.linalg.expm(a_mat * t) @ y0
                assert u == pytest.approx(ref[0], rel=1e-11, abs=1e-13)
                assert s == pytest.approx(ref[1], rel=1e-11, abs=1e-13)

    def test_near_critical_stability(self):
        """A discriminant within roundoff of zero must not cost digits;
        compare against expm on both sides of critical damping."""
        k = 1.0
        for eta in (SQRT2 * (1.0 + 3e-11), SQRT2 * (1.0 - 3e-11), SQRT2):
            a_mat = companion(k, eta, 1.0)
            u, s = linear_mode_solution(1.0, 0.5, k, eta, 1.0, 2.0)
            ref = scipy.linalg.expm(a_mat * 2.0) @ np.array([1.0, 0.5])
            assert u == pytest.approx(ref[0], rel=1e-12)
            assert s == pytest.approx(ref[1], rel=1e-12)

    def test_near_critical_zero_time_is_exact_identity(self):
        """At a relative discriminant of 2e-7 the old eigenvector formula
        returned y0 off by 2e-11 |y0| at t = 0."""
        k, beta, nu, alpha, a = 15.0, 0.586, 0.326, 1.07, 0.83
        gap = SQRT2 * k * (1.0 + 1e-7)
        eta = (nu * k ** (2 * alpha) + gap - a) / k ** (2 * beta)
        assert dispersion_roots(k, eta, beta, nu=nu, alpha=alpha,
                                a=a).discriminant != 0.0
        y0 = (0.3 - 1.7j, 2.9 + 0.4j)
        assert linear_mode_solution(*y0, k, eta, beta, 0.0, nu=nu,
                                    alpha=alpha, a=a) == y0

    def test_near_critical_long_time_decays_to_zero(self):
        """Both exponentials underflow at t = 1e7; no division by the tiny
        root gap may turn that into an exception or a NaN."""
        u, s = linear_mode_solution(1.0, 0.5, 1.0, SQRT2 * (1.0 + 1e-12),
                                    1.0, 1e7)
        assert (u, s) == (0.0, 0.0)

    def test_series_and_root_forms_meet_at_the_switch(self):
        """(delta t)^2 = 1 separates the even series from the root form;
        both sides match expm, underdamped and overdamped, at |m t| ~ 2."""
        k, beta = 2.0, 1.0
        for rel in (0.15, -0.1):
            eta = SQRT2 * k * (1.0 + rel) / k ** (2 * beta)
            disc = dispersion_roots(k, eta, beta).discriminant
            for x in (1.0 - 1e-9, 1.0 + 1e-9):
                t = math.sqrt(x / (0.25 * abs(disc)))
                ref = scipy.linalg.expm(companion(k, eta, beta) * t) @ \
                    np.array([1.0, 0.5])
                u, s = linear_mode_solution(1.0, 0.5, k, eta, beta, t)
                assert abs(u - ref[0]) < 1e-13
                assert abs(s - ref[1]) < 1e-13

    def test_fine_step_ode_oracle(self):
        """Classic RK4 at dt=1e-5 on the raw ODE reproduces the closed
        form to ~1e-10, confirming it solves the right equation."""
        k, eta, beta, t_end = 1.0, 2.0, 1.0, 1.0
        a_mat = companion(k, eta, beta)
        y = np.array([1.0 + 0.0j, -0.25 + 0.5j])
        dt = 1e-5
        for _ in range(int(round(t_end / dt))):
            k1 = a_mat @ y
            k2 = a_mat @ (y + 0.5 * dt * k1)
            k3 = a_mat @ (y + 0.5 * dt * k2)
            k4 = a_mat @ (y + dt * k3)
            y = y + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        u, s = linear_mode_solution(1.0 + 0.0j, -0.25 + 0.5j, k, eta, beta,
                                    t_end)
        assert abs(u - y[0]) < 1e-10
        assert abs(s - y[1]) < 1e-10

    def test_semigroup_property(self):
        k, eta, beta = 2.0, 0.5, 0.75
        u0, s0 = 0.4 + 0.1j, -0.3 + 0.9j
        u1, s1 = linear_mode_solution(u0, s0, k, eta, beta, 0.7)
        u2, s2 = linear_mode_solution(u1, s1, k, eta, beta, 0.5)
        u12, s12 = linear_mode_solution(u0, s0, k, eta, beta, 1.2)
        assert u2 == pytest.approx(u12, rel=1e-12)
        assert s2 == pytest.approx(s12, rel=1e-12)

    def test_array_amplitudes(self):
        u0 = np.array([1.0 + 0j, 2.0 - 1j])
        s0 = np.array([0.0 + 0j, 1.0 + 1j])
        u, s = linear_mode_solution(u0, s0, 1.0, 2.0, 1.0, 0.5)
        assert u.shape == (2,)
        for i in range(2):
            ui, si = linear_mode_solution(u0[i], s0[i], 1.0, 2.0, 1.0, 0.5)
            assert u[i] == pytest.approx(ui, rel=1e-14)
            assert s[i] == pytest.approx(si, rel=1e-14)

    def test_zero_time_is_identity(self):
        u, s = linear_mode_solution(0.3 + 1j, -2.0 + 0j, 5.0, 0.7, 0.5, 0.0)
        assert u == pytest.approx(0.3 + 1j, rel=1e-15)
        assert s == pytest.approx(-2.0, rel=1e-15)


class TestEnvelope:
    def test_slow_root_asymptote(self):
        """For beta=1 the slow root tends to -1/(2 eta) as k grows."""
        rows = decay_envelope(1.0, 1.0, 64)
        tail = rows[-1]
        assert tail.k == 64.0
        assert tail.lambda_plus.real == pytest.approx(-0.5, rel=0.05)

    def test_rows_cover_integer_wavenumbers(self):
        rows = decay_envelope(0.5, 0.75, 8)
        assert [r.k for r in rows] == [float(k) for k in range(1, 9)]

    def test_csv_shape_and_round_trip(self):
        rows = decay_envelope(2.0, 1.0, 4)
        text = dispersion_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ("k,re_lambda_plus,im_lambda_plus,"
                            "re_lambda_minus,im_lambda_minus,regime")
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == pytest.approx(-1.0 + SQRT2 / 2.0,
                                                rel=1e-15)


class TestFullLinearSystem:
    def test_keywords_default_to_the_undamped_inviscid_system(self):
        plain = dispersion_roots(3.0, 0.7, 0.75)
        assert dispersion_roots(3.0, 0.7, 0.75, nu=0.0, alpha=1.0,
                                a=0.0) == plain
        with pytest.raises(TypeError):
            dispersion_roots(3.0, 0.7, 0.75, 0.1)

    def test_vieta_relations_with_viscosity_and_damping(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = float(rng.uniform(0.5, 32.0))
            eta, nu, a = (float(x) for x in rng.uniform(0.0, 3.0, 3))
            beta, alpha = (float(x) for x in rng.uniform(0.25, 1.25, 2))
            d_u, d_s = nu * k ** (2 * alpha), eta * k ** (2 * beta) + a
            r = dispersion_roots(k, eta, beta, nu=nu, alpha=alpha, a=a)
            s = r.lambda_plus + r.lambda_minus
            p = r.lambda_plus * r.lambda_minus
            assert s.real == pytest.approx(-(d_u + d_s), rel=1e-12)
            assert p.real == pytest.approx(d_u * d_s + 0.5 * k * k, rel=1e-12)

    def test_inviscid_undamped_waves_do_not_decay(self):
        """eta = nu = a = 0: roots +- i k / sqrt(2), allowed now."""
        r = dispersion_roots(4.0, 0.0, 1.0)
        assert r.regime == "underdamped"
        assert r.lambda_plus == pytest.approx(4.0j / SQRT2, rel=1e-15)
        with pytest.raises(ValueError):
            dispersion_roots(1.0, 1.0, 1.0, nu=-0.1)
        with pytest.raises(ValueError):
            dispersion_roots(1.0, 1.0, 1.0, a=-0.1)

    def test_matches_matrix_exponential_on_random_parameters(self):
        """Property test against expm over random (k, eta >= 0, beta, nu,
        alpha, a); two cases in five are placed at (d_s - d_u)^2 = 2 k^2,
        exactly or within a relative 2e-11, 1e-7 or 1e-3 of it, with either
        sign of d_s - d_u."""
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 300:
            k = float(rng.uniform(0.5, 16.0))
            beta, alpha = (float(x) for x in rng.uniform(0.25, 1.25, 2))
            nu = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.5))
            a = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0))
            near = rng.random() < 0.4
            if near:
                rel = float(rng.choice([0.0, 2e-11, -2e-11, 1e-7, -1e-7,
                                        1e-3]))
                gap = float(rng.choice([1.0, -1.0])) * SQRT2 * k * (1 + rel)
                d_s = nu * k ** (2 * alpha) + gap
                if d_s < a:
                    continue
                eta = (d_s - a) / k ** (2 * beta)
            else:
                eta = 0.0 if rng.random() < 0.25 else float(
                    rng.uniform(0.0, 3.0))
            checked += 1
            y0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a_mat = full_companion(k, eta, beta, nu, alpha, a)
            tol = (1e-12 if near else 1e-11) * np.max(np.abs(y0))
            for t in (0.0, 0.05, 0.5, 2.0):
                u, s = linear_mode_solution(y0[0], y0[1], k, eta, beta, t,
                                            nu=nu, alpha=alpha, a=a)
                ref = scipy.linalg.expm(a_mat * t) @ y0
                assert abs(u - ref[0]) < tol, (k, eta, beta, nu, alpha, a, t)
                assert abs(s - ref[1]) < tol, (k, eta, beta, nu, alpha, a, t)

    def test_envelope_passes_the_coefficients(self):
        rows = decay_envelope(0.5, 0.75, 4, nu=0.2, alpha=0.5, a=0.3)
        assert rows == [dispersion_roots(float(k), 0.5, 0.75, nu=0.2,
                                         alpha=0.5, a=0.3)
                        for k in range(1, 5)]
