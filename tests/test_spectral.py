"""Spectral infrastructure: transforms, operators, norms, dealiasing."""

import math

import numpy as np
import pytest

from obflow.spectral import (
    Grid,
    HermitianSymmetryError,
    SpectralField,
    TensorField,
    VectorField,
    dealias,
    divergence,
    forward_transform,
    fractional_laplacian,
    gradient,
    inverse_transform,
    l2_inner_product,
    l2_norm,
    leray_project,
    sobolev_inner_product,
    sobolev_norm,
)

TWO_PI = 2.0 * math.pi


def random_scalar(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return forward_transform(scale * rng.standard_normal(grid.shape), grid)


def random_vector(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    phys = scale * rng.standard_normal((grid.d,) + grid.shape)
    comps = np.stack([forward_transform(phys[i], grid).coeffs
                      for i in range(grid.d)])
    return VectorField(grid, comps)


def random_symmetric_tensor(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    npair = len(grid_pairs(grid))
    phys = scale * rng.standard_normal((npair,) + grid.shape)
    comps = np.stack([forward_transform(phys[i], grid).coeffs
                      for i in range(npair)])
    return TensorField(grid, comps, kind="symmetric")


def grid_pairs(grid):
    return TensorField.zeros(grid).pairs


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(4, 16)
        with pytest.raises(ValueError):
            Grid(2, 15)
        with pytest.raises(ValueError):
            Grid(2, 4)

    def test_mode_index_wraps_negative(self):
        g = Grid(2, 16)
        assert g.mode_index((0, 1)) == (0, 1)
        assert g.mode_index((0, -1)) == (0, 15)
        assert g.mode_index((-3, 5)) == (13, 5)

    def test_wavenumber_broadcast_shapes(self):
        g = Grid(3, 8)
        ks = g.wavenumbers
        assert ks[0].shape == (8, 1, 1)
        assert ks[1].shape == (1, 8, 1)
        assert ks[2].shape == (1, 1, 8)
        assert g.k_squared.shape == (8, 8, 8)

    def test_nyquist_derivative_multiplier_is_zero(self):
        g = Grid(2, 16)
        m = g.derivative_multipliers[0]
        assert m[8, 0] == 0.0
        assert m[3, 0] == 3j


class TestTransforms:
    def test_delta_function_coefficients(self):
        """A grid delta has every Fourier coefficient equal to 1/n^d."""
        g = Grid(2, 16)
        phys = np.zeros(g.shape)
        phys[0, 0] = 1.0
        f = forward_transform(phys, g)
        np.testing.assert_allclose(f.coeffs, 1.0 / 16 ** 2, rtol=0, atol=1e-15)

    def test_cosine_coefficients(self):
        g = Grid(2, 16)
        x = g.coordinates()
        f = forward_transform(np.cos(3.0 * x[0]), g)
        expected = np.zeros(g.shape, dtype=complex)
        expected[g.mode_index((3, 0))] = 0.5
        expected[g.mode_index((-3, 0))] = 0.5
        np.testing.assert_allclose(f.coeffs, expected, rtol=0, atol=1e-14)

    def test_round_trip(self):
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            rng = np.random.default_rng(11 + d)
            phys = rng.standard_normal(g.shape)
            back = inverse_transform(forward_transform(phys, g))
            np.testing.assert_allclose(back, phys, rtol=0, atol=1e-13)

    def test_inverse_rejects_broken_symmetry(self):
        g = Grid(2, 16)
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[g.mode_index((1, 0))] = 1.0  # no conjugate partner
        with pytest.raises(HermitianSymmetryError):
            inverse_transform(SpectralField(g, coeffs))

    def test_symmetry_tolerance_scales_with_magnitude(self):
        """A residue above tol passes when it is below tol * (1 + max|f|)."""
        g = Grid(2, 16)
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[g.mode_index((1, 0))] = 1e6
        coeffs[g.mode_index((-1, 0))] = 1e6
        coeffs[g.mode_index((2, 0))] = 1e-8  # no conjugate partner
        inverse_transform(SpectralField(g, coeffs))
        coeffs[g.mode_index((2, 0))] = 1e-4
        with pytest.raises(HermitianSymmetryError,
                           match=r"exceeds tolerance 1\.0e-12 \* \(1 \+ 2\.000e\+06\)"):
            inverse_transform(SpectralField(g, coeffs))


class TestDifferentialOperators:
    def test_gradient_of_sine(self):
        g = Grid(2, 32)
        x = g.coordinates()
        f = forward_transform(np.sin(2.0 * x[1]), g)
        grad = gradient(f)
        np.testing.assert_allclose(inverse_transform(grad.component(0)),
                                   0.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(inverse_transform(grad.component(1)),
                                   2.0 * np.cos(2.0 * x[1]), atol=1e-12)

    def test_gradient_kills_nyquist(self):
        """The odd derivative multiplier is zeroed at k = n/2."""
        g = Grid(2, 16)
        x = g.coordinates()
        f = forward_transform(np.cos(8.0 * x[0]), g)
        grad = gradient(f)
        assert np.max(np.abs(grad.comps)) == 0.0

    def test_vector_divergence_hand_case(self):
        g = Grid(2, 32)
        x = g.coordinates()
        u = VectorField(g, np.stack([
            forward_transform(np.sin(x[0]), g).coeffs,
            forward_transform(np.cos(2.0 * x[1]), g).coeffs]))
        div = divergence(u)
        expected = np.cos(x[0]) - 2.0 * np.sin(2.0 * x[1])
        np.testing.assert_allclose(inverse_transform(div), expected, atol=1e-12)

    def test_tensor_divergence_uses_mirrored_components(self):
        """(div tau)_i = sum_j d_j tau_ij with tau_10 read from tau_01."""
        g = Grid(2, 32)
        x = g.coordinates()
        tau = TensorField.zeros(g)
        tau.comps[tau.pair_index(0, 0)] = forward_transform(np.cos(x[0]), g).coeffs
        tau.comps[tau.pair_index(0, 1)] = forward_transform(np.sin(x[1]), g).coeffs
        div = divergence(tau)
        d0 = -np.sin(x[0]) + np.cos(x[1])   # d0 tau00 + d1 tau01
        d1 = np.zeros(g.shape)              # d0 tau10 + d1 tau11, tau10 = tau01
        np.testing.assert_allclose(inverse_transform(div.component(0)), d0,
                                   atol=1e-12)
        np.testing.assert_allclose(inverse_transform(div.component(1)), d1,
                                   atol=1e-12)

    def test_fractional_multiplier_values(self):
        g = Grid(2, 16)
        m = g.fractional_multiplier(0.5)   # |k|^1
        assert m[g.mode_index((3, 4))] == pytest.approx(5.0, rel=1e-15)
        assert m[g.mode_index((0, 0))] == 0.0
        m2 = g.fractional_multiplier(1.0)  # |k|^2
        assert m2[g.mode_index((3, 4))] == pytest.approx(25.0, rel=1e-15)

    def test_fractional_identity_and_domain(self):
        g = Grid(2, 16)
        np.testing.assert_array_equal(g.fractional_multiplier(0.0),
                                      np.ones(g.shape))
        with pytest.raises(ValueError):
            g.fractional_multiplier(-0.5)

    def test_fractional_laplacian_matches_analytic(self):
        """(-Lap)^g of a plane wave multiplies by |k|^(2g)."""
        g = Grid(2, 32)
        x = g.coordinates()
        f = forward_transform(np.cos(3.0 * x[0] + 4.0 * x[1]), g)
        out = fractional_laplacian(f, 0.75)
        expected = 25.0 ** 0.75 * np.cos(3.0 * x[0] + 4.0 * x[1])
        np.testing.assert_allclose(inverse_transform(out), expected,
                                   rtol=1e-12, atol=1e-12)


class TestLerayProjection:
    def test_parallel_mode_is_annihilated(self):
        g = Grid(2, 16)
        u = VectorField.zeros(g)
        idx = g.mode_index((2, 0))
        u.comps[(0,) + idx] = 1.0
        u.comps[(0,) + g.mode_index((-2, 0))] = 1.0
        out = leray_project(u)
        assert np.max(np.abs(out.comps)) < 1e-15

    def test_oblique_mode_hand_values(self):
        """P = I - k k^T / |k|^2 at k=(1,1) sends (1,0) to (1/2,-1/2)."""
        g = Grid(2, 16)
        u = VectorField.zeros(g)
        idx = g.mode_index((1, 1))
        u.comps[(0,) + idx] = 1.0
        out = leray_project(u)
        assert out.comps[(0,) + idx] == pytest.approx(0.5)
        assert out.comps[(1,) + idx] == pytest.approx(-0.5)

    def test_mean_flow_is_preserved(self):
        g = Grid(2, 16)
        u = VectorField.zeros(g)
        u.comps[0][g.mode_index((0, 0))] = 2.0
        u.comps[1][g.mode_index((0, 0))] = -1.0
        out = leray_project(u)
        assert out.comps[0][g.mode_index((0, 0))] == 2.0
        assert out.comps[1][g.mode_index((0, 0))] == -1.0

    def test_projection_properties(self):
        """Idempotent, kills gradients, output divergence-free, self-adjoint.

        The divergence and gradient identities are exact on the dealiased
        band (solver states always live there); at the Nyquist modes the
        projector sees the full lattice wavenumber while the derivative
        multiplier is zeroed, so the identities are checked post-dealias.
        """
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            u = dealias(random_vector(g, seed=5 * d))
            pu = leray_project(u)
            ppu = leray_project(pu)
            np.testing.assert_allclose(ppu.comps, pu.comps, rtol=0, atol=1e-14)
            assert l2_norm(divergence(pu)) < 1e-12

            phi = dealias(random_scalar(g, seed=5 * d + 1))
            assert np.max(np.abs(leray_project(gradient(phi)).comps)) < 1e-13

            v = random_vector(g, seed=5 * d + 2)
            lhs = l2_inner_product(pu, v)
            rhs = l2_inner_product(u, leray_project(v))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDealias:
    def test_cutoff_bounds_n16(self):
        """On n=16 the mask keeps |k_i| <= 5 and zeroes |k_i| >= 6."""
        g = Grid(2, 16)
        mask = g.dealias_mask
        assert mask[g.mode_index((5, 5))] == 1.0
        assert mask[g.mode_index((6, 0))] == 0.0
        assert mask[g.mode_index((0, -6))] == 0.0
        assert mask[g.mode_index((8, 0))] == 0.0

    def test_idempotent(self):
        g = Grid(2, 16)
        f = random_scalar(g, seed=3)
        once = dealias(f)
        twice = dealias(once)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_quadratic_product_matches_fine_grid(self):
        """sin(4x)^2 on n=12: the |k|=8 harmonic aliases onto -4, and the
        dealiased product must agree with the exact product truncated to the
        retained band (only the mean survives)."""
        g = Grid(2, 12)
        x = g.coordinates()
        f = np.sin(4.0 * x[0])
        prod = dealias(forward_transform(f * f, g))
        expected = np.zeros(g.shape, dtype=complex)
        expected[g.mode_index((0, 0))] = 0.5
        np.testing.assert_allclose(prod.coeffs, expected, rtol=0, atol=1e-14)

    def test_retained_band_products_are_alias_free(self):
        """Products of dealiased fields, dealiased again, agree with the
        fine-grid truth on the retained modes."""
        n, fine = 16, 48
        g, gf = Grid(2, n), Grid(2, fine)
        rng = np.random.default_rng(17)
        coeffs = np.zeros(g.shape, dtype=complex)
        for _ in range(6):
            k = rng.integers(-5, 6, size=2)
            a = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[g.mode_index(tuple(k))] += a
            coeffs[g.mode_index(tuple(-k))] += np.conj(a)
        f = dealias(SpectralField(g, coeffs))
        phys = inverse_transform(f)

        # same modes on the fine grid
        cf = np.zeros(gf.shape, dtype=complex)
        ks = f.coeffs.nonzero()
        for idx in zip(*ks):
            k = tuple(int(v) if v <= n // 2 else int(v) - n for v in idx)
            cf[gf.mode_index(k)] = f.coeffs[idx]
        phys_f = inverse_transform(SpectralField(gf, cf))

        coarse = dealias(forward_transform(phys * phys, g))
        fine_prod = forward_transform(phys_f * phys_f, gf)
        for idx in zip(*coarse.coeffs.nonzero()):
            k = tuple(int(v) if v <= n // 2 else int(v) - n for v in idx)
            assert coarse.coeffs[idx] == pytest.approx(
                fine_prod.coeffs[gf.mode_index(k)], rel=1e-12, abs=1e-13)


class TestNormsAndInnerProducts:
    def test_parseval(self):
        """Spectral L2 norm equals the physical grid quadrature."""
        for d, n in ((2, 16), (2, 64), (3, 16)):
            g = Grid(d, n)
            rng = np.random.default_rng(n + d)
            phys = rng.standard_normal(g.shape)
            f = forward_transform(phys, g)
            quad = math.sqrt(g.cell_volume * np.sum(phys * phys))
            assert l2_norm(f) == pytest.approx(quad, rel=1e-12)

    def test_single_mode_sobolev_norm(self):
        """f = 2 cos(3x + 4y): ||f||_{H^s}^2 = 2 (2 pi)^2 26^s."""
        g = Grid(2, 32)
        x = g.coordinates()
        f = forward_transform(2.0 * np.cos(3.0 * x[0] + 4.0 * x[1]), g)
        for s in (0.0, 1.5, 2.01):
            expected = math.sqrt(2.0 * TWO_PI ** 2 * 26.0 ** s)
            assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_single_mode_homogeneous_norm(self):
        g = Grid(2, 32)
        x = g.coordinates()
        f = forward_transform(2.0 * np.cos(3.0 * x[0] + 4.0 * x[1]), g)
        expected = math.sqrt(2.0 * TWO_PI ** 2 * 125.0)
        assert sobolev_norm(f, 1.5, homogeneous=True) == pytest.approx(
            expected, rel=1e-12)

    def test_homogeneous_norm_ignores_mean(self):
        g = Grid(2, 16)
        x = g.coordinates()
        f = forward_transform(3.0 + np.cos(x[0]), g)
        h = forward_transform(np.cos(x[0]), g)
        assert sobolev_norm(f, 1.0, homogeneous=True) == pytest.approx(
            sobolev_norm(h, 1.0, homogeneous=True), rel=1e-13)

    def test_inner_product_symmetric_bilinear(self):
        g = Grid(2, 16)
        f, h = random_scalar(g, 1), random_scalar(g, 2)
        assert sobolev_inner_product(f, h, 1.3) == pytest.approx(
            sobolev_inner_product(h, f, 1.3), rel=1e-13)
        norm_sq = sobolev_inner_product(f, f, 1.3)
        assert norm_sq == pytest.approx(sobolev_norm(f, 1.3) ** 2, rel=1e-13)

    def test_tensor_norm_counts_off_diagonals_twice(self):
        """The Frobenius pairing weighs tau_01 = tau_10 with multiplicity 2."""
        g = Grid(2, 16)
        x = g.coordinates()
        tau = TensorField.zeros(g)
        tau.comps[tau.pair_index(0, 1)] = forward_transform(np.cos(x[0]), g).coeffs
        scalar = forward_transform(np.cos(x[0]), g)
        assert sobolev_norm(tau, 1.0) == pytest.approx(
            math.sqrt(2.0) * sobolev_norm(scalar, 1.0), rel=1e-13)

    def test_cross_term_bound(self):
        """|<u, div tau>_{s-b}| <= ||u||_s ||tau||_s when b >= 1/2.

        Per mode |k| (1+|k|^2)^{s-b} <= (1+|k|^2)^s exactly when b >= 1/2,
        so the constant is 1 with no grid-dependent slack.
        """
        g = Grid(2, 16)
        s = 2.01
        for trial in range(25):
            u = random_vector(g, seed=100 + trial)
            tau = random_symmetric_tensor(g, seed=200 + trial)
            for beta in (0.5, 0.75, 1.0):
                cross = sobolev_inner_product(u, divergence(tau), s - beta)
                bound = sobolev_norm(u, s) * sobolev_norm(tau, s)
                assert abs(cross) <= bound * (1.0 + 1e-12)


class TestTensorFieldLayout:
    def test_symmetric_mirror(self):
        g = Grid(2, 16)
        tau = random_symmetric_tensor(g, seed=9)
        np.testing.assert_array_equal(tau.component(1, 0).coeffs,
                                      tau.component(0, 1).coeffs)
        full = tau.full_matrix()
        np.testing.assert_array_equal(full[0, 1], full[1, 0])

    def test_skew_mirror_and_zero_diagonal(self):
        g = Grid(2, 16)
        w = TensorField.zeros(g, kind="skew")
        w.comps[0] = random_scalar(g, seed=10).coeffs
        np.testing.assert_array_equal(w.component(1, 0).coeffs,
                                      -w.component(0, 1).coeffs)
        assert np.max(np.abs(w.component(0, 0).coeffs)) == 0.0

    def test_pair_enumeration_3d(self):
        g = Grid(3, 8)
        tau = TensorField.zeros(g)
        assert tau.pairs == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        assert tau.comps.shape == (6, 8, 8, 8)
