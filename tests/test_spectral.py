"""Spectral infrastructure: transforms, operators, norms, dealiasing."""

import math

import numpy as np
import pytest

import obflow.spectral
from obflow.spectral import (
    Grid,
    HermitianSymmetryError,
    SpectralField,
    TensorField,
    VectorField,
    dealias,
    divergence,
    fractional_laplacian,
    gradient,
    l2_inner_product,
    l2_norm,
    leray_project,
    sobolev_inner_product,
    sobolev_norm,
    _box_supported,
    _forward,
    _hermitian_residue,
    _inverse,
    _unchecked_inverse,
)

TWO_PI = 2.0 * math.pi


def random_scalar(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return SpectralField.from_physical(
        grid, scale * rng.standard_normal(grid.shape))


def random_vector(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    phys = scale * rng.standard_normal((grid.d,) + grid.shape)
    comps = np.stack([SpectralField.from_physical(grid, phys[i]).comps
                      for i in range(grid.d)])
    return VectorField(grid, comps)


def random_symmetric_tensor(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    npair = len(grid_pairs(grid))
    phys = scale * rng.standard_normal((npair,) + grid.shape)
    comps = np.stack([SpectralField.from_physical(grid, phys[i]).comps
                      for i in range(npair)])
    return TensorField(grid, comps)


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
        """Negative interior last components are read from the mirror slot."""
        g = Grid(2, 16)
        assert g.mode_index((0, 1)) == ((0, 1), False)
        assert g.mode_index((0, -1)) == ((0, 1), True)
        assert g.mode_index((-3, 5)) == ((13, 5), False)
        assert g.mode_index((-3, -5)) == ((3, 5), True)
        assert g.mode_index((-3, 0)) == ((13, 0), False)
        assert g.mode_index((3, 8)) == ((3, 8), False)
        assert g.mode_index((3, -8)) == ((3, 8), False)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_mode_index_round_trips(self, d, n):
        """Every lattice mode maps to a slot whose wavenumber is k or -k
        (mod n), and reading it back honours the conjugation flag."""
        g = Grid(d, n)
        rng = np.random.default_rng(d)
        phys = rng.standard_normal(g.shape)
        full = np.fft.fftn(phys, norm="forward")
        half = SpectralField.from_physical(g, phys).comps
        lasts = (-n // 2 + 1, -1, 0, 1, n // 2 - 1, n // 2, -n // 2)
        for lead in ((0,) * (d - 1), (1,) * (d - 1), (-n // 2,) * (d - 1),
                     (-3,) + (2,) * (d - 2)):
            for last in lasts:
                k = lead + (last,)
                idx, conjugated = g.mode_index(k)
                stored = [np.broadcast_to(w, g.spectral_shape)[idx]
                          for w in g.support_table(False).wavenumbers]
                sign = -1 if conjugated else 1
                assert all((s - sign * ki) % n == 0 for s, ki in zip(stored, k))
                value = half[idx].conj() if conjugated else half[idx]
                expected = full[tuple(ki % n for ki in k)]
                assert abs(value - expected) < 1e-15
                assert conjugated == (last % n > n // 2)

    def test_wavenumber_broadcast_shapes(self):
        g = Grid(3, 8)
        whole = g.support_table(False)
        ks = whole.wavenumbers
        assert ks[0].shape == (8, 1, 1)
        assert ks[1].shape == (1, 8, 1)
        assert ks[2].shape == (1, 1, 5)
        assert whole.k_squared.shape == (8, 8, 5)
        assert g.spectral_shape == (8, 8, 5)
        assert g.shape == (8, 8, 8)
        assert list(ks[2].ravel()) == [0, 1, 2, 3, -4]

    def test_nyquist_derivative_multiplier_is_zero(self):
        g = Grid(2, 16)
        m = g.support_table(False).derivative_multipliers[0]
        assert m[8, 0] == 0.0
        assert m[3, 0] == 3j


class TestTransforms:
    def test_delta_function_coefficients(self):
        """A grid delta has every Fourier coefficient equal to 1/n^d."""
        g = Grid(2, 16)
        phys = np.zeros(g.shape)
        phys[0, 0] = 1.0
        f = SpectralField.from_physical(g, phys)
        np.testing.assert_allclose(f.comps, 1.0 / 16 ** 2, rtol=0, atol=1e-15)

    def test_cosine_coefficients(self):
        g = Grid(2, 16)
        x = g.coordinates()
        f = SpectralField.from_physical(g, np.cos(3.0 * x[0]))
        expected = np.zeros(g.spectral_shape, dtype=complex)
        expected[g.mode_index((3, 0))[0]] = 0.5
        expected[g.mode_index((-3, 0))[0]] = 0.5
        np.testing.assert_allclose(f.comps, expected, rtol=0, atol=1e-14)

    def test_round_trip(self):
        for d, n in ((2, 16), (3, 8)):
            g = Grid(d, n)
            rng = np.random.default_rng(11 + d)
            phys = rng.standard_normal(g.shape)
            back = SpectralField.from_physical(g, phys).to_physical()
            np.testing.assert_allclose(back, phys, rtol=0, atol=1e-13)

    def test_inverse_rejects_broken_symmetry(self):
        g = Grid(2, 16)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[g.mode_index((1, 0))[0]] = 1.0  # no conjugate partner
        with pytest.raises(HermitianSymmetryError):
            SpectralField(g, coeffs).to_physical()

    def test_symmetry_tolerance_scales_with_magnitude(self):
        """A residue above tol passes when it is below tol * (1 + max|f|)."""
        g = Grid(2, 16)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[g.mode_index((1, 0))[0]] = 1e6
        coeffs[g.mode_index((-1, 0))[0]] = 1e6
        coeffs[g.mode_index((2, 0))[0]] = 1e-8  # no conjugate partner
        SpectralField(g, coeffs).to_physical()
        coeffs[g.mode_index((2, 0))[0]] = 1e-4
        with pytest.raises(HermitianSymmetryError,
                           match=r"exceeds tolerance 1\.0e-12 \* \(1 \+ 2\.000e\+06\)"):
            SpectralField(g, coeffs).to_physical()


class TestOneDimensionalPasses:
    """_forward and _inverse run numpy's rfftn/irfftn passes one by one,
    the later ones in place, so they must equal the n-d calls bit for bit
    and leave their input as it was."""

    @staticmethod
    def check(samples, grid):
        samples_before = samples.copy()
        coeffs = _forward(samples, grid)
        np.testing.assert_array_equal(samples, samples_before)
        np.testing.assert_array_equal(
            coeffs, np.fft.rfftn(samples, axes=grid.axes, norm="forward"))
        coeffs_before = coeffs.copy()
        np.testing.assert_array_equal(
            _inverse(coeffs, grid),
            np.fft.irfftn(coeffs, s=grid.shape, axes=grid.axes, norm="forward"))
        np.testing.assert_array_equal(coeffs, coeffs_before)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("m", [1, 3, 18])
    def test_stacks_equal_the_nd_transforms(self, d, n, m):
        g = Grid(d, n)
        rng = np.random.default_rng(100 * d + n + m)
        self.check(rng.standard_normal((m,) + g.shape), g)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_strided_input_equals_the_nd_transforms(self, d, n):
        g = Grid(d, n)
        rng = np.random.default_rng(d + n)
        samples = rng.standard_normal((6,) + g.shape)[::2]
        assert not samples.flags.c_contiguous
        self.check(samples, g)
        coeffs = _forward(rng.standard_normal((6,) + g.shape), g)[1::2]
        assert not coeffs.flags.c_contiguous
        np.testing.assert_array_equal(
            _inverse(coeffs, g),
            np.fft.irfftn(coeffs, s=g.shape, axes=g.axes, norm="forward"))


def box_supported_stack(grid, m, seed):
    """m Hermitian coefficient arrays, zero outside the 2/3 box."""
    rng = np.random.default_rng(seed)
    return _forward(rng.standard_normal((m,) + grid.shape), grid) \
        * grid.dealias_mask


class TestPrunedPasses:
    """Passes that skip the lines outside the 2/3 box give the values of
    the full passes: n = 12 and 48 are divisible by 3, where |k| = n/3 is
    outside the box."""

    @pytest.mark.parametrize("n", [8, 12, 16, 32, 48])
    def test_cutoff_and_kept_ranges(self, n):
        """The box table gathers the wavenumbers that the 2/3 rule keeps,
        in compact order: 0 .. kc-1, -(kc-1) .. -1 on the leading axis,
        0 .. kc-1 on the last."""
        g = Grid(2, n)
        kc = g.dealias_cutoff
        assert kc == math.ceil(n / 3)
        ks = g.support_table(False).wavenumbers
        lead, last = (g.support_table(True).gather(
            np.broadcast_to(k, g.spectral_shape)) for k in ks)
        k = np.fft.fftfreq(n, d=1.0 / n)
        np.testing.assert_array_equal(lead[:, 0], k[3 * np.abs(k) < n])
        np.testing.assert_array_equal(lead[:, 0], np.r_[0:kc, -(kc - 1):0])
        np.testing.assert_array_equal(last[0], np.arange(kc))
        np.testing.assert_array_equal(
            g.dealias_mask, (3 * np.abs(ks[0]) < n) & (3 * np.abs(ks[1]) < n))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 32, 48])
    def test_pruned_inverse_equals_the_full_passes(self, d, n):
        g = Grid(d, n)
        coeffs = box_supported_stack(g, 3 if d == 2 else 2, seed=7 * d + n)
        before = coeffs.copy()
        assert _box_supported(coeffs, g)
        full = _unchecked_inverse(coeffs, g.support_table(False))
        np.testing.assert_array_equal(
            full, np.fft.irfftn(coeffs, s=g.shape, axes=g.axes, norm="forward"))
        box = g.support_table(True)
        compact = box.gather(coeffs)
        np.testing.assert_array_equal(_unchecked_inverse(compact, box), full)
        out = np.empty_like(full)
        _unchecked_inverse(compact, box, out=out)
        np.testing.assert_array_equal(out, full)
        np.testing.assert_array_equal(_inverse(coeffs, g), full)
        np.testing.assert_array_equal(coeffs, before)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 32, 48])
    def test_dealiased_forward_equals_the_masked_forward(self, d, n):
        g = Grid(d, n)
        rng = np.random.default_rng(3 * d + n)
        samples = rng.standard_normal((2,) + g.shape)
        before = samples.copy()
        got = _forward(samples, g, dealiased=True)
        assert got.shape == (2,) + g.support_table(True).shape
        got = g.support_table(True).scatter(got)
        np.testing.assert_array_equal(got, _forward(samples, g) * g.dealias_mask)
        assert _box_supported(got, g)
        np.testing.assert_array_equal(samples, before)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [12, 32])
    def test_one_coefficient_outside_the_box_takes_the_full_passes(self, d, n):
        """Each block outside the box table is scanned: one coefficient
        in it makes the stack unsupported.  _inverse gives the full passes'
        values; the box table would drop it."""
        g = Grid(d, n)
        kc = g.dealias_cutoff
        # an interior column has no mirror in the half layout, so a single
        # coefficient there keeps the stack Hermitian
        slots = [(0,) * (d - 1) + (kc,)]
        for axis in range(d - 1):
            for k in (kc, n - kc):  # wavenumbers kc and -kc
                slot = [0] * (d - 1) + [1]
                slot[axis] = k
                slots.append(tuple(slot))
        for slot in slots:
            coeffs = box_supported_stack(g, 1, seed=n + d)
            coeffs[(0,) + slot] = 1.0 + 0.5j
            assert not _box_supported(coeffs, g), slot
            full = np.fft.irfftn(coeffs, s=g.shape, axes=g.axes,
                                 norm="forward")
            np.testing.assert_array_equal(_inverse(coeffs, g), full)
            box = g.support_table(True)
            assert not np.array_equal(
                _unchecked_inverse(box.gather(coeffs), box), full), slot

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_box_edge_is_inside(self, d):
        """Wavenumbers +-(kc - 1) on every axis are kept."""
        g = Grid(d, 12)
        kc = g.dealias_cutoff
        coeffs = np.zeros((1,) + g.spectral_shape, dtype=complex)
        coeffs[(0,) + (g.n - kc + 1,) * (d - 1) + (kc - 1,)] = 1.0
        assert _box_supported(coeffs, g)


class TestToPhysical:
    """to_physical chooses no table: it runs the whole table's passes on
    any stack, with the values of irfftn."""

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 48), (3, 12)])
    def test_runs_on_the_whole_table(self, monkeypatch, d, n):
        def no_scan(coeffs, grid):
            raise AssertionError("to_physical scanned for the 2/3 box")

        monkeypatch.setattr(obflow.spectral, "_box_supported", no_scan)
        g = Grid(d, n)
        rng = np.random.default_rng(d + n)
        boxed = box_supported_stack(g, d, seed=n)
        whole = _forward(rng.standard_normal((d,) + g.shape), g)
        for coeffs in (boxed, whole):
            got = VectorField(g, coeffs).to_physical()
            want = np.fft.irfftn(coeffs, s=g.shape, axes=g.axes,
                                 norm="forward")
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


class TestSupportTable:
    """The box table's compact layout holds the 2/3 box in 2^(d-1)
    contiguous blocks; the whole table's is the half layout itself."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 32])
    def test_gather_and_scatter_round_trip(self, d, n):
        g = Grid(d, n)
        box = g.support_table(True)
        kc = g.dealias_cutoff
        assert box.shape == (2 * kc - 1,) * (d - 1) + (kc,)
        rng = np.random.default_rng(n + d)
        compact = rng.standard_normal((2,) + box.shape) \
            + 1j * rng.standard_normal((2,) + box.shape)
        half = box.scatter(compact)
        assert half.shape == (2,) + g.spectral_shape
        assert _box_supported(half, g)
        np.testing.assert_array_equal(box.gather(half), compact)
        # every compact coefficient lands on a slot of the box, once
        assert np.count_nonzero(half) == compact.size
        full = _forward(rng.standard_normal((2,) + g.shape), g)
        np.testing.assert_array_equal(box.scatter(box.gather(full)),
                                      full * g.dealias_mask)
        whole = g.support_table(False)
        assert whole.shape == g.spectral_shape
        assert whole.gather(full) is full and whole.scatter(full) is full

    @pytest.mark.parametrize("n", [8, 16, 32, 48])
    @pytest.mark.parametrize("d", [2, 3])
    def test_box_multipliers_are_the_gathered_ones(self, d, n):
        """Each table builds its multipliers on its own compact layout; the
        box table's hold the bytes of the whole table's, gathered."""
        g = Grid(d, n)
        box, whole = g.support_table(True), g.support_table(False)

        def same_bytes(compact, half):
            compact = np.broadcast_to(compact, box.shape)
            gathered = box.gather(np.broadcast_to(half, g.spectral_shape))
            assert compact.dtype == gathered.dtype
            assert compact.tobytes() == gathered.tobytes()

        for name in ("wavenumbers", "derivative_multipliers",
                     "leray_wavenumbers"):
            for compact, half in zip(getattr(box, name), getattr(whole, name)):
                same_bytes(compact, half)
        for name in ("k_squared", "gradient_weight", "leray_divisor"):
            same_bytes(getattr(box, name), getattr(whole, name))
        for exponent in (0, 0.5, 0.75, 1, 2.01):
            same_bytes(box.sobolev_weight(exponent),
                       whole.sobolev_weight(exponent))
            same_bytes(box.fractional_multiplier(exponent),
                       whole.fractional_multiplier(exponent))
        kc = g.dealias_cutoff
        np.testing.assert_array_equal(box.wavenumbers[0].ravel(),
                                      np.r_[0:kc, -(kc - 1):0])
        np.testing.assert_array_equal(box.reversal,
                                      -np.arange(2 * kc - 1) % (2 * kc - 1))

    @pytest.mark.parametrize("d, n", [(2, 12), (2, 32), (3, 8), (3, 12)])
    def test_compact_residue_equals_the_scattered_one(self, d, n):
        """The box table reads column 0 only, as column n/2 lies outside
        the box; its residue is that of the scattered half layout."""
        g = Grid(d, n)
        box, whole = g.support_table(True), g.support_table(False)
        rng = np.random.default_rng(d * n)
        broken = rng.standard_normal((3,) + box.shape) \
            + 1j * rng.standard_normal((3,) + box.shape)
        hermitian = _forward(rng.standard_normal((3,) + g.shape), g,
                             dealiased=True)
        for compact in (broken, hermitian):
            residue = _hermitian_residue(compact, box)
            assert residue == _hermitian_residue(box.scatter(compact), whole)
        assert _hermitian_residue(broken, box) > 0.1
        assert _hermitian_residue(hermitian, box) < 1e-15


class TestHalfLayoutSymmetryCheck:
    """Only the last-axis columns 0 and n/2 hold both k and -k."""

    @pytest.mark.parametrize("d, n, slot", [
        (2, 16, (3, 0)), (3, 8, (1, 2, 0)), (3, 8, (0, 0, 0)),
        (2, 16, (5, 8)), (3, 8, (1, 6, 4)), (3, 8, (4, 4, 4))])
    def test_broken_redundant_column_is_rejected(self, d, n, slot):
        g = Grid(d, n)
        coeffs = random_scalar(g, seed=d).comps.copy()
        coeffs[slot] += 1e-3j
        with pytest.raises(HermitianSymmetryError):
            SpectralField(g, coeffs).to_physical()

    def test_interior_columns_have_no_partner_to_break(self):
        g = Grid(3, 8)
        coeffs = random_scalar(g, seed=4).comps.copy()
        coeffs[1, 6, 2] += 1e-3j
        SpectralField(g, coeffs).to_physical()

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 64), (3, 8), (3, 16)])
    def test_every_forward_transform_passes(self, d, n):
        g = Grid(d, n)
        rng = np.random.default_rng(n + d)
        for scale in (1e-6, 1.0, 1e6):
            SpectralField.from_physical(
                g, scale * rng.standard_normal(g.shape)).to_physical()
            VectorField.from_physical(
                g, scale * rng.standard_normal((d,) + g.shape)).to_physical()
            TensorField.from_physical(
                g, scale * rng.standard_normal(
                    (len(grid_pairs(g)),) + g.shape)).to_physical()


class TestDifferentialOperators:
    def test_gradient_of_sine(self):
        g = Grid(2, 32)
        x = g.coordinates()
        f = SpectralField.from_physical(g, np.sin(2.0 * x[1]))
        grad = gradient(f)
        np.testing.assert_allclose(grad.component(0).to_physical(),
                                   0.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grad.component(1).to_physical(),
                                   2.0 * np.cos(2.0 * x[1]), atol=1e-12)

    def test_gradient_kills_nyquist(self):
        """The odd derivative multiplier is zeroed at k = n/2."""
        g = Grid(2, 16)
        x = g.coordinates()
        f = SpectralField.from_physical(g, np.cos(8.0 * x[0]))
        grad = gradient(f)
        assert np.max(np.abs(grad.comps)) == 0.0

    def test_vector_divergence_hand_case(self):
        g = Grid(2, 32)
        x = g.coordinates()
        u = VectorField(g, np.stack([
            SpectralField.from_physical(g, np.sin(x[0])).comps,
            SpectralField.from_physical(g, np.cos(2.0 * x[1])).comps]))
        div = divergence(u)
        expected = np.cos(x[0]) - 2.0 * np.sin(2.0 * x[1])
        np.testing.assert_allclose(div.to_physical(), expected, atol=1e-12)

    def test_tensor_divergence_uses_mirrored_components(self):
        """(div tau)_i = sum_j d_j tau_ij with tau_10 read from tau_01."""
        g = Grid(2, 32)
        x = g.coordinates()
        tau = TensorField.zeros(g)
        tau.comps[tau.pair_index(0, 0)] = SpectralField.from_physical(
            g, np.cos(x[0])).comps
        tau.comps[tau.pair_index(0, 1)] = SpectralField.from_physical(
            g, np.sin(x[1])).comps
        div = divergence(tau)
        d0 = -np.sin(x[0]) + np.cos(x[1])   # d0 tau00 + d1 tau01
        d1 = np.zeros(g.shape)              # d0 tau10 + d1 tau11, tau10 = tau01
        np.testing.assert_allclose(div.component(0).to_physical(), d0,
                                   atol=1e-12)
        np.testing.assert_allclose(div.component(1).to_physical(), d1,
                                   atol=1e-12)

    def test_fractional_multiplier_values(self):
        g = Grid(2, 16)
        whole = g.support_table(False)
        m = whole.fractional_multiplier(0.5)   # |k|^1
        assert m[g.mode_index((3, 4))[0]] == pytest.approx(5.0, rel=1e-15)
        assert m[g.mode_index((0, 0))[0]] == 0.0
        m2 = whole.fractional_multiplier(1.0)  # |k|^2
        assert m2[g.mode_index((3, 4))[0]] == pytest.approx(25.0, rel=1e-15)

    def test_fractional_identity_and_domain(self):
        whole = Grid(2, 16).support_table(False)
        np.testing.assert_array_equal(whole.fractional_multiplier(0.0),
                                      np.ones(whole.shape))
        with pytest.raises(ValueError):
            whole.fractional_multiplier(-0.5)

    def test_fractional_laplacian_matches_analytic(self):
        """(-Lap)^g of a plane wave multiplies by |k|^(2g)."""
        g = Grid(2, 32)
        x = g.coordinates()
        f = SpectralField.from_physical(g, np.cos(3.0 * x[0] + 4.0 * x[1]))
        out = fractional_laplacian(f, 0.75)
        expected = 25.0 ** 0.75 * np.cos(3.0 * x[0] + 4.0 * x[1])
        np.testing.assert_allclose(out.to_physical(), expected,
                                   rtol=1e-12, atol=1e-12)


class TestLerayProjection:
    def test_parallel_mode_is_annihilated(self):
        g = Grid(2, 16)
        u = VectorField.zeros(g)
        idx, _ = g.mode_index((2, 0))
        u.comps[(0,) + idx] = 1.0
        u.comps[(0,) + g.mode_index((-2, 0))[0]] = 1.0
        out = leray_project(u)
        assert np.max(np.abs(out.comps)) < 1e-15

    def test_oblique_mode_hand_values(self):
        """P = I - k k^T / |k|^2 at k=(1,1) sends (1,0) to (1/2,-1/2)."""
        g = Grid(2, 16)
        u = VectorField.zeros(g)
        idx, _ = g.mode_index((1, 1))
        u.comps[(0,) + idx] = 1.0
        out = leray_project(u)
        assert out.comps[(0,) + idx] == pytest.approx(0.5)
        assert out.comps[(1,) + idx] == pytest.approx(-0.5)

    def test_mean_flow_is_preserved(self):
        g = Grid(2, 16)
        u = VectorField.zeros(g)
        zero, _ = g.mode_index((0, 0))
        u.comps[0][zero] = 2.0
        u.comps[1][zero] = -1.0
        out = leray_project(u)
        assert out.comps[0][zero] == 2.0
        assert out.comps[1][zero] == -1.0

    def test_projection_properties(self):
        """Idempotent, kills gradients, output divergence-free, self-adjoint,
        on the dealiased band, where solver states live (TestLerayWholeSpectrum
        checks data that set every mode)."""
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


def derivative_wavenumbers(grid):
    """k~: the integer wavenumbers with every Nyquist entry zeroed, those
    of the derivative multipliers."""
    return [np.where(np.abs(k) == grid.n // 2, 0, k)
            for k in grid.support_table(False).wavenumbers]


def leray_by_where(v):
    """The formula leray_project replaced: two np.where around an integer
    |k~|^2, and fresh arrays for every component."""
    grid = v.grid
    ks = derivative_wavenumbers(grid)
    ksq = sum(k * k for k in ks)
    kdotv = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for j, k in enumerate(ks):
        kdotv += k * v.comps[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(ksq > 0, kdotv / np.where(ksq > 0, ksq, 1), 0.0)
    return np.stack([v.comps[j] - k * factor for j, k in enumerate(ks)])


class TestLerayDivisor:
    """The cached float divisor keeps every bit of the np.where formula,
    whose wavenumbers are the derivative's k~."""

    @pytest.mark.parametrize("d, n", [(2, 8), (2, 16), (3, 8)])
    def test_equals_where_formula_exactly(self, d, n):
        g = Grid(d, n)
        rng = np.random.default_rng(d * n)
        shape = (d,) + g.spectral_shape
        comps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v = VectorField(g, comps)
        got = leray_project(v).comps
        np.testing.assert_array_equal(got, leray_by_where(v))
        # the data fill every slot, so the comparison covers k = 0, the
        # Nyquist modes and modes of mixed sign
        half = n // 2
        for mode in [(0,) * d, (-half,) * d, (1,) * (d - 1) + (-half,),
                     (-half,) + (3,) * (d - 1), (-1,) + (2,) * (d - 1),
                     (2,) + (-3,) * (d - 2) + (1,)]:
            assert np.all(comps[(slice(None),) + g.mode_index(mode)[0]] != 0)
        zero = (slice(None),) + (0,) * d
        np.testing.assert_array_equal(got[zero], comps[zero])

    def test_divisor_is_one_where_no_derivative_acts(self):
        """|k~|^2, and 1 where k~ = 0: on the 2^d slots whose every
        component is 0 or n/2, the mean among them."""
        g = Grid(3, 8)
        div = g.support_table(False).leray_divisor
        ksq = sum(k * k for k in derivative_wavenumbers(g))
        assert div.dtype == np.float64 and div[0, 0, 0] == 1.0
        assert np.count_nonzero(ksq == 0) == 2 ** 3
        np.testing.assert_array_equal(div, np.where(ksq > 0, ksq, 1))


class TestLerayWholeSpectrum:
    """Real random fields set every mode, the Nyquist slots included: the
    projector is even in k, so its output stays Hermitian, and it projects
    onto the kernel of divergence."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("d", [2, 3])
    def test_hermitian_divergence_free_idempotent(self, d, n):
        g = Grid(d, n)
        whole = g.support_table(False)
        v = random_vector(g, seed=7 * d + n)
        pv = leray_project(v)
        assert _hermitian_residue(pv.comps, whole) < 1e-15
        pv.to_physical()
        scale = np.max(np.abs(v.comps)) * n
        assert np.max(np.abs(divergence(pv).comps)) < 1e-15 * scale
        np.testing.assert_allclose(leray_project(pv).comps, pv.comps,
                                   rtol=0, atol=1e-15 * scale)


def divergence_by_double_loop(t):
    """The dense double loop over (i, j) that the triangle loop replaced."""
    g = t.grid
    out = np.zeros((g.d,) + g.spectral_shape, dtype=np.complex128)
    for i in range(g.d):
        for j in range(g.d):
            out[i] += (g.support_table(False).derivative_multipliers[j]
                       * t.component(i, j).comps)
    return out


class TestTensorDivergence:
    """Reading the stored triangle keeps every bit of the double loop."""

    @pytest.mark.parametrize("d, n", [(2, 8), (2, 16), (3, 8)])
    def test_equals_double_loop_exactly(self, d, n):
        g = Grid(d, n)
        rng = np.random.default_rng(10 * d + n)
        shape = (d * (d + 1) // 2,) + g.spectral_shape
        t = TensorField(g, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
        got = divergence(t)
        assert isinstance(got, VectorField)
        np.testing.assert_array_equal(got.comps, divergence_by_double_loop(t))


class TestDealias:
    def test_cutoff_bounds_n16(self):
        """On n=16 the mask keeps |k_i| <= 5 and zeroes |k_i| >= 6."""
        g = Grid(2, 16)
        mask = g.dealias_mask
        assert mask[g.mode_index((5, 5))[0]] == 1.0
        assert mask[g.mode_index((6, 0))[0]] == 0.0
        assert mask[g.mode_index((0, -6))[0]] == 0.0
        assert mask[g.mode_index((8, 0))[0]] == 0.0

    def test_idempotent(self):
        g = Grid(2, 16)
        f = random_scalar(g, seed=3)
        once = dealias(f)
        twice = dealias(once)
        np.testing.assert_array_equal(once.comps, twice.comps)

    def test_quadratic_product_matches_fine_grid(self):
        """sin(4x)^2 on n=12: the |k|=8 harmonic aliases onto -4, and the
        dealiased product must agree with the exact product truncated to the
        retained band (only the mean survives)."""
        g = Grid(2, 12)
        x = g.coordinates()
        f = np.sin(4.0 * x[0])
        prod = dealias(SpectralField.from_physical(g, f * f))
        expected = np.zeros(g.spectral_shape, dtype=complex)
        expected[g.mode_index((0, 0))[0]] = 0.5
        np.testing.assert_allclose(prod.comps, expected, rtol=0, atol=1e-14)

    def test_retained_band_products_are_alias_free(self):
        """Products of dealiased fields, dealiased again, agree with the
        fine-grid truth on the retained modes."""
        n, fine = 16, 48
        g, gf = Grid(2, n), Grid(2, fine)
        rng = np.random.default_rng(17)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        for _ in range(6):
            k = rng.integers(-5, 6, size=2)
            a = rng.standard_normal() + 1j * rng.standard_normal()
            # the pair (k, a), (-k, conj a), restricted to the stored slots
            for mode, value in ((k, a), (-k, np.conj(a))):
                idx, conjugated = g.mode_index(tuple(mode))
                if not conjugated:
                    coeffs[idx] += value
        f = dealias(SpectralField(g, coeffs))
        phys = f.to_physical()

        # same modes on the fine grid
        cf = np.zeros(gf.spectral_shape, dtype=complex)
        ks = f.comps.nonzero()
        for idx in zip(*ks):
            k = tuple(int(v) if v <= n // 2 else int(v) - n for v in idx)
            cf[gf.mode_index(k)[0]] = f.comps[idx]
        phys_f = SpectralField(gf, cf).to_physical()

        coarse = dealias(SpectralField.from_physical(g, phys * phys))
        fine_prod = SpectralField.from_physical(gf, phys_f * phys_f)
        for idx in zip(*coarse.comps.nonzero()):
            k = tuple(int(v) if v <= n // 2 else int(v) - n for v in idx)
            assert coarse.comps[idx] == pytest.approx(
                fine_prod.comps[gf.mode_index(k)[0]], rel=1e-12, abs=1e-13)


class TestNormsAndInnerProducts:
    def test_parseval(self):
        """Spectral L2 norm equals the physical grid quadrature."""
        for d, n in ((2, 16), (2, 64), (3, 16)):
            g = Grid(d, n)
            rng = np.random.default_rng(n + d)
            phys = rng.standard_normal(g.shape)
            f = SpectralField.from_physical(g, phys)
            quad = math.sqrt(g.cell_volume * np.sum(phys * phys))
            assert l2_norm(f) == pytest.approx(quad, rel=1e-12)

    def test_single_mode_sobolev_norm(self):
        """f = 2 cos(3x + 4y): ||f||_{H^s}^2 = 2 (2 pi)^2 26^s."""
        g = Grid(2, 32)
        x = g.coordinates()
        f = SpectralField.from_physical(
            g, 2.0 * np.cos(3.0 * x[0] + 4.0 * x[1]))
        for s in (0.0, 1.5, 2.01):
            expected = math.sqrt(2.0 * TWO_PI ** 2 * 26.0 ** s)
            assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)

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
        tau.comps[tau.pair_index(0, 1)] = SpectralField.from_physical(
            g, np.cos(x[0])).comps
        scalar = SpectralField.from_physical(g, np.cos(x[0]))
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


def full_spectrum_sum(f_phys, g_phys, sigma):
    """(2pi)^d sum over the whole lattice of (1 + |k|^2)^sigma
    Re f(k) conj g(k), from complex fftn of the samples."""
    d, n = f_phys.ndim, f_phys.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    ksq = sum(np.meshgrid(*[k * k] * d, indexing="ij"))
    w = (1.0 + ksq) ** sigma
    fh = np.fft.fftn(f_phys, norm="forward")
    gh = np.fft.fftn(g_phys, norm="forward")
    return TWO_PI ** d * float(np.sum(w * (fh * gh.conj()).real))


class TestHalfLayoutSums:
    @pytest.mark.parametrize("d, n", [(2, 16), (2, 32), (3, 8), (3, 16)])
    # a single value keeps the test ids (False-d-n) stable across versions
    @pytest.mark.parametrize("homogeneous", [False])
    def test_sums_match_the_full_spectrum(self, d, n, homogeneous):
        """Column multiplicity 2 inside, 1 at columns 0 and n/2."""
        g = Grid(d, n)
        x = g.coordinates()
        rng = np.random.default_rng(7 * d + n)
        nyquist = np.cos(0.5 * n * x[-1]) * (1.0 + np.cos(x[0]))
        f_phys = rng.standard_normal(g.shape) + 3.0 * nyquist
        g_phys = rng.standard_normal(g.shape) - 2.0 * nyquist
        f, h = SpectralField.from_physical(
            g, f_phys), SpectralField.from_physical(g, g_phys)
        assert np.max(np.abs(f.comps[..., -1])) > 0.5
        s, beta = 2.01, 0.5
        for sigma in (0.0, s, s - beta):
            for a, b in ((f, f), (f, h)):
                pa, pb = a.to_physical(), b.to_physical()
                ref = full_spectrum_sum(pa, pb, sigma)
                got = sobolev_inner_product(a, b, sigma)
                assert got == pytest.approx(ref, rel=1e-13)
        ref = math.sqrt(full_spectrum_sum(f_phys, f_phys, 0.0))
        assert l2_norm(f) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_tensor_sum_matches_the_full_spectrum(self, d, n):
        g = Grid(d, n)
        tau = random_symmetric_tensor(g, seed=d)
        phys = tau.to_physical()
        ref = sum((1.0 if i == j else 2.0)
                  * full_spectrum_sum(phys[m], phys[m], 1.5)
                  for m, (i, j) in enumerate(tau.pairs))
        assert sobolev_inner_product(tau, tau, 1.5) == pytest.approx(
            ref, rel=1e-13)


class TestTensorFieldLayout:
    def test_symmetric_mirror(self):
        g = Grid(2, 16)
        tau = random_symmetric_tensor(g, seed=9)
        np.testing.assert_array_equal(tau.component(1, 0).comps,
                                      tau.component(0, 1).comps)

    def test_pair_enumeration_3d(self):
        g = Grid(3, 8)
        tau = TensorField.zeros(g)
        assert tau.pairs == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        assert tau.comps.shape == (6, 8, 8, 5)
