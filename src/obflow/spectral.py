"""Spectral fields and operators on the periodic torus [0, 2pi)^d.

Conventions used throughout the package:

- Forward transforms divide by n^d, so coefficients are Fourier-series
  amplitudes: f(x) = sum_k fhat(k) exp(i k.x) with integer wavenumbers k.
- All L2 / Sobolev quantities carry the explicit (2pi)^d domain factor,
  e.g. ||f||_L2^2 = (2pi)^d sum_k |fhat(k)|^2.
- Derivative multipliers i*k_j have the Nyquist plane zeroed so that odd
  multipliers map real fields to real fields.
- The Leray projector uses the full integer lattice (Nyquist = -n/2) and
  leaves the k = 0 mode untouched.
- Dealiasing zeroes every coefficient with any |k_i| >= n/3 (strict at the
  boundary, so quadratic products are alias-free for every even n).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Tuple, Union

import numpy as np

TWO_PI = 2.0 * np.pi

# Pair orderings for triangular tensor storage, keyed by dimension.
SYM_PAIRS = {2: ((0, 0), (0, 1), (1, 1)),
             3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))}
SKEW_PAIRS = {2: ((0, 1),),
              3: ((0, 1), (0, 2), (1, 2))}


class HermitianSymmetryError(RuntimeError):
    """Spectral coefficients are not Hermitian-symmetric within tolerance."""


class GridMismatchError(ValueError):
    """Operands live on different grids or have incompatible shapes."""


@dataclass(frozen=True)
class Grid:
    """Uniform n^d grid on [0, 2pi)^d with integer wavenumbers.

    Parameters
    ----------
    d : spatial dimension, 2 or 3.
    n : points per axis; must be even and at least 8.
    """

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 8, got {self.n}")

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def axes(self) -> Tuple[int, ...]:
        """FFT axes for arrays whose trailing d axes are the grid."""
        return tuple(range(-self.d, 0))

    @property
    def dx(self) -> float:
        return TWO_PI / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.d

    @cached_property
    def wavenumbers(self) -> Tuple[np.ndarray, ...]:
        """Integer wavenumbers per axis, broadcast to d axes (Nyquist = -n/2)."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        out = []
        for axis in range(self.d):
            shape = [1] * self.d
            shape[axis] = self.n
            out.append(k.reshape(shape))
        return tuple(out)

    @cached_property
    def derivative_multipliers(self) -> Tuple[np.ndarray, ...]:
        """i*k_j per axis with the Nyquist entry zeroed (odd multiplier)."""
        out = []
        for axis in range(self.d):
            k = self.wavenumbers[axis].copy()
            k[np.abs(k) == self.n // 2] = 0
            out.append(1j * k.astype(np.float64))
        return tuple(out)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full lattice, exact integer arithmetic."""
        ksq = np.zeros(self.shape, dtype=np.int64)
        for k in self.wavenumbers:
            ksq = ksq + k * k
        return ksq

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask of the 2/3 rule: True where all |k_i| < n/3."""
        mask = np.ones(self.shape, dtype=bool)
        for k in self.wavenumbers:
            mask = mask & (3 * np.abs(k) < self.n)
        return mask

    @cached_property
    def _weight_cache(self) -> dict:
        return {}

    def sobolev_weight(self, sigma: float, homogeneous: bool) -> np.ndarray:
        """(1 + |k|^2)^sigma, or |k|^(2 sigma) with the k = 0 entry zeroed."""
        key = (float(sigma), bool(homogeneous))
        cached = self._weight_cache.get(key)
        if cached is not None:
            return cached
        ksq = self.k_squared.astype(np.float64)
        if homogeneous:
            with np.errstate(divide="ignore"):
                w = np.where(ksq > 0, ksq, 1.0) ** sigma
            w[self.k_squared == 0] = 0.0
        else:
            w = (1.0 + ksq) ** sigma
        self._weight_cache[key] = w
        return w

    def fractional_multiplier(self, gamma: float) -> np.ndarray:
        """|k|^(2 gamma); the k = 0 entry is 0 for gamma > 0 and 1 for gamma = 0."""
        if gamma < 0:
            raise ValueError(f"fractional exponent must be >= 0, got {gamma}")
        if gamma == 0:
            return np.ones(self.shape)
        key = ("frac", float(gamma))
        cached = self._weight_cache.get(key)
        if cached is not None:
            return cached
        m = self.k_squared.astype(np.float64) ** gamma
        m[self.k_squared == 0] = 0.0
        self._weight_cache[key] = m
        return m

    def coordinates(self) -> Tuple[np.ndarray, ...]:
        """Physical coordinates per axis, each dense with the grid shape."""
        x = np.arange(self.n) * self.dx
        axes = [x] * self.d
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def mode_index(self, k: Tuple[int, ...]) -> Tuple[int, ...]:
        """Array index of integer mode k in fft layout."""
        if len(k) != self.d:
            raise ValueError(f"mode must have {self.d} components, got {k}")
        return tuple(int(ki) % self.n for ki in k)


def _forward(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples (trailing grid axes) -> Fourier-series coefficients."""
    values = np.asarray(values)
    if values.shape[-grid.d:] != grid.shape:
        raise GridMismatchError(
            f"sample shape {values.shape} does not end in {grid.shape}")
    return np.fft.fftn(values, axes=grid.axes, norm="forward")


def _inverse(coeffs: np.ndarray, grid: Grid, tol: float = 1e-12) -> np.ndarray:
    """Coefficients -> real samples; rejects non-Hermitian input.

    The imaginary residue of the inverse transform is exactly the inverse
    image of the anti-Hermitian part, so it is used as the symmetry check.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-grid.d:] != grid.shape:
        raise GridMismatchError(
            f"coefficient shape {coeffs.shape} does not end in {grid.shape}")
    out = np.fft.ifftn(coeffs, axes=grid.axes, norm="forward")
    residue = float(np.max(np.abs(out.imag))) if out.size else 0.0
    # the bound tol * (1 + scale) is at least tol, so the magnitude scan
    # is only needed when the residue exceeds tol
    if residue > tol:
        scale = float(np.max(np.abs(out)))
        if residue > tol * (1.0 + scale):
            raise HermitianSymmetryError(
                f"imaginary residue {residue:.3e} exceeds tolerance "
                f"{tol:.1e} * (1 + {scale:.3e})")
    return np.ascontiguousarray(out.real)


@dataclass
class SpectralField:
    """Scalar field stored as Fourier coefficients on a grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != self.grid.shape:
            raise GridMismatchError(
                f"coefficients have shape {self.coeffs.shape}, "
                f"grid expects {self.grid.shape}")

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        return cls(grid, _forward(values, grid))

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    def to_physical(self) -> np.ndarray:
        return _inverse(self.coeffs, self.grid)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def _pairs(self) -> Iterator[Tuple[np.ndarray, float]]:
        yield self.coeffs, 1.0


@dataclass
class VectorField:
    """Vector field; component axis first, then grid axes."""

    grid: Grid
    comps: np.ndarray

    def __post_init__(self):
        self.comps = np.asarray(self.comps, dtype=np.complex128)
        expected = (self.grid.d,) + self.grid.shape
        if self.comps.shape != expected:
            raise GridMismatchError(
                f"components have shape {self.comps.shape}, expected {expected}")

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "VectorField":
        values = np.asarray(values)
        if values.shape != (grid.d,) + grid.shape:
            raise GridMismatchError(
                f"samples have shape {values.shape}, expected "
                f"{(grid.d,) + grid.shape}")
        return cls(grid, _forward(values, grid))

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((grid.d,) + grid.shape, dtype=np.complex128))

    def to_physical(self) -> np.ndarray:
        return _inverse(self.comps, self.grid)

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.comps[i])

    def with_comps(self, comps: np.ndarray) -> "VectorField":
        return VectorField(self.grid, comps)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.comps.copy())

    def _pairs(self) -> Iterator[Tuple[np.ndarray, float]]:
        for i in range(self.grid.d):
            yield self.comps[i], 1.0


@dataclass
class TensorField:
    """Rank-2 tensor field with triangular storage.

    kind = "symmetric": stores the upper triangle (i <= j) and mirrors on
    read, so component (i, j) and (j, i) are the same array by construction.
    kind = "skew": stores the strict upper triangle (i < j); the mirror is
    negated and the diagonal is identically zero.
    """

    grid: Grid
    comps: np.ndarray
    kind: str = "symmetric"

    def __post_init__(self):
        if self.kind not in ("symmetric", "skew"):
            raise ValueError(f"unknown tensor kind {self.kind!r}")
        self.comps = np.asarray(self.comps, dtype=np.complex128)
        expected = (len(self.pairs),) + self.grid.shape
        if self.comps.shape != expected:
            raise GridMismatchError(
                f"components have shape {self.comps.shape}, expected {expected}")

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        table = SYM_PAIRS if self.kind == "symmetric" else SKEW_PAIRS
        return table[self.grid.d]

    @classmethod
    def zeros(cls, grid: Grid, kind: str = "symmetric") -> "TensorField":
        m = len((SYM_PAIRS if kind == "symmetric" else SKEW_PAIRS)[grid.d])
        return cls(grid, np.zeros((m,) + grid.shape, dtype=np.complex128), kind)

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray,
                      kind: str = "symmetric") -> "TensorField":
        values = np.asarray(values)
        m = len((SYM_PAIRS if kind == "symmetric" else SKEW_PAIRS)[grid.d])
        if values.shape != (m,) + grid.shape:
            raise GridMismatchError(
                f"samples have shape {values.shape}, expected {(m,) + grid.shape}")
        return cls(grid, _forward(values, grid), kind)

    def pair_index(self, i: int, j: int) -> int:
        a, b = (i, j) if i <= j else (j, i)
        return self.pairs.index((a, b))

    def component(self, i: int, j: int) -> SpectralField:
        """Coefficients of component (i, j), mirroring triangular storage."""
        d = self.grid.d
        if not (0 <= i < d and 0 <= j < d):
            raise IndexError(f"tensor index ({i}, {j}) out of range for d={d}")
        if self.kind == "symmetric":
            return SpectralField(self.grid, self.comps[self.pair_index(i, j)])
        if i == j:
            return SpectralField.zeros(self.grid)
        sign = 1.0 if i < j else -1.0
        return SpectralField(self.grid, sign * self.comps[self.pair_index(i, j)])

    def full_matrix(self) -> np.ndarray:
        """Dense (d, d, *grid) coefficient array with mirrored components."""
        d = self.grid.d
        out = np.zeros((d, d) + self.grid.shape, dtype=np.complex128)
        for m, (i, j) in enumerate(self.pairs):
            out[i, j] = self.comps[m]
            if i != j:
                out[j, i] = -self.comps[m] if self.kind == "skew" else self.comps[m]
        return out

    def to_physical(self) -> np.ndarray:
        """Physical samples of the stored (triangular) components."""
        return _inverse(self.comps, self.grid)

    def with_comps(self, comps: np.ndarray) -> "TensorField":
        return TensorField(self.grid, comps, self.kind)

    def copy(self) -> "TensorField":
        return TensorField(self.grid, self.comps.copy(), self.kind)

    def _pairs(self) -> Iterator[Tuple[np.ndarray, float]]:
        for m, (i, j) in enumerate(self.pairs):
            yield self.comps[m], 1.0 if i == j else 2.0


Field = Union[SpectralField, VectorField, TensorField]


def forward_transform(values: np.ndarray, grid: Grid) -> SpectralField:
    """Transform real scalar samples to a SpectralField."""
    return SpectralField.from_physical(grid, values)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Transform a SpectralField back to real samples."""
    return field.to_physical()


def _data(field: Field) -> np.ndarray:
    return field.coeffs if isinstance(field, SpectralField) else field.comps


def _rewrap(field: Field, data: np.ndarray) -> Field:
    if isinstance(field, SpectralField):
        return field.with_coeffs(data)
    if isinstance(field, VectorField):
        return field.with_comps(data)
    return field.with_comps(data)


def gradient(f: SpectralField) -> VectorField:
    """Spectral gradient; Nyquist modes of each derivative are zeroed."""
    grid = f.grid
    out = np.empty((grid.d,) + grid.shape, dtype=np.complex128)
    for axis, ik in enumerate(grid.derivative_multipliers):
        out[axis] = ik * f.coeffs
    return VectorField(grid, out)


def divergence(field: Union[VectorField, TensorField]) -> Union[SpectralField, VectorField]:
    """Spectral divergence of a vector (-> scalar) or tensor (-> vector).

    For tensors, row i of the result is sum_j i k_j T_ij with the mirror
    convention of the storage kind.
    """
    grid = field.grid
    ik = grid.derivative_multipliers
    if isinstance(field, VectorField):
        out = np.zeros(grid.shape, dtype=np.complex128)
        for j in range(grid.d):
            out += ik[j] * field.comps[j]
        return SpectralField(grid, out)
    if isinstance(field, TensorField):
        out = np.zeros((grid.d,) + grid.shape, dtype=np.complex128)
        for i in range(grid.d):
            for j in range(grid.d):
                out[i] += ik[j] * field.component(i, j).coeffs
        return VectorField(grid, out)
    raise TypeError(f"divergence expects a vector or tensor field, got {type(field)}")


def fractional_laplacian(field: Field, gamma: float) -> Field:
    """Apply (-Laplacian)^gamma, i.e. the Fourier multiplier |k|^(2 gamma).

    The zero mode is annihilated for gamma > 0 and kept for gamma = 0;
    gamma < 0 is rejected.
    """
    mult = field.grid.fractional_multiplier(gamma)
    return _rewrap(field, _data(field) * mult)


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields: vhat -> vhat - k (k.vhat)/|k|^2.

    Uses the full integer lattice (Nyquist = -n/2); the k = 0 mode is left
    untouched, so the mean flow is preserved.
    """
    grid = v.grid
    ksq = grid.k_squared
    kdotv = np.zeros(grid.shape, dtype=np.complex128)
    for j, k in enumerate(grid.wavenumbers):
        kdotv += k * v.comps[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(ksq > 0, kdotv / np.where(ksq > 0, ksq, 1), 0.0)
    out = np.empty_like(v.comps)
    for j, k in enumerate(grid.wavenumbers):
        out[j] = v.comps[j] - k * factor
    return VectorField(grid, out)


def dealias(field: Field) -> Field:
    """Zero every coefficient with any |k_i| >= n/3 (idempotent)."""
    return _rewrap(field, _data(field) * field.grid.dealias_mask)


def _check_compatible(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")
    if type(f) is not type(g):
        raise GridMismatchError(
            f"fields have different ranks: {type(f).__name__} vs {type(g).__name__}")
    if isinstance(f, TensorField) and f.kind != g.kind:
        raise GridMismatchError(f"tensor kinds differ: {f.kind} vs {g.kind}")


def sobolev_inner_product(f: Field, g: Field, sigma: float,
                          homogeneous: bool = False) -> float:
    """(2pi)^d sum_k w(k)^sigma Re <fhat, conj(ghat)>, summed componentwise.

    w(k) = 1 + |k|^2, or |k|^2 with the k = 0 term dropped when homogeneous.
    Tensor components are weighted with their mirror multiplicity, so the
    pairing is the full Frobenius one.  The reduction is numpy's pairwise
    sum in a fixed order, independent of any threading.
    """
    _check_compatible(f, g)
    w = f.grid.sobolev_weight(sigma, homogeneous)
    total = 0.0
    for (fc, mult), (gc, _) in zip(f._pairs(), g._pairs()):
        total += mult * float(np.sum(w * (fc.real * gc.real + fc.imag * gc.imag)))
    return (TWO_PI ** f.grid.d) * total


def sobolev_norm(f: Field, sigma: float, homogeneous: bool = False) -> float:
    """Sobolev norm induced by sobolev_inner_product (clipped at zero)."""
    return float(np.sqrt(max(sobolev_inner_product(f, f, sigma, homogeneous), 0.0)))


def l2_inner_product(f: Field, g: Field) -> float:
    return sobolev_inner_product(f, g, 0.0)


def l2_norm(f: Field) -> float:
    return sobolev_norm(f, 0.0)
