"""Spectral fields and operators on the periodic torus [0, 2pi)^d.

Conventions used throughout the package:

- Forward transforms divide by n^d, so coefficients are Fourier-series
  amplitudes: f(x) = sum_k fhat(k) exp(i k.x) with integer wavenumbers k.
- Fields are real, so fhat(-k) = conj fhat(k) and only half the lattice is
  stored: the real-to-complex layout of np.fft.rfftn, shape
  Grid.spectral_shape = (n,)*(d-1) + (n/2+1,).  The leading axes hold
  0 .. n/2-1, -n/2 .. -1; the last axis holds 0 .. n/2-1 and, in its last
  column, the Nyquist wavenumber -n/2 (the same slot as +n/2).  A mode
  with a negative interior last component is read as the conjugate of its
  mirror (Grid.mode_index).
- Transforms run the 1-D passes of np.fft.rfftn / irfftn in their order,
  so results equal theirs bit for bit, without a fresh array per pass:
  _forward is rfft over the last axis, then fft in place over each leading
  axis, last to first; _inverse is ifft over the first axis into one new
  buffer (the coefficients are never written to), ifft in place over any
  further leading axis, then irfft over the last axis.
- Columns k_last = 0 and k_last = -n/2 contain both k and -k, so only they
  can break Hermitian symmetry; _inverse checks them and nothing else.
- All L2 / Sobolev quantities carry the explicit (2pi)^d domain factor,
  e.g. ||f||_L2^2 = (2pi)^d sum_k |fhat(k)|^2 over the whole lattice.  On
  the half layout each interior last-axis column stands for itself and its
  mirror, so it counts twice; columns 0 and n/2 count once.  The cached
  Sobolev weights carry this multiplicity.
- Derivative multipliers i*k_j have every Nyquist entry zeroed so that odd
  multipliers map real fields to real fields.
- The Leray projector uses the integer lattice with Nyquist = -n/2 on every
  axis and leaves the k = 0 mode untouched.
- Dealiasing zeroes every coefficient with any |k_i| >= n/3 (strict at the
  boundary, so quadratic products are alias-free for every even n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

TWO_PI = 2.0 * np.pi

# Pair orderings for triangular tensor storage, keyed by dimension.
SYM_PAIRS = {2: ((0, 0), (0, 1), (1, 1)),
             3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))}


class HermitianSymmetryError(RuntimeError):
    """Spectral coefficients are not Hermitian-symmetric within tolerance."""


class GridMismatchError(ValueError):
    """Operands live on different grids or have incompatible shapes."""


class ConfigError(ValueError):
    """Invalid parameters; carries the full list of problems.

    Each problem starts with the name of the field it concerns, e.g.
    "eta must be positive, got -1"; validate_config prefixes it with the
    config section ("model.eta must be positive, got -1").
    """

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def check_fields(obj: object, rules: Sequence[tuple]) -> None:
    """Raise one ConfigError listing every rule that obj's fields break.

    rules holds (field, ok, requirement): ok(value) is true for a valid
    value, or ok is None for a field that only has to be finite.  A float
    field must be finite, and only a finite value is tried against ok; a
    broken rule reads "<field> <requirement>, got <value>".
    """
    problems = []
    for name, ok, requirement in rules:
        value = getattr(obj, name)
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{name} must be finite, got {value!r}")
        elif ok is not None and not ok(value):
            problems.append(f"{name} {requirement}, got {value!r}")
    if problems:
        raise ConfigError(problems)


@dataclass(frozen=True)
class Grid:
    """Uniform n^d grid on [0, 2pi)^d with integer wavenumbers.

    Parameters
    ----------
    d : spatial dimension, 2 or 3.
    n : points per axis; must be even and at least 8.
    """

    d: int = 2
    n: int = 64

    def __post_init__(self):
        check_fields(self, (
            ("d", lambda d: d in (2, 3), "must be 2 or 3"),
            ("n", lambda n: n >= 8 and n % 2 == 0, "must be even and >= 8"),
        ))

    @property
    def shape(self) -> Tuple[int, ...]:
        """Physical sample shape."""
        return (self.n,) * self.d

    @property
    def spectral_shape(self) -> Tuple[int, ...]:
        """Coefficient shape of the half layout: the last axis keeps 0 .. n/2."""
        return (self.n,) * (self.d - 1) + (self.n // 2 + 1,)

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
        """Integer wavenumbers per axis, broadcast to d axes (Nyquist = -n/2).

        The last axis runs 0 .. n/2-1, -n/2 (the half layout).
        """
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        k_last = np.arange(self.n // 2 + 1)
        k_last[-1] = -(self.n // 2)
        out = []
        for axis in range(self.d):
            shape = [1] * self.d
            shape[axis] = -1
            out.append((k if axis < self.d - 1 else k_last).reshape(shape))
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
        """|k|^2 on the stored half lattice, exact integer arithmetic."""
        ksq = np.zeros(self.spectral_shape, dtype=np.int64)
        for k in self.wavenumbers:
            ksq = ksq + k * k
        return ksq

    @cached_property
    def k_squared_divisor(self) -> np.ndarray:
        """|k|^2 as floats, 1 at k = 0: the divisor of leray_project."""
        return np.where(self.k_squared > 0, self.k_squared, 1).astype(np.float64)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask of the 2/3 rule: True where all |k_i| < n/3."""
        mask = np.ones(self.spectral_shape, dtype=bool)
        for k in self.wavenumbers:
            mask = mask & (3 * np.abs(k) < self.n)
        return mask

    @cached_property
    def _weight_cache(self) -> dict:
        return {}

    def sobolev_weight(self, sigma: float, homogeneous: bool) -> np.ndarray:
        """(1 + |k|^2)^sigma, or |k|^(2 sigma) with the k = 0 entry zeroed,
        times the column multiplicity of the half layout (2 for interior
        last-axis columns, 1 for columns 0 and n/2)."""
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
        w[..., 1:-1] *= 2.0
        self._weight_cache[key] = w
        return w

    def fractional_multiplier(self, gamma: float) -> np.ndarray:
        """|k|^(2 gamma); the k = 0 entry is 0 for gamma > 0 and 1 for gamma = 0."""
        if gamma < 0:
            raise ValueError(f"fractional exponent must be >= 0, got {gamma}")
        if gamma == 0:
            return np.ones(self.spectral_shape)
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

    def mode_index(self, k: Tuple[int, ...]) -> Tuple[Tuple[int, ...], bool]:
        """(index, conjugated): the slot that stores mode k or its mirror -k.

        conjugated is True when the slot holds -k, i.e. its value is
        conj(fhat(k)); that is the case for a last component strictly
        between -n/2 and 0 (mod n).  Modes with last component 0 or +-n/2
        have slots of their own.
        """
        if len(k) != self.d:
            raise ValueError(f"mode must have {self.d} components, got {k}")
        k = tuple(int(ki) for ki in k)
        conjugated = k[-1] % self.n > self.n // 2
        if conjugated:
            k = tuple(-ki for ki in k)
        return tuple(ki % self.n for ki in k), conjugated


def _forward(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples (trailing grid axes) -> half-layout coefficients, equal
    to rfftn's bit for bit (see the module docstring)."""
    values = np.asarray(values)
    if values.shape[-grid.d:] != grid.shape:
        raise GridMismatchError(
            f"sample shape {values.shape} does not end in {grid.shape}")
    out = np.fft.rfft(values, axis=-1, norm="forward")
    for axis in grid.axes[-2::-1]:
        np.fft.fft(out, axis=axis, norm="forward", out=out)
    return out


def _hermitian_residue(coeffs: np.ndarray, grid: Grid) -> float:
    """max |c(k) - conj c(-k)| over the last-axis columns 0 and n/2.

    These two columns hold both k and -k; every other stored mode has its
    mirror outside the half layout, so this is the complete check.
    """
    cols = coeffs[..., ::grid.n // 2]
    mirror = cols
    rev = -np.arange(grid.n) % grid.n
    for axis in grid.axes[:-1]:
        mirror = np.take(mirror, rev, axis=axis)
    return float(np.max(np.abs(cols - mirror.conj()))) if cols.size else 0.0


def _inverse(coeffs: np.ndarray, grid: Grid, tol: float = 1e-12) -> np.ndarray:
    """Half-layout coefficients -> real samples; rejects non-Hermitian input.

    The result equals irfftn's bit for bit (see the module docstring).  The
    irfft pass would silently drop the anti-Hermitian part of the columns 0
    and n/2, so those columns are checked first, at O(n^(d-1)) cost.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-grid.d:] != grid.spectral_shape:
        raise GridMismatchError(
            f"coefficient shape {coeffs.shape} does not end in "
            f"{grid.spectral_shape}")
    residue = _hermitian_residue(coeffs, grid)
    # the first pass writes a new buffer, so coeffs is never written to
    work = np.fft.ifft(coeffs, axis=grid.axes[0], norm="forward")
    for axis in grid.axes[1:-1]:
        np.fft.ifft(work, axis=axis, norm="forward", out=work)
    out = np.fft.irfft(work, n=grid.n, axis=-1, norm="forward")
    # the bound tol * (1 + scale) is at least tol, so the magnitude scan
    # is only needed when the residue exceeds tol
    if residue > tol:
        scale = float(np.max(np.abs(out)))
        if residue > tol * (1.0 + scale):
            raise HermitianSymmetryError(
                f"imaginary residue {residue:.3e} exceeds tolerance "
                f"{tol:.1e} * (1 + {scale:.3e})")
    return out


@dataclass
class _FieldBase:
    """Half-layout coefficients of a real field: leading component axes,
    then the grid axes.  Subclasses declare the leading shape in _lead."""

    grid: Grid
    comps: np.ndarray

    @staticmethod
    def _lead(grid: Grid) -> Tuple[int, ...]:
        raise NotImplementedError

    def __post_init__(self):
        self.comps = np.asarray(self.comps, dtype=np.complex128)
        expected = self._lead(self.grid) + self.grid.spectral_shape
        if self.comps.shape != expected:
            raise GridMismatchError(
                f"components have shape {self.comps.shape}, expected {expected}")

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(cls._lead(grid) + grid.spectral_shape,
                                  dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray):
        values = np.asarray(values)
        expected = cls._lead(grid) + grid.shape
        if values.shape != expected:
            raise GridMismatchError(
                f"samples have shape {values.shape}, expected {expected}")
        return cls(grid, _forward(values, grid))

    def to_physical(self) -> np.ndarray:
        return _inverse(self.comps, self.grid)

    def with_comps(self, comps: np.ndarray):
        return type(self)(self.grid, comps)

    def copy(self):
        return type(self)(self.grid, self.comps.copy())

    def _pairs(self) -> Iterator[Tuple[np.ndarray, float]]:
        """(component, multiplicity) pairs of the L2 / Sobolev sums."""
        stack = self.comps if self._lead(self.grid) else self.comps[None]
        for c in stack:
            yield c, 1.0


@dataclass
class SpectralField(_FieldBase):
    """Scalar field stored as half-layout Fourier coefficients on a grid."""

    @staticmethod
    def _lead(grid: Grid) -> Tuple[int, ...]:
        return ()


@dataclass
class VectorField(_FieldBase):
    """Vector field; component axis first, then grid axes."""

    @staticmethod
    def _lead(grid: Grid) -> Tuple[int, ...]:
        return (grid.d,)

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.comps[i])


@dataclass
class TensorField(_FieldBase):
    """Symmetric rank-2 tensor field with triangular storage.

    Stores the upper triangle (i <= j) in SYM_PAIRS order and mirrors on
    read, so component (i, j) and (j, i) are the same array by construction.
    """

    @staticmethod
    def _lead(grid: Grid) -> Tuple[int, ...]:
        return (len(SYM_PAIRS[grid.d]),)

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return SYM_PAIRS[self.grid.d]

    def pair_index(self, i: int, j: int) -> int:
        a, b = (i, j) if i <= j else (j, i)
        return self.pairs.index((a, b))

    def component(self, i: int, j: int) -> SpectralField:
        """Coefficients of component (i, j), mirroring triangular storage."""
        d = self.grid.d
        if not (0 <= i < d and 0 <= j < d):
            raise IndexError(f"tensor index ({i}, {j}) out of range for d={d}")
        return SpectralField(self.grid, self.comps[self.pair_index(i, j)])

    def _pairs(self) -> Iterator[Tuple[np.ndarray, float]]:
        for m, (i, j) in enumerate(self.pairs):
            yield self.comps[m], 1.0 if i == j else 2.0


Field = Union[SpectralField, VectorField, TensorField]


def gradient(f: SpectralField) -> VectorField:
    """Spectral gradient; Nyquist modes of each derivative are zeroed."""
    grid = f.grid
    out = np.empty((grid.d,) + grid.spectral_shape, dtype=np.complex128)
    for axis, ik in enumerate(grid.derivative_multipliers):
        out[axis] = ik * f.comps
    return VectorField(grid, out)


def divergence(field: Union[VectorField, TensorField]) -> Union[SpectralField, VectorField]:
    """Spectral divergence of a vector (-> scalar) or tensor (-> vector).

    For tensors, row i of the result is sum_j i k_j T_ij with T_ji = T_ij.
    """
    grid = field.grid
    ik = grid.derivative_multipliers
    if isinstance(field, VectorField):
        out = np.zeros(grid.spectral_shape, dtype=np.complex128)
        for j in range(grid.d):
            out += ik[j] * field.comps[j]
        return SpectralField(grid, out)
    if isinstance(field, TensorField):
        out = np.zeros((grid.d,) + grid.spectral_shape, dtype=np.complex128)
        for m, (i, j) in enumerate(field.pairs):  # row i sums j ascending
            out[i] += ik[j] * field.comps[m]
            if i != j:
                out[j] += ik[i] * field.comps[m]
        return VectorField(grid, out)
    raise TypeError(f"divergence expects a vector or tensor field, got {type(field)}")


def fractional_laplacian(field: Field, gamma: float) -> Field:
    """Apply (-Laplacian)^gamma, i.e. the Fourier multiplier |k|^(2 gamma).

    The zero mode is annihilated for gamma > 0 and kept for gamma = 0;
    gamma < 0 is rejected.
    """
    mult = field.grid.fractional_multiplier(gamma)
    return field.with_comps(field.comps * mult)


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields: vhat -> vhat - k (k.vhat)/|k|^2.

    Uses the integer lattice with Nyquist = -n/2 on every axis; the k = 0
    mode is left untouched, so the mean flow is preserved.
    """
    grid = v.grid
    factor = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for j, k in enumerate(grid.wavenumbers):
        factor += k * v.comps[j]
    np.divide(factor, grid.k_squared_divisor, out=factor)
    factor[(0,) * grid.d] = 0.0
    out = np.empty_like(v.comps)
    for j, k in enumerate(grid.wavenumbers):
        np.multiply(k, factor, out=out[j])
        np.subtract(v.comps[j], out[j], out=out[j])
    return VectorField(grid, out)


def dealias(field: Field) -> Field:
    """Zero every coefficient with any |k_i| >= n/3 (idempotent)."""
    return field.with_comps(field.comps * field.grid.dealias_mask)


def _check_compatible(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")
    if type(f) is not type(g):
        raise GridMismatchError(
            f"fields have different ranks: {type(f).__name__} vs {type(g).__name__}")


def sobolev_inner_product(f: Field, g: Field, sigma: float,
                          homogeneous: bool = False) -> float:
    """(2pi)^d sum_k w(k)^sigma Re <fhat, conj(ghat)>, summed componentwise.

    w(k) = 1 + |k|^2, or |k|^2 with the k = 0 term dropped when homogeneous.
    The sum runs over the whole lattice: each stored interior last-axis
    column counts for itself and its mirror (see Grid.sobolev_weight).
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
