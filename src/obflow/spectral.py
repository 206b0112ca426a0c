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
- The 2/3 rule is stated once, as Grid.dealias_cutoff kc = ceil(n/3);
  Grid.dealias_mask, the kept index ranges and the line blocks below
  derive from it.  One loop, _c2c_passes, runs the c2c passes of every
  transform over a per-axis table of line blocks: one whole-array block,
  or Grid.box_lines, which skips the lines known to be zero, with the
  values of the full passes, for _forward(x, dealiased=True) (equal to
  _forward(x) * dealias_mask) and for the inverse of a stack that is zero
  outside the box (_box_supported).  rfft and irfft run over every row.
  The kernel scans u and tau once and hands the verdict to their
  derivative stacks.
- Columns k_last = 0 and k_last = -n/2 contain both k and -k, so only they
  can break Hermitian symmetry; _check_hermitian checks them and nothing
  else.  _unchecked_inverse runs the passes of _inverse without it, for
  stacks derived from a checked source, which keep its symmetry.
- All L2 / Sobolev quantities carry the explicit (2pi)^d domain factor,
  e.g. ||f||_L2^2 = (2pi)^d sum_k |fhat(k)|^2 over the whole lattice.  On
  the half layout each interior last-axis column stands for itself and its
  mirror, so it counts twice; columns 0 and n/2 count once.  The cached
  Sobolev weights carry this multiplicity.
- Derivative multipliers i*k_j have every Nyquist entry zeroed so that odd
  multipliers map real fields to real fields.
- The Leray projector uses the integer lattice with Nyquist = -n/2 on every
  axis and leaves the k = 0 mode untouched.
- Dealiasing zeroes every coefficient with any |k_i| >= n/3, i.e. >= kc
  (strict at the boundary, so quadratic products are alias-free for every
  even n).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

TWO_PI = 2.0 * np.pi

# Pair orderings for triangular tensor storage, keyed by dimension.
SYM_PAIRS = {2: ((0, 0), (0, 1), (1, 1)),
             3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))}

HERMITIAN_TOL = 1e-12  # _check_hermitian's bound is it * (1 + max |samples|)


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
        """i*k_j per axis with the Nyquist entry zeroed (odd multiplier).

        Each is a dense spectral_shape array, not a broadcast row: a
        product with a coefficient array then runs without broadcasting.
        """
        out = []
        for axis in range(self.d):
            k = self.wavenumbers[axis].copy()
            k[np.abs(k) == self.n // 2] = 0
            out.append(np.broadcast_to(1j * k.astype(np.float64),
                                       self.spectral_shape).copy())
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

    @property
    def dealias_cutoff(self) -> int:
        """kc = ceil(n/3): the 2/3 rule keeps the modes with every |k_i| < kc."""
        return -(-self.n // 3)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask of the 2/3 rule: True where all |k_i| < kc."""
        mask = np.ones(self.spectral_shape, dtype=bool)
        for k in self.wavenumbers:
            mask = mask & (np.abs(k) < self.dealias_cutoff)
        return mask

    @cached_property
    def kept_ranges(self) -> Tuple[Tuple[slice, slice], slice]:
        """Index ranges of the 2/3 box: (leading, last).

        A leading axis keeps the indices 0 .. kc-1 and n-kc+1 .. n-1
        (wavenumbers -(kc-1) .. kc-1), the last axis the columns 0 .. kc-1.
        """
        kc = self.dealias_cutoff
        return (slice(0, kc), slice(self.n - kc + 1, self.n)), slice(0, kc)

    @cached_property
    def box_lines(self) -> Tuple[Tuple[Tuple[slice, ...], ...], ...]:
        """Per leading axis a, the index blocks of the c2c lines along a
        that can be nonzero for a field supported in the 2/3 box.

        Whichever way the transform runs, a pass over axis a comes after
        the axes before a are physical and while the axes after it are
        still spectral: its lines cover every index of the former and the
        kept ranges of the latter.  Each block indexes an array whose
        trailing d axes are the grid.
        """
        lead, last = self.kept_ranges
        return tuple(
            tuple((Ellipsis,) + (slice(None),) * (a + 1) + tail + (last,)
                  for tail in itertools.product(lead, repeat=self.d - 2 - a))
            for a in range(self.d - 1))

    @cached_property
    def outside_box(self) -> Tuple[Tuple[slice, ...], ...]:
        """Index blocks that together cover every mode outside the 2/3 box:
        the columns from kc on, then, per leading axis, its indices kc ..
        n-kc within the kept columns."""
        lead, last = self.kept_ranges
        mid = slice(lead[0].stop, lead[1].start)
        return ((Ellipsis, slice(last.stop, None)),) + tuple(
            (Ellipsis, mid) + (slice(None),) * (self.d - 2 - a) + (last,)
            for a in range(self.d - 1))

    @cached_property
    def _weight_cache(self) -> dict:
        return {}

    def sobolev_weight(self, sigma: float) -> np.ndarray:
        """(1 + |k|^2)^sigma times the column multiplicity of the half
        layout (2 for interior last-axis columns, 1 for columns 0 and n/2)."""
        key = float(sigma)
        cached = self._weight_cache.get(key)
        if cached is not None:
            return cached
        w = (1.0 + self.k_squared.astype(np.float64)) ** sigma
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


def _c2c_passes(fft, src: np.ndarray, dst: np.ndarray, grid: Grid,
                pruned: bool, order: Sequence[int]) -> None:
    """The fft or ifft passes over the leading grid axes a in order, each
    over the line blocks of Grid.box_lines[a] if pruned, else over the
    whole array; the first reads src, and each writes dst."""
    lines = grid.box_lines if pruned else ((Ellipsis,),) * (grid.d - 1)
    for a in order:
        for block in lines[a]:
            fft(src[block], axis=grid.axes[a], norm="forward", out=dst[block])
        src = dst


def _forward(values: np.ndarray, grid: Grid,
             dealiased: bool = False) -> np.ndarray:
    """Real samples (trailing grid axes) -> half-layout coefficients, equal
    to rfftn's bit for bit (see the module docstring).  dealiased gives
    them times grid.dealias_mask, with no fft pass over a line that the
    mask discards (Grid.box_lines) and 0 set outside the 2/3 box."""
    values = np.asarray(values)
    if values.shape[-grid.d:] != grid.shape:
        raise GridMismatchError(
            f"sample shape {values.shape} does not end in {grid.shape}")
    out = np.fft.rfft(values, axis=-1, norm="forward")
    _c2c_passes(np.fft.fft, out, out, grid, dealiased,
                range(grid.d - 2, -1, -1))
    if dealiased:
        for block in grid.outside_box:
            out[block] = 0
    return out


def _box_supported(coeffs: np.ndarray, grid: Grid) -> bool:
    """True when every coefficient outside the 2/3 box is zero.

    Such a stack, and every derivative i k_j c of it, can take the pruned
    passes of _unchecked_inverse.
    """
    return not any(np.any(coeffs[block]) for block in grid.outside_box)


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


def _check_hermitian(coeffs: np.ndarray, grid: Grid) -> None:
    """Raise HermitianSymmetryError if the residue of coeffs exceeds
    HERMITIAN_TOL * (1 + max |samples|), samples being their inverse.

    The irfft pass would silently drop the anti-Hermitian part of the
    columns 0 and n/2, so those columns are scanned, at O(n^(d-1)) cost.
    The bound is at least HERMITIAN_TOL, so the samples are only inverted
    when the residue exceeds it.
    """
    residue = _hermitian_residue(coeffs, grid)
    if residue > HERMITIAN_TOL:
        scale = float(np.max(np.abs(_unchecked_inverse(coeffs, grid, False))))
        if residue > HERMITIAN_TOL * (1.0 + scale):
            raise HermitianSymmetryError(
                f"imaginary residue {residue:.3e} exceeds tolerance "
                f"{HERMITIAN_TOL:.1e} * (1 + {scale:.3e})")


def _inverse(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-layout coefficients -> real samples, equal to irfftn's bit for
    bit (see the module docstring); rejects non-Hermitian input."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-grid.d:] != grid.spectral_shape:
        raise GridMismatchError(
            f"coefficient shape {coeffs.shape} does not end in "
            f"{grid.spectral_shape}")
    _check_hermitian(coeffs, grid)
    return _unchecked_inverse(coeffs, grid, _box_supported(coeffs, grid))


def _unchecked_inverse(coeffs: np.ndarray, grid: Grid, boxed: bool,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """The passes of _inverse without its Hermitian check, into out if given.

    For derivative stacks: i k_j c is Hermitian wherever c is, so a stack
    built from a source that _check_hermitian passed needs no scan of its
    own.  boxed is the _box_supported verdict on coeffs; a derivative stack
    takes the verdict of its source, as i k_j c is zero wherever c is.  For
    a supported stack the ifft passes cover only the lines that can be
    nonzero (Grid.box_lines), in a zeroed work buffer, which skips lines
    that would transform zeros into zeros.
    """
    # the first pass writes the work buffer, so coeffs is never written to
    work = (np.zeros if boxed else np.empty)(coeffs.shape, dtype=np.complex128)
    _c2c_passes(np.fft.ifft, coeffs, work, grid, boxed, range(grid.d - 1))
    return np.fft.irfft(work, n=grid.n, axis=-1, norm="forward", out=out)


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


def sobolev_inner_product(f: Field, g: Field, sigma: float) -> float:
    """(2pi)^d sum_k (1 + |k|^2)^sigma Re <fhat, conj(ghat)>, summed
    componentwise.

    The sum runs over the whole lattice: each stored interior last-axis
    column counts for itself and its mirror (see Grid.sobolev_weight).
    Tensor components are weighted with their mirror multiplicity, so the
    pairing is the full Frobenius one.  The reduction is numpy's pairwise
    sum in a fixed order, independent of any threading.
    """
    _check_compatible(f, g)
    w = f.grid.sobolev_weight(sigma)
    total = 0.0
    for (fc, mult), (gc, _) in zip(f._pairs(), g._pairs()):
        total += mult * float(np.sum(w * (fc.real * gc.real + fc.imag * gc.imag)))
    return (TWO_PI ** f.grid.d) * total


def sobolev_norm(f: Field, sigma: float) -> float:
    """Sobolev norm induced by sobolev_inner_product (clipped at zero)."""
    return float(np.sqrt(max(sobolev_inner_product(f, f, sigma), 0.0)))


def l2_inner_product(f: Field, g: Field) -> float:
    return sobolev_inner_product(f, g, 0.0)


def l2_norm(f: Field) -> float:
    return sobolev_norm(f, 0.0)
