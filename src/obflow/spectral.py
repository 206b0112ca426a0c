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
  axis, last to first; _inverse is ifft over the first axis into a work
  buffer (the coefficients are never written to), ifft in place over any
  further leading axis, then irfft over the last axis.
- The 2/3 rule is stated once, as Grid.dealias_cutoff kc = ceil(n/3);
  Grid.dealias_mask and the box table derive from it.  A SupportTable says
  where coefficients can be nonzero (see its docstring): the box table
  (Grid.support_table(True)) the 2/3 box, whose compact layout
  (2kc-1,)*(d-1) + (kc,) is 28% of the half layout at 3D n=32 and 45% in
  2D, the whole table (Grid.support_table(False)) the half layout.  A
  state that is zero outside the box (_box_supported) stays so;
  model._state_table, the one place that chooses a table, scans it once
  per model.tendency call or record, and the kernel's spectral
  products, the projections, the stage algebra and a record's sums run on
  its compact coefficients.  So a record's sums agree with half-layout
  sums to round-off, not bit for bit: np.sum's pairwise order depends on
  the length of the array.  One loop, _c2c_passes, runs the c2c passes of
  every transform over the table's line blocks, which on the box skip the
  lines known to be zero, with the values of the full passes.
  _forward(x, dealiased=True) passes over the lines the 2/3 rule keeps and
  gathers the box (the values of _forward(x) * dealias_mask).  _inverse,
  behind every to_physical, runs on the whole table.  rfft and irfft run
  over every row.
- Columns k_last = 0 and k_last = -n/2 contain both k and -k, so only they
  can break Hermitian symmetry; _check_hermitian checks them and nothing
  else, and on the box table column 0 only, as column n/2 lies outside the
  box.  _inverse (to_physical) checks its input, and model._evaluate a
  state's u and tau where they enter the kernel; every later inverse is
  _unchecked_inverse, as derivative stacks and step's later stage inputs
  keep the symmetry of the checked arrays they are built from.
- All L2 / Sobolev quantities carry the explicit (2pi)^d domain factor,
  e.g. ||f||_L2^2 = (2pi)^d sum_k |fhat(k)|^2 over the whole lattice.  On
  the half layout each interior last-axis column stands for itself and its
  mirror, so it counts twice; columns 0 and n/2 count once.  The cached
  Sobolev weights carry this multiplicity.
- Each SupportTable builds the multipliers of the slots it keeps on its
  compact layout (Grid holds geometry only).  Derivative multipliers
  i*k~_j zero every Nyquist entry of k, so that odd multipliers map real
  fields to real fields.
- SupportTable.batched, from the grid alone, is the kernel's inversion
  plan: its one source stack whole in the table's workspace, inverted in
  one call, or a group per call.
- The Leray projector reads the derivative multipliers' k~ and |k~|^2
  (no copy of its own): it is the orthogonal projector onto the kernel
  of divergence, even in k, and leaves the slots with k~ = 0 (k = 0
  among them) untouched.
- Dealiasing zeroes every coefficient with any |k_i| >= n/3, i.e. >= kc
  (strict at the boundary, so quadratic products are alias-free for every
  even n).
"""

from __future__ import annotations

import collections
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
# Frobenius multiplicity of each pair: (i, j) and (j, i) for i != j
PAIR_WEIGHTS = {d: tuple(1.0 if i == j else 2.0 for i, j in pairs)
                for d, pairs in SYM_PAIRS.items()}

HERMITIAN_TOL = 1e-12  # _check_hermitian's bound is it * (1 + max |samples|)

# The work done in this process, added to where it happens: transform calls
# and components (the size of the leading axes), projections, Hermitian
# scans, kernel evaluations and records; every key is there from the start.
COUNTS = collections.Counter(dict.fromkeys(
    "inverse_calls inverse_components forward_calls forward_components "
    "projections scans evaluations records".split(), 0))


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

    A Grid holds geometry only; its SupportTables (support_table) own the
    wavenumbers, multipliers and weights.

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

    @property
    def dealias_cutoff(self) -> int:
        """kc = ceil(n/3): the 2/3 rule keeps the modes with every |k_i| < kc."""
        return -(-self.n // 3)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask of the 2/3 rule, True on the box table's
        slots: where all |k_i| < kc."""
        box = self.support_table(True)
        return box.scatter(np.ones(box.shape, dtype=bool))

    @cached_property
    def _support_tables(self) -> dict:
        return {}

    def support_table(self, boxed: bool) -> "SupportTable":
        """The SupportTable of the 2/3 box (boxed) or of the half layout."""
        table = self._support_tables.get(boxed)
        if table is None:
            table = self._support_tables[boxed] = SupportTable(self, boxed)
        return table

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


class SupportTable:
    """Where the coefficients of a step or a record can be nonzero, and the
    one owner of the spectral multipliers and weights there (see the
    module docstring).

    Both tables are built from one description: the half-layout index
    ranges that a leading axis and the last axis keep.  The box table keeps
    0 .. kc-1 and n-kc+1 .. n-1 (wavenumbers -(kc-1) .. kc-1) on a leading
    axis and 0 .. kc-1 on the last, so its compact layout has the shape
    (2kc-1,)*(d-1) + (kc,), each of its 2^(d-1) blocks a contiguous copy
    of a block of the half layout.  The whole table keeps 0 .. n-1 and
    0 .. n/2: its compact layout is the half layout, and its gather and
    scatter are the identity.  From the ranges come the blocks, the c2c
    line blocks of _c2c_passes, the blocks outside the table that
    _box_supported scans, the mirrored columns, 0 and n/2, of which the
    box holds column 0 only, and the multipliers, built on the compact
    layout: the wavenumbers (index i holds i below n/2, else i - n), k^2,
    the derivative multipliers i k~_j (k~ is k with its Nyquist entries
    zeroed; a (d, *shape) stack), and, cached, their gradient_weight
    sum_j k~_j^2 and per exponent the Sobolev weights and fractional
    multipliers.  The Leray projector reads k~ (the imaginary parts of the
    derivative multipliers, a view) and sum_j k~_j^2 (leray_divisor, 1
    where it is 0).  batched decides the kernel's inversion plan (one
    call for its whole source stack, or one per group), and so whether its
    workspace buffers are shared from one evaluation to the next.
    """

    def __init__(self, grid: Grid, boxed: bool):
        n, kc = grid.n, grid.dealias_cutoff
        self.grid, self.boxed = grid, boxed
        lead, last = (((slice(0, kc), slice(n - kc + 1, n)), slice(0, kc))
                      if boxed else ((slice(0, n),), slice(0, n // 2 + 1)))
        sizes = [r.stop - r.start for r in lead]
        ends = list(itertools.accumulate(sizes))
        compact = [slice(end - size, end) for size, end in zip(sizes, ends)]
        self.shape = (ends[-1],) * (grid.d - 1) + (last.stop,)
        # (compact block, half-layout block) pairs
        self.blocks = tuple(
            ((Ellipsis,) + c + (slice(None),), (Ellipsis,) + h + (last,))
            for c, h in zip(itertools.product(compact, repeat=grid.d - 1),
                            itertools.product(lead, repeat=grid.d - 1)))
        # per leading axis a, the half-layout lines along a that can be
        # nonzero: a pass over a runs once the axes before a are physical
        # and while the axes after it are still spectral
        self.lines = tuple(
            tuple((Ellipsis,) + (slice(None),) * (a + 1) + tail + (last,)
                  for tail in itertools.product(lead, repeat=grid.d - 2 - a))
            for a in range(grid.d - 1))
        # blocks that cover every mode outside: the columns past the last
        # range, then per leading axis the indices between its ranges
        gap = slice(lead[0].stop, lead[-1].start)
        self.outside = ((Ellipsis, slice(last.stop, None)),) + tuple(
            (Ellipsis, gap) + (slice(None),) * (grid.d - 2 - a) + (last,)
            for a in range(grid.d - 1))
        self.mirrored_columns = slice(None, None, n // 2)
        # index -k of each leading index k
        self.reversal = -np.arange(ends[-1]) % ends[-1]
        # integer wavenumbers per axis, rows broadcast to d axes
        self.wavenumbers = tuple(
            ((np.r_[lead if axis < grid.d - 1 else last] + n // 2) % n
             - n // 2).reshape([-1 if a == axis else 1
                                for a in range(grid.d)])
            for axis in range(grid.d))
        self.k_squared = np.zeros(self.shape, dtype=np.int64)
        for k in self.wavenumbers:
            self.k_squared = self.k_squared + k * k
        # dense (d, *shape) stacks, so that one broadcast product with a
        # field's components builds all their derivatives
        self.derivative_multipliers = np.stack([
            np.broadcast_to(1j * np.where(np.abs(k) == n // 2, 0, k)
                            .astype(np.float64), self.shape)
            for k in self.wavenumbers])
        # the divisor sums the squares afresh, so that gradient_weight is
        # built only on a table whose records read it
        squares = sum(ik.imag ** 2 for ik in self.derivative_multipliers)
        self.leray_divisor = np.where(squares > 0, squares, 1.0)
        self._weights = {}
        self._workspace, self._views = {}, {}

    def gather(self, half: np.ndarray) -> np.ndarray:
        """The compact copy of half-layout arrays (the arrays themselves
        for the whole table)."""
        if not self.boxed:
            return half
        out = np.empty(half.shape[:half.ndim - self.grid.d] + self.shape,
                       dtype=half.dtype)
        for c, h in self.blocks:
            out[c] = half[h]
        return out

    def scatter(self, compact: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """Half-layout arrays, zero outside the table, from compact ones
        (the arrays themselves for the whole table); into out if given,
        every slot of which is written."""
        if not self.boxed:
            return compact
        if out is None:
            out = np.zeros(compact.shape[:compact.ndim - self.grid.d]
                           + self.grid.spectral_shape, dtype=compact.dtype)
        else:
            for block in self.outside:
                out[block] = 0.0
        for c, h in self.blocks:
            out[h] = compact[c]
        return out

    # the source stack takes 495 KiB at 2D n=64; from 2D n=96, and at 3D
    # n=16, whole stacks cost time and peak memory (ROADMAP item 8).  It
    # batches 2D n <= 72 and 3D n <= 12, as the bound of 384 KiB on tau's
    # m (d + 1) rows did
    _BATCH_BYTES = 640 << 10

    @cached_property
    def batched(self) -> bool:
        """Whether the kernel's source stack, (d + m)(d + 1) half-layout
        rows of 16 B, fits _BATCH_BYTES: the kernel then builds it whole on
        the workspace and inverts it in one call."""
        rows = (self.grid.d + len(SYM_PAIRS[self.grid.d])) * (self.grid.d + 1)
        nbytes = 16 * rows * math.prod(self.grid.spectral_shape)
        return nbytes <= self._BATCH_BYTES

    def workspace(self, name: str, shape: Tuple[int, ...],
                  dtype: type = np.float64) -> np.ndarray:
        """A buffer of shape and dtype on bytes that every call with the
        same name shares, and that grow when a call needs more: one
        evaluation's work, which the next call overwrites; a new array
        unless batched.  The views are cached until their name's bytes grow."""
        if not self.batched:
            return np.empty(shape, dtype=dtype)
        view = self._views.get((name, shape, dtype))
        if view is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            raw = self._workspace.get(name)
            if raw is None or raw.size < nbytes:
                raw = self._workspace[name] = np.empty(nbytes, dtype=np.uint8)
                self._views = {k: v for k, v in self._views.items()
                               if k[0] != name}
            view = self._views[name, shape, dtype] = \
                raw[:nbytes].view(dtype).reshape(shape)
        return view

    def fractional_multiplier(self, gamma: float) -> np.ndarray:
        """|k|^(2 gamma), cached; the k = 0 entry is 0 for gamma > 0 and 1
        for gamma = 0."""
        if gamma < 0:
            raise ValueError(f"fractional exponent must be >= 0, got {gamma}")
        key = ("fractional_multiplier", float(gamma))
        if key not in self._weights:
            if gamma == 0:
                m = np.ones(self.shape)
            else:
                m = self.k_squared.astype(np.float64) ** gamma
                m[self.k_squared == 0] = 0.0
            self._weights[key] = m
        return self._weights[key]

    @cached_property
    def gradient_weight(self) -> np.ndarray:
        """sum_j k~_j^2, cached when first asked for: only a record with a
        Sobolev index reads it."""
        return sum(ik.imag ** 2 for ik in self.derivative_multipliers)

    def sobolev_weight(self, sigma: float) -> np.ndarray:
        """(1 + |k|^2)^sigma times the column multiplicity of the half
        layout (2 for the interior last-axis columns 1 .. n/2-1, 1 for
        columns 0 and n/2), cached."""
        key = ("sobolev_weight", float(sigma))
        if key not in self._weights:
            w = (1.0 + self.k_squared.astype(np.float64)) ** sigma
            w[..., 1:self.grid.n // 2] *= 2.0
            self._weights[key] = w
        return self._weights[key]


def _c2c_passes(fft, src: np.ndarray, dst: np.ndarray, table: SupportTable,
                order: Sequence[int]) -> None:
    """The fft or ifft passes over the leading grid axes a in order, each
    over the line blocks table.lines[a]; the first reads src, and each
    writes dst."""
    for a in order:
        for block in table.lines[a]:
            fft(src[block], axis=table.grid.axes[a], norm="forward",
                out=dst[block])
        src = dst


def _forward(values: np.ndarray, grid: Grid, dealiased: bool = False,
             work: Optional[np.ndarray] = None) -> np.ndarray:
    """Real samples (trailing grid axes) -> half-layout coefficients, equal
    to rfftn's bit for bit (see the module docstring).  dealiased gives the
    coefficients in the 2/3 box instead, in the box table's compact layout,
    with no fft pass over a line that the 2/3 rule discards.  The passes run
    in work, a half-layout buffer, if given; the dealiased result is a new
    array either way."""
    values = np.asarray(values)
    if values.shape[-grid.d:] != grid.shape:
        raise GridMismatchError(
            f"sample shape {values.shape} does not end in {grid.shape}")
    table = grid.support_table(dealiased)
    COUNTS["forward_calls"] += 1
    COUNTS["forward_components"] += values.size // math.prod(grid.shape)
    out = np.fft.rfft(values, axis=-1, norm="forward", out=work)
    _c2c_passes(np.fft.fft, out, out, table, range(grid.d - 2, -1, -1))
    return table.gather(out)


def _box_supported(coeffs: np.ndarray, grid: Grid) -> bool:
    """True when every half-layout coefficient outside the 2/3 box is zero,
    so that the box table holds them all."""
    return not any(np.any(coeffs[block])
                   for block in grid.support_table(True).outside)


def _hermitian_residue(coeffs: np.ndarray, table: SupportTable) -> float:
    """max |c(k) - conj c(-k)| over the columns of compact coeffs that hold
    both k and -k: the last-axis columns 0 and n/2 of the half layout, of
    which only column 0 lies in the 2/3 box.

    Every other stored mode has its mirror outside the table, so this is
    the complete check.
    """
    COUNTS["scans"] += 1
    cols = coeffs[..., table.mirrored_columns]
    mirror = cols
    for axis in table.grid.axes[:-1]:
        mirror = np.take(mirror, table.reversal, axis=axis)
    return float(np.max(np.abs(cols - mirror.conj()))) if cols.size else 0.0


def _check_hermitian(coeffs: np.ndarray, table: SupportTable) -> None:
    """Raise HermitianSymmetryError if the residue of compact coeffs
    exceeds HERMITIAN_TOL * (1 + max |samples|), samples being their
    inverse.

    The irfft pass would silently drop the anti-Hermitian part of the
    columns 0 and n/2, so those columns are scanned, at O(n^(d-1)) cost.
    The bound is at least HERMITIAN_TOL, so the samples are only inverted
    when the residue exceeds it.
    """
    residue = _hermitian_residue(coeffs, table)
    if residue > HERMITIAN_TOL:
        scale = float(np.max(np.abs(_unchecked_inverse(coeffs, table))))
        if residue > HERMITIAN_TOL * (1.0 + scale):
            raise HermitianSymmetryError(
                f"imaginary residue {residue:.3e} exceeds tolerance "
                f"{HERMITIAN_TOL:.1e} * (1 + {scale:.3e})")


def _inverse(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-layout coefficients -> real samples, equal to irfftn's bit for
    bit (see the module docstring); rejects non-Hermitian input.  It runs
    on the whole table: only model._state_table chooses a table."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-grid.d:] != grid.spectral_shape:
        raise GridMismatchError(
            f"coefficient shape {coeffs.shape} does not end in "
            f"{grid.spectral_shape}")
    table = grid.support_table(False)
    _check_hermitian(coeffs, table)
    return _unchecked_inverse(coeffs, table)


def _unchecked_inverse(coeffs: np.ndarray, table: SupportTable,
                       out: Optional[np.ndarray] = None,
                       work: Optional[np.ndarray] = None) -> np.ndarray:
    """The passes of _inverse from compact coeffs, without its Hermitian
    check, into out if given.

    For a source that _check_hermitian passed, and for derivative stacks:
    i k_j c is Hermitian wherever c is, so a stack built from a checked
    source needs no scan of its own.  The box table scatters coeffs into a
    half-layout work buffer, zero outside the table, and runs the ifft
    passes in place over the lines that can be nonzero
    (SupportTable.lines); the whole table runs them over every line, the
    first into the work buffer, so coeffs is never written to.  The work
    buffer is work if given, else a new one.
    """
    COUNTS["inverse_calls"] += 1
    COUNTS["inverse_components"] += coeffs.size // math.prod(table.shape)
    if table.boxed:
        src = work = table.scatter(coeffs, work)
    else:
        src = coeffs
        if work is None:
            work = np.empty(coeffs.shape, dtype=np.complex128)
    _c2c_passes(np.fft.ifft, src, work, table, range(table.grid.d - 1))
    return np.fft.irfft(work, n=table.grid.n, axis=-1, norm="forward",
                        out=out)


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
        return zip(self.comps, PAIR_WEIGHTS[self.grid.d])


Field = Union[SpectralField, VectorField, TensorField]


def gradient(f: SpectralField) -> VectorField:
    """Spectral gradient; Nyquist modes of each derivative are zeroed."""
    return VectorField(f.grid, f.comps[None]
                       * f.grid.support_table(False).derivative_multipliers)


def divergence(field: Union[VectorField, TensorField]) -> Union[SpectralField, VectorField]:
    """Spectral divergence of a vector (-> scalar) or tensor (-> vector).

    For tensors, row i of the result is sum_j i k_j T_ij with T_ji = T_ij.
    """
    grid = field.grid
    table = grid.support_table(False)
    if isinstance(field, VectorField):
        return SpectralField(grid, np.sum(
            table.derivative_multipliers * field.comps, axis=0, initial=0.0))
    if isinstance(field, TensorField):
        return VectorField(grid, _tensor_divergence(field.comps, table))
    raise TypeError(f"divergence expects a vector or tensor field, got {type(field)}")


def fractional_laplacian(field: Field, gamma: float) -> Field:
    """Apply (-Laplacian)^gamma, i.e. the Fourier multiplier |k|^(2 gamma).

    The zero mode is annihilated for gamma > 0 and kept for gamma = 0;
    gamma < 0 is rejected.
    """
    mult = field.grid.support_table(False).fractional_multiplier(gamma)
    return field.with_comps(field.comps * mult)


def _tensor_divergence(comps: np.ndarray, table: SupportTable) -> np.ndarray:
    """Compact divergence of compact tensor comps: row i is sum_j i k_j T_ij
    with T_ji = T_ij, summed in ascending j."""
    ik = table.derivative_multipliers
    out = np.zeros((table.grid.d,) + table.shape, dtype=np.complex128)
    for m, (i, j) in enumerate(SYM_PAIRS[table.grid.d]):
        out[i] += ik[j] * comps[m]
        if i != j:
            out[j] += ik[i] * comps[m]
    return out


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields: vhat -> vhat - k~ (k~.vhat)/|k~|^2.

    k~ are the wavenumbers of divergence's multipliers, whose Nyquist
    entries are zero, so the result has zero divergence and keeps the
    Hermitian symmetry of v; a slot with k~ = 0 (k = 0, so the mean flow
    is preserved, or every component 0 or n/2) is left untouched.
    """
    return VectorField(v.grid, _leray(v.comps, v.grid.support_table(False)))


def _leray(comps: np.ndarray, table: SupportTable) -> np.ndarray:
    """leray_project of compact vector comps, in compact layout: k~.c
    summed from 0 in ascending j, then c - k~ factor, each a broadcast
    operation over k~, the imaginary parts of the table's derivative
    multipliers (a view, cast to complex in each product).  Real k~ keeps
    the sign of every zero; i k~ c times i would flip some where c holds
    -0, as random-band data do."""
    COUNTS["projections"] += 1
    k = table.derivative_multipliers.imag
    factor = np.sum(k * comps, axis=0, initial=0.0)
    np.divide(factor, table.leray_divisor, out=factor)
    factor[(0,) * table.grid.d] = 0.0
    out = np.multiply(k, factor)
    return np.subtract(comps, out, out=out)


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
    column counts for itself and its mirror (see SupportTable.sobolev_weight).
    Tensor components are weighted with their mirror multiplicity, so the
    pairing is the full Frobenius one.  The reduction is numpy's pairwise
    sum in a fixed order, independent of any threading.
    """
    _check_compatible(f, g)
    w = f.grid.support_table(False).sobolev_weight(sigma)
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
