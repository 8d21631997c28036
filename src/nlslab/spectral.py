"""Periodic spectral grids, sampled complex fields, and Fourier multipliers.

The spatial domain is the box [-L, L)^d with periodic continuation, sampled
on n points per axis (n a power of two).  The wavenumber lattice is then
k = pi*m/L for integer m in [-n/2, n/2), stored in FFT order.  Transforms
use the discrete-unitary normalization, so Parseval holds exactly with
respect to the rectangle-rule quadrature weight dx^d: this makes the L2
norm of a spectrum (measured with the same weight) equal to the L2 norm of
the field, with no hidden factors.

The Nyquist column m = -n/2 has no positive partner on the lattice.  Even
symbols (|k|^2, weights) keep it; odd symbols (i*k) zero it so that real
fields stay real under differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridSpec",
    "ComplexField",
    "FourierMultiplier",
    "make_grid",
    "transform",
    "apply_multiplier",
    "lp_norm",
    "field_from_function",
    "random_smooth_field",
    "k_squared_multiplier",
    "gradient_multiplier",
    "free_flow_multiplier",
    "derivative_weight_multiplier",
    "low_pass_multiplier",
    "free_evolve",
    "spectral_tail_fraction",
    "edge_mass_fraction",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on [-half_width, half_width)^d."""

    d: int
    n_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if not _is_power_of_two(self.n_per_axis) or self.n_per_axis < 8:
            raise ValueError(
                f"n_per_axis must be a power of two >= 8, got {self.n_per_axis}"
            )
        if not (self.half_width > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_per_axis

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    @property
    def shape(self) -> tuple:
        return (self.n_per_axis,) * self.d

    @property
    def size(self) -> int:
        return self.n_per_axis**self.d

    @cached_property
    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis, -L + j*dx."""
        x = -self.half_width + self.dx * np.arange(self.n_per_axis)
        x.flags.writeable = False
        return x

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Wavenumbers pi*m/L along one axis, FFT order."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_per_axis, d=self.dx)
        k.flags.writeable = False
        return k

    @cached_property
    def coords(self) -> tuple:
        """d coordinate arrays broadcast over the full lattice."""
        if self.d == 1:
            return (self.axis,)
        xx, yy = np.meshgrid(self.axis, self.axis, indexing="ij")
        xx.flags.writeable = False
        yy.flags.writeable = False
        return (xx, yy)

    @cached_property
    def k_coords(self) -> tuple:
        if self.d == 1:
            return (self.frequencies,)
        kx, ky = np.meshgrid(self.frequencies, self.frequencies, indexing="ij")
        kx.flags.writeable = False
        ky.flags.writeable = False
        return (kx, ky)

    def _axes(self, v: np.ndarray) -> tuple:
        """The axis vector v once per axis, shaped to broadcast against the
        lattice: what coords and k_coords hold, without a full array per
        axis, so the lattice tables below cost no mesh."""
        return tuple(v.reshape((-1,) + (1,) * (self.d - 1 - ax)) for ax in range(self.d))

    @cached_property
    def k_odd(self) -> tuple:
        """Wavenumbers of the odd symbol i*k_axis, unpaired Nyquist mode
        zeroed, one per axis, shaped to broadcast against the lattice."""
        k = self.frequencies.copy()
        k[self.n_per_axis // 2] = 0.0
        k.flags.writeable = False
        return self._axes(k)

    @cached_property
    def tail_mask(self) -> np.ndarray:
        """Modes in the spectral tail: any wavenumber component at least
        2/3 of the axis maximum in size."""
        k_edge = np.max(np.abs(self.frequencies))
        mask = np.zeros(self.shape, dtype=bool)
        for axis_k in self._axes(self.frequencies):
            mask |= np.abs(axis_k) >= (2.0 / 3.0) * k_edge
        mask.flags.writeable = False
        return mask

    def edge_mask(self, cells: int) -> np.ndarray:
        """Sites within `cells` lattice sites of the box boundary, kept per
        cells value."""
        mask = self._edge_masks.get(cells)
        if mask is None:
            margin = cells * self.dx
            mask = np.zeros(self.shape, dtype=bool)
            for x in self._axes(self.axis):
                mask |= (x >= self.half_width - margin) | (x < -self.half_width + margin)
            mask.flags.writeable = False
            self._edge_masks[cells] = mask
        return mask

    @cached_property
    def _edge_masks(self) -> dict:
        return {}

    @cached_property
    def _tail_positions(self) -> np.ndarray:
        """The flat C-order positions of tail_mask, which a stack's tail
        sums gather (_masked_row_sums)."""
        return _positions(self.tail_mask)

    def _edge_positions(self, cells: int) -> np.ndarray:
        """The flat C-order positions of edge_mask(cells), kept per cells
        value."""
        key = ("positions", cells)
        if key not in self._edge_masks:
            self._edge_masks[key] = _positions(self.edge_mask(cells))
        return self._edge_masks[key]

    @cached_property
    def k_squared(self) -> np.ndarray:
        k2 = sum(k**2 for k in self._axes(self.frequencies))
        k2.flags.writeable = False
        return k2

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| over the lattice (box coordinates, not periodic distance)."""
        r = np.sqrt(sum(x**2 for x in self._axes(self.axis)))
        r.flags.writeable = False
        return r


def _positions(mask: np.ndarray) -> np.ndarray:
    """The flat C-order positions of a mask's True entries.  They are left
    writeable: np.take copies indices it cannot write."""
    return np.flatnonzero(mask)


def make_grid(d: int, n_per_axis: int, half_width: float) -> GridSpec:
    return GridSpec(d, n_per_axis, half_width)


@dataclass(eq=False)
class ComplexField:
    """Complex samples over a grid.  Values are copied and frozen."""

    grid: GridSpec
    values: np.ndarray
    allow_nonfinite: bool = field(default=False, repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not self.allow_nonfinite and not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite samples")
        vals.flags.writeable = False
        self.values = vals


@dataclass(eq=False)
class FourierMultiplier:
    """Diagonal operator in the Fourier basis: symbol sampled on the k lattice."""

    grid: GridSpec
    symbol: np.ndarray

    def __post_init__(self):
        sym = np.array(self.symbol, dtype=np.complex128, copy=True)
        if sym.shape != self.grid.shape:
            raise ValueError(
                f"symbol shape {sym.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(sym)):
            raise ValueError("multiplier symbol contains non-finite entries")
        sym.flags.writeable = False
        self.symbol = sym


def k_squared_multiplier(grid: GridSpec) -> FourierMultiplier:
    return FourierMultiplier(grid, grid.k_squared)


def gradient_multiplier(grid: GridSpec, axis: int) -> FourierMultiplier:
    """i*k_axis with the unpaired Nyquist mode zeroed (odd symbol)."""
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for d={grid.d}")
    sym = np.broadcast_to(1j * grid.k_odd[axis], grid.shape)
    return FourierMultiplier(grid, sym)


def free_flow_multiplier(grid: GridSpec, t: float) -> FourierMultiplier:
    """Symbol of the free propagator over time t: exp(-i*t*|k|^2)."""
    return FourierMultiplier(grid, _free_flow_symbol(grid, t))


def _free_flow_symbol(grid: GridSpec, t: float, out: np.ndarray | None = None) -> np.ndarray:
    """np.exp(-1j * t * grid.k_squared), bitwise, into out (complex, the
    grid's shape; a new array when None).  |k|^2 + 0j, the operand numpy
    casts |k|^2 to, is written into out first, so no cast buffer is
    allocated."""
    sym = np.empty(grid.shape, dtype=np.complex128) if out is None else out
    sym.real = grid.k_squared
    sym.imag = 0.0
    np.multiply(-1j * t, sym, out=sym)
    return np.exp(sym, out=sym)


def derivative_weight_multiplier(grid: GridSpec, s: float) -> FourierMultiplier:
    """Inhomogeneous derivative weight with symbol 1 + |k|^s."""
    kk = np.sqrt(grid.k_squared)
    return FourierMultiplier(grid, 1.0 + kk**s)


def low_pass_multiplier(grid: GridSpec, radius: float) -> FourierMultiplier:
    """Sharp cutoff onto |k| <= radius (Euclidean)."""
    if radius < 0:
        raise ValueError("cutoff radius must be nonnegative")
    sym = (grid.k_squared <= radius**2).astype(np.complex128)
    return FourierMultiplier(grid, sym)


# -- transforms ---------------------------------------------------------------

def _transform(fn, src, out, rank=None):
    """fn (np.fft.fft or np.fft.ifft) along the last rank axes of src (every
    axis when None), into out.

    One axis at a time through numpy.fft's out= (numpy 2.0 or later), last
    axis first, the order in which fftn and ifftn visit them, so it is
    their arithmetic bit for bit without their per-call argument handling
    or a new array per axis.  Leading axes beyond rank index separate
    fields, each transformed as fftn would transform it alone.  out may be
    src.
    """
    first = 0 if rank is None else src.ndim - rank
    for axis in range(src.ndim - 1, first - 1, -1):
        fn(src, axis=axis, out=out)
        src = out
    return out


def _inverse_values(values: np.ndarray) -> np.ndarray:
    out = _transform(np.fft.ifft, values, np.empty_like(values))
    out *= np.sqrt(values.size)
    return out


def transform(f: ComplexField, direction: str = "forward") -> ComplexField:
    """Unitary DFT of a field; 'inverse' undoes 'forward' exactly."""
    if direction == "forward":
        out = _transform(np.fft.fft, f.values, np.empty_like(f.values))
        out /= np.sqrt(f.values.size)
    elif direction == "inverse":
        out = _inverse_values(f.values)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return ComplexField(f.grid, out, allow_nonfinite=f.allow_nonfinite)


def _grid_view(storage: np.ndarray, rank=None) -> np.ndarray:
    """The fields held in storage whose last rank axes (every axis when
    None) span a square grid: in 2-D the last axis may run past the grid
    into pad elements, and the view stops at the grid's n."""
    rank = storage.ndim if rank is None else rank
    return storage[..., :storage.shape[-2]] if rank == 2 else storage


# a 1-D line of at least this many points takes the four-step transform
# (see _split)
_SPLIT_POINTS = 8192

# a stack's storage pads each row of a split line's (n2, n1) matrix by
# this many elements, as it pads 2-D rows by propagator._PAD (see
# propagator's module docstring).  Measured on the demo's n = 8192 E1
# p = 7 step, rotation and free flow (100 interleaved process-time rounds
# of 20 steps, 2-core Xeon, numpy 2.4.6): against unpadded rows, pad 1
# took x0.957 and x0.931 of the time, pad 2 x0.953 and x0.926, pad 4
# x0.973 and x0.956, pad 8 x0.979 and x0.965; pad 2 against pad 8 x0.950
# (faster in 86 of 100), pad 1 against 2 x0.998 (52 of 100), pad 4
# against 2 x1.018 (28 of 100).  The column transforms gain alike from 1
# to 8; past them, the elementwise ops over the pads cost more.
_SPLIT_PAD = 2


def _split(shape, rank=None):
    """(n2, n1) when the fields of this shape, over its last rank axes
    (every axis when None), are 1-D lines of n = n1 n2 points that
    _apply_symbol transforms as (n2, n1) matrices, by the four-step FFT
    (Bailey, "FFTs in external or hierarchical memory", J. Supercomputing
    4, 1990); None for every other field, which keeps the plain transforms.
    The shape is the natural one, though a stack's storage holds such a
    line as its matrix with padded rows (propagator._storage_shape).

    A line splits from _SPLIT_POINTS points, with n1 = 2^floor(log2(n)/2),
    when n1 and n2 = n / n1 are whole and at least 32 each (a power of two
    from 8192 up gives 64 and more).  That is the measured crossover (one
    line's free flow, fft, symbol, ifft, split against plain; 30
    interleaved process-time pairs each, 2-core Xeon, numpy 2.4.6): the
    split took x0.973 of the plain time at n = 4096 (faster in 25 of 30
    pairs), x0.829 at 8192 (29 of 30) and x0.514 at 16384 (30 of 30).
    numpy's pocketfft transforms a batch of short lines far faster per
    point than one long line.  On the stacks a threshold sweep marches,
    (4, 1024) and (2, 2048), the split took x1.59 and x1.52 (0 of 30
    faster), and those lines are short.
    """
    if (len(shape) if rank is None else rank) != 1 or shape[-1] < _SPLIT_POINTS:
        return None
    n = shape[-1]
    n1 = 1 << (n.bit_length() - 1) // 2
    n2 = n // n1
    return (n2, n1) if n1 * n2 == n and min(n1, n2) >= 32 else None


@lru_cache(maxsize=4)
def _twiddles(n2: int, n1: int) -> tuple:
    """The twiddle factors exp(-2 pi i b c / n) at [c, b] of an (n2, n1)
    split (_split), n = n1 n2, and their conjugates, read-only, kept per
    split; each row is padded by _SPLIT_PAD zeros, as a stack's storage
    pads it, and a matrix of narrower rows, a natural line's, reads the
    [:, :width] view."""
    angle = np.arange(n2).reshape(-1, 1) * np.arange(n1) * (-2.0 * np.pi / (n1 * n2))
    tw = np.zeros((n2, n1 + _SPLIT_PAD), dtype=np.complex128)
    np.cos(angle, out=tw.real[:, :n1])
    np.sin(angle, out=tw.imag[:, :n1])
    conj = np.conj(tw)
    tw.flags.writeable = conj.flags.writeable = False
    return tw, conj


def _storage_order(symbol: np.ndarray, rank=None, out: np.ndarray | None = None) -> np.ndarray:
    """A symbol in natural FFT order over the fields of its shape (last rank
    axes, every axis when None) in the order _apply_symbol takes it: for
    split lines (_split) the transposed order the four-step transform
    leaves a spectrum in, mode c + n2 d at [c, d] of each line's (n2, n1)
    matrix; every other symbol's order is its natural one.  Into out when
    given (symbol's shape, C-contiguous, or a split line's (..., n2, n1)
    matrices, padded storage's view included); else symbol itself, or a
    new array for split lines."""
    split = _split(symbol.shape, rank)
    if split is None:
        if out is None:
            return symbol
        out[...] = symbol
        return out
    out = np.empty(symbol.shape, dtype=np.complex128) if out is None else out
    lead = symbol.shape[:-1]
    out.reshape(lead + split)[...] = np.swapaxes(symbol.reshape(lead + split[::-1]), -1, -2)
    return out


def _apply_symbol(values: np.ndarray, symbol: np.ndarray, out: np.ndarray | None = None,
                  rank=None, split=None):
    """np.fft.ifftn(np.multiply(symbol, np.fft.fftn(values))), into out (a
    new array when None; it may be values, not symbol).  The transforms run
    over the last rank axes, as in _transform: a stack of fields, (flights,
    *grid), takes each row's symbol from a (flights, *grid) symbol.

    values, symbol and out are storage of one layout: 2-D rows may carry
    pad elements past the grid (_grid_view), and the transforms run on
    the grid's view of them while the product runs over the whole
    storage, so the pads of values and out must hold 0 and those of
    symbol be finite; the pads of out then hold 0 on return.  The symbol
    is in storage order (_storage_order): for split 1-D lines (_split),
    the transposed spectrum order, which the four-step transform reaches
    and leaves with no reordering pass.

    Given split, (n2, n1), the storage holds each split line as its
    matrix with padded rows, (..., n2, n1 + pad), the symbol's pads 0 as
    well; without it, natural-order lines, (..., n), which _split finds
    from the shape, are read as the matrices of pad 0.  Both take the one
    four-step routine, _split_fft and _split_ifft.

    This is the one free-flow and multiplier product: the stepping kernel,
    free_evolve, apply_multiplier, the proxy's pullbacks and
    spectral_translate all call it.  On every field that does not split it
    is the expression above bitwise; numpy's complex product is not
    bitwise commutative, so the symbol is always the left operand.  On a
    split line it agrees to rounding, padded or not, to the same bits.
    """
    spec = m = np.zeros_like(values) if out is None else out
    if split is None and (split := _split(values.shape, rank)) is not None:
        # natural-order lines: the matrices of pad 0
        shape = values.shape[:-1] + split
        values, symbol, m = values.reshape(shape), symbol.reshape(shape), spec.reshape(shape)
    if split is not None:
        # the product in the symbol's transposed order
        _split_fft(values, m, split[1])
        np.multiply(symbol, m, out=m)
        _split_ifft(m, split[1])
        return spec
    view = _grid_view(spec, rank)
    _transform(np.fft.fft, _grid_view(values, rank), view, rank)
    np.multiply(symbol, spec, out=spec)
    _transform(np.fft.ifft, view, view, rank)
    return spec


def _split_fft(values, out, n1):
    """np.fft.fft of each split line of values, into out (it may be
    values), in transposed order; both hold lines as (..., n2, width)
    matrices, A[a, b] = u[a n1 + b], rows padded past n1 with 0.  The
    column transforms, the twiddles and the row transforms leave mode
    k = c + n2 d at [c, d].  The transforms run on the [..., :n1] view, the
    twiddle product over whole rows, so the pads stay 0.  Each flight of a
    stack takes its columns' and rows' bits alone, whatever the width
    (tests/test_propagator.py checks this premise).  Returns out."""
    cols = out[..., :n1]
    np.fft.fft(values[..., :n1], axis=-2, out=cols)
    np.multiply(out, _twiddles(out.shape[-2], n1)[0][:, :out.shape[-1]], out=out)
    np.fft.fft(cols, axis=-1, out=cols)
    return out


def _split_ifft(m, n1):
    """The inverse of _split_fft in place on its (..., n2, width) matrices
    m: the row inverses, the conjugate twiddles and the column inverses
    bring each line back to natural order."""
    cols = m[..., :n1]
    np.fft.ifft(cols, axis=-1, out=cols)
    np.multiply(m, _twiddles(m.shape[-2], n1)[1][:, :m.shape[-1]], out=m)
    np.fft.ifft(cols, axis=-2, out=cols)
    return m


def apply_multiplier(f: ComplexField, m: FourierMultiplier) -> ComplexField:
    if f.grid != m.grid:
        raise ValueError("field and multiplier live on different grids")
    return ComplexField(f.grid, _apply_symbol(f.values, _storage_order(m.symbol)))


def free_evolve(f: ComplexField, t: float) -> ComplexField:
    """exp(i*t*Laplacian) applied spectrally."""
    return apply_multiplier(f, free_flow_multiplier(f.grid, t))


# -- norms --------------------------------------------------------------------

def lp_norm(f: ComplexField, q: float) -> float:
    """Rectangle-rule L^q norm, (sum |f|^q dx^d)^(1/q)."""
    if q < 1:
        raise ValueError(f"lp_norm requires q >= 1, got {q}")
    return _lp_norm(f.values, q, f.grid.cell_volume)


def _lp_norm(values: np.ndarray, q: float, cell_volume: float,
             out: np.ndarray | None = None) -> float:
    """lp_norm of the samples values; |values|^q goes into out (float64,
    values' shape; a new array when None)."""
    a = np.abs(values, out=out)
    a **= q
    return float(np.sum(a) * cell_volume) ** (1.0 / q)


# -- constructors and lattice diagnostics ------------------------------------

def field_from_function(grid: GridSpec, fn) -> ComplexField:
    return ComplexField(grid, np.asarray(fn(*grid.coords), dtype=np.complex128))


def random_smooth_field(
    grid: GridSpec, seed: int, k_width: float = 2.0, amplitude: float = 1.0
) -> ComplexField:
    """Random field with Gaussian-envelope spectrum, deterministic in seed."""
    rng = np.random.default_rng(seed)
    spec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    spec *= np.exp(-grid.k_squared / (2.0 * k_width**2))
    vals = _inverse_values(spec)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals *= amplitude / peak
    # damp the box edge so periodic wrap artifacts stay tiny
    r = grid.radius
    vals *= np.exp(-((r / (0.7 * grid.half_width)) ** 8))
    return ComplexField(grid, vals)


def spectral_tail_fraction(f: ComplexField) -> float:
    """Fraction of spectral mass carried by the top third of frequencies.

    'Top third' is measured per axis: a mode belongs to the tail when any
    of its wavenumber components exceeds 2/3 of the axis maximum.
    This is _tail_fractions on a stack of one.
    """
    x = f.values[np.newaxis]
    scratch = _scratch(x.shape)
    return float(_tail_fractions(_spectrum(x, scratch), f.grid, scratch)[0])


def edge_mass_fraction(f: ComplexField, cells: int = 4) -> float:
    """Mass fraction within `cells` lattice sites of the box boundary.
    This is _edge_fractions on a stack of one."""
    dens = (np.abs(f.values) ** 2)[np.newaxis]
    return float(_edge_fractions(dens, _row_sums(dens), f.grid, [cells])[0])


# -- the monitors over a stack of fields, (flights, *grid) ---------------------
# Each row's reduction runs over its own contiguous samples, so it is
# bitwise the row's lone np.sum: a masked gather is taken in C order by
# np.take at the mask's cached positions, since a boolean index over the
# trailing axes of a stack returns a Fortran-ordered array whose row sums
# take other bits.

class _Scratch(NamedTuple):
    """A record's buffers for a stack of fields, (flights, *grid), each
    C-contiguous, as the row sums need: the spectrum, a complex block
    whose float storage also serves as two float arrays (halves), and one
    float array more.  Every monitor below writes its |.|, products and
    powers into them, so a record allocates no grid-sized array."""

    spectrum: np.ndarray
    block: np.ndarray
    spare: np.ndarray

    @property
    def halves(self) -> np.ndarray:
        return self.block.view(np.float64).reshape((2,) + self.spare.shape)


def _scratch(shape, spectrum=None, block=None, spare=None) -> _Scratch:
    """_Scratch for a stack of the given shape, (flights, *grid), over the
    leading elements of the flat arrays given (complex, float64 of twice
    the stack's size, float64), or new ones where None."""
    size = int(np.prod(shape))
    spectrum = np.empty(size, dtype=np.complex128) if spectrum is None else spectrum
    block = np.empty(2 * size) if block is None else block
    spare = np.empty(size) if spare is None else spare
    return _Scratch(spectrum[:size].reshape(shape),
                    block[:2 * size].view(np.complex128).reshape(shape),
                    spare[:size].reshape(shape))


def _spectrum(x: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """The per-field np.fft.fftn of a stack x, (flights, *grid), bitwise,
    into scratch.spectrum."""
    return _transform(np.fft.fft, x, scratch.spectrum, x.ndim - 1)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """np.sum of each row of a stack x, (flights, *grid), over its grid axes."""
    return np.sum(x.reshape(len(x), -1), axis=-1)


def _masked_row_sums(x: np.ndarray, positions: np.ndarray, into=None) -> np.ndarray:
    """np.sum(x[i][mask]) for each row i of a stack x, given the flat
    C-order positions of the mask (_positions); the gather goes into the
    leading elements of the contiguous float array into (a new array when
    None), which must not overlap x."""
    out = None if into is None else (
        into.reshape(-1)[:len(x) * len(positions)].reshape(len(x), -1))
    # every position is in range, so "clip" clips nothing; unlike "raise"
    # it lets np.take write into out without a copy of it
    return _row_sums(np.take(x.reshape(len(x), -1), positions, axis=1, out=out, mode="clip"))


def _fractions(part: np.ndarray, total: np.ndarray) -> np.ndarray:
    """part / total per row, 0 where total is 0."""
    return np.divide(part, total, out=np.zeros_like(total), where=total != 0.0)


def _tail_fractions(spectrum: np.ndarray, grid: GridSpec, scratch: _Scratch) -> np.ndarray:
    """spectral_tail_fraction of each field of a stack, from the stack's
    per-field np.fft.fftn; |spectrum|^2 goes into scratch.spare and the
    gather into scratch.block."""
    power = np.abs(spectrum, out=scratch.spare)
    np.multiply(power, power, out=power)
    return _fractions(_masked_row_sums(power, grid._tail_positions, scratch.halves),
                      _row_sums(power))


def _edge_fractions(density: np.ndarray, totals: np.ndarray, grid: GridSpec,
                    cells, into=None) -> np.ndarray:
    """edge_mass_fraction of each field of a stack, from the stack's
    |u|^2 and its row sums; row i's band is cells[i] sites deep.  Each
    band's gather goes into into, as in _masked_row_sums."""
    bands = {c: _masked_row_sums(density, grid._edge_positions(c), into) for c in set(cells)}
    return _fractions(np.array([bands[c][row] for row, c in enumerate(cells)]), totals)
