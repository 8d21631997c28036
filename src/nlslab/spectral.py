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

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

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

    @property
    def coords(self) -> tuple:
        """The sample coordinates, axis once per axis, shaped to broadcast."""
        return self._axes(self.axis)

    @property
    def k_coords(self) -> tuple:
        """The wavenumbers, frequencies once per axis, shaped to broadcast."""
        return self._axes(self.frequencies)

    def _axes(self, v: np.ndarray) -> tuple:
        """The axis vector v once per axis, shaped (n, 1) then (n,) in 2-D,
        so that they broadcast against the lattice and no table or datum
        built from them needs a full array per axis."""
        return tuple(v.reshape((-1,) + (1,) * (self.d - 1 - ax)) for ax in range(self.d))

    @cached_property
    def k_odd(self) -> tuple:
        """Wavenumbers of the odd symbol i*k_axis, unpaired Nyquist mode
        zeroed, one per axis, shaped to broadcast against the lattice."""
        k = self.frequencies.copy()
        k[self.n_per_axis // 2] = 0.0
        k.flags.writeable = False
        return self._axes(k)

    @property
    def tail_mask(self) -> np.ndarray:
        """Modes in the spectral tail: any wavenumber component at least
        2/3 of the axis maximum in size.  Built on each call; a grid keeps
        only its positions (_tail_positions)."""
        k_edge = np.max(np.abs(self.frequencies))
        mask = np.zeros(self.shape, dtype=bool)
        for axis_k in self.k_coords:
            mask |= np.abs(axis_k) >= (2.0 / 3.0) * k_edge
        return mask

    def edge_mask(self, cells: int) -> np.ndarray:
        """Sites within `cells` lattice sites of the box boundary.  Built
        on each call; a grid keeps only its positions (_edge_positions)."""
        margin = cells * self.dx
        mask = np.zeros(self.shape, dtype=bool)
        for x in self.coords:
            mask |= (x >= self.half_width - margin) | (x < -self.half_width + margin)
        return mask

    @cached_property
    def _tail_positions(self) -> np.ndarray:
        """The flat C-order positions of tail_mask, which a stack's tail
        sums gather (_masked_row_sums).  Left writeable: np.take copies
        indices it cannot write."""
        return np.flatnonzero(self.tail_mask)

    def _edge_positions(self, cells: int) -> np.ndarray:
        """The flat C-order positions of edge_mask(cells), kept per cells
        value and left writeable, as _tail_positions."""
        if cells not in self._edge_bands:
            self._edge_bands[cells] = np.flatnonzero(self.edge_mask(cells))
        return self._edge_bands[cells]

    @cached_property
    def _edge_bands(self) -> dict:
        return {}

    @cached_property
    def k_squared(self) -> np.ndarray:
        k2 = sum(k**2 for k in self.k_coords)
        k2.flags.writeable = False
        return k2

    @property
    def radius(self) -> np.ndarray:
        """|x| over the lattice (box coordinates, not periodic distance),
        built on each call."""
        return np.sqrt(sum(x**2 for x in self.coords))


def make_grid(d: int, n_per_axis: int, half_width: float) -> GridSpec:
    return GridSpec(d, n_per_axis, half_width)


@dataclass(eq=False)
class ComplexField:
    """Complex samples over a grid.  Values are copied and frozen."""

    grid: GridSpec
    values: np.ndarray
    allow_nonfinite: bool = field(default=False, repr=False)

    def __post_init__(self):
        self._own(np.array(self.values, dtype=np.complex128, copy=True))

    def _own(self, vals: np.ndarray) -> ComplexField:
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not self.allow_nonfinite and not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite samples")
        vals.flags.writeable = False
        self.values = vals
        return self

    @classmethod
    def _adopt(cls, grid: GridSpec, vals: np.ndarray, allow_nonfinite: bool = False):
        """A field holding vals, a new complex128 array that nothing else
        holds, as its own, with no copy; checked and frozen as a copy is."""
        f = cls.__new__(cls)
        f.grid, f.allow_nonfinite = grid, allow_nonfinite
        return f._own(vals)


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

def _fft_pass(src, out, axis, inverse=False):
    """np.fft.fft of src along axis (>= 0) into out, or np.fft.ifft when
    inverse, bound once: a function of no arguments that runs it.

    It calls the pocketfft gufunc that np.fft.fft and np.fft.ifft call
    themselves, numpy.fft._pocketfft_umath.fft or .ifft, with the axes and
    the factor they pass for the default norm, 1 forward and 1/n inverse,
    so its bits are theirs (tests/test_propagator.py and `nlslab
    selftest` check this on every shape the code transforms).  Bound, a
    pass skips numpy.fft's Python argument handling, about 2 us of every
    call: a 16-point line's free flow took 9.6 us through numpy.fft and
    _apply_symbol's per-call views, and takes 3.6 us bound (_free_flow;
    2-core Xeon, numpy 2.4.6).  That module is numpy's private one (numpy
    2.0 or later, the floor); without it this module does not import.
    src may be out.
    """
    fn, factor = (_pocketfft.ifft, 1.0 / src.shape[axis]) if inverse else (_pocketfft.fft, 1.0)
    axes = [(axis,), (), (axis,)]
    return lambda: fn(src, factor, out, axes=axes)


def _fftn_passes(src, out, rank=None, inverse=False) -> list:
    """The bound passes (_fft_pass) of np.fft.fftn, or np.fft.ifftn when
    inverse, over the last rank axes of src (every axis when None), into
    out: last axis first, the order fftn and ifftn visit them in, the
    first pass from src and the others in place in out.  Leading axes
    beyond rank index separate fields, each transformed as fftn would
    transform it alone."""
    last = src.ndim - 1
    axes = range(last, -1 if rank is None else last - rank, -1)
    return [_fft_pass(src if axis == last else out, out, axis, inverse) for axis in axes]


def _transform(src, out, rank=None, inverse=False):
    """np.fft.fftn, or np.fft.ifftn when inverse, over the last rank axes
    of src (every axis when None), into out, bitwise, through its bound
    passes (_fftn_passes), with no new array per axis.  out may be src."""
    for run in _fftn_passes(src, out, rank, inverse):
        run()
    return out


def _inverse_values(values: np.ndarray) -> np.ndarray:
    out = _transform(values, np.empty_like(values), inverse=True)
    out *= np.sqrt(values.size)
    return out


def transform(f: ComplexField, direction: str = "forward") -> ComplexField:
    """Unitary DFT of a field; 'inverse' undoes 'forward' exactly."""
    if direction == "forward":
        out = _transform(f.values, np.empty_like(f.values))
        out /= np.sqrt(f.values.size)
    elif direction == "inverse":
        out = _inverse_values(f.values)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return ComplexField(f.grid, out, allow_nonfinite=f.allow_nonfinite)


# -- the storage layout ---------------------------------------------------------

# a stack's storage pads each 2-D row by this many elements.  A 256-point
# complex line is 4096 bytes, so unpadded every load of a column
# transform, one element per line, falls in one L1 cache set; 8 elements
# (128 bytes, two cache lines) give each line its own set, keep each line
# as 64-byte aligned as the array is, and cost 3 % of a 256^2 row.  The
# axis -2 FFT of a 256^2 field measured 563 us plain and 425 us padded,
# and a 256^2 step took 12 % less time (7 % less at 128^2, 18 % at 512^2,
# level at 64^2; 2-D E2 p = 4, one field).
_PAD = 8

# a 1-D line of at least this many points takes the four-step transform.
# That is the measured crossover (one line's free flow, fft, symbol,
# ifft, split against plain; 30 interleaved process-time pairs each,
# 2-core Xeon, numpy 2.4.6): the split took x0.973 of the plain time at
# n = 4096 (faster in 25 of 30 pairs), x0.829 at 8192 (29 of 30) and
# x0.514 at 16384 (30 of 30).  numpy's pocketfft transforms a batch of
# short lines far faster per point than one long line.  On the stacks a
# threshold sweep marches, (4, 1024) and (2, 2048), the split took x1.59
# and x1.52 (0 of 30 faster), and those lines are short.
_SPLIT_POINTS = 8192

# a stack's storage pads each row of a split line's (n2, n1) matrix by
# this many elements, for the same reason as _PAD: a column transform of
# the unpadded (128, 64) matrix of an 8192-point line reads one element
# from each 1024-byte row, so its loads fall into a few L1 sets.  One
# forward column pass (best of 25, 2-core Xeon) measured 66-67 us
# unpadded and 59-60 us with 2 pad elements (56-59 at 4, 59 at 8, 63-64
# at 16); the row pass was level at 54 us.  Measured on the demo's
# n = 8192 E1 p = 7 step, rotation and free flow (100 interleaved
# process-time rounds of 20 steps, 2-core Xeon, numpy 2.4.6): against
# unpadded rows, pad 1 took x0.957 and x0.931 of the time, pad 2 x0.953
# and x0.926, pad 4 x0.973 and x0.956, pad 8 x0.979 and x0.965; pad 2
# against pad 8 x0.950 (faster in 86 of 100), pad 1 against 2 x0.998 (52
# of 100), pad 4 against 2 x1.018 (28 of 100).  The column transforms
# gain alike from 1 to 8; past them, the elementwise ops over the pads
# cost more.
_SPLIT_PAD = 2


class _Layout(NamedTuple):
    """How an array holds a grid's fields (_layout): each field as an
    array of shape row, the leading axes of a stack indexing its fields."""

    rank: int               # the grid's dimension, the axes the plain transforms run over
    row: tuple              # one field, pads included
    width: int              # the grid's extent of row's last axis; pad elements follow it
    pad: int                # row[-1] - width
    split: tuple | None     # (n2, n1) of a line the four-step transform takes, else None


@lru_cache(maxsize=32)
def _layout(grid: GridSpec, padded: bool = True) -> _Layout:
    """How an array holds the fields of grid, decided here and nowhere
    else: padded, the storage of a stack, (flights, *row), which _lay_out
    fills and the stepping kernel marches; unpadded (padded=False), an
    array in the grid's shape, which apply_multiplier, spectral_translate
    and the proxy's pullbacks hand to _apply_symbol.

    A 2-D field is its n x n grid, each of its n rows padded in storage by
    _PAD = 8 elements.  A 1-D line of fewer than _SPLIT_POINTS = 8192
    points is itself.  A longer one splits: _apply_symbol transforms it as
    its (n2, n1) matrix, A[a, b] = u[a n1 + b], n1 = 2^floor(log2(n)/2)
    and n2 = n / n1, by the four-step FFT (Bailey, "FFTs in external or
    hierarchical memory", J. Supercomputing 4, 1990), in the transposed
    spectrum order its symbol is stored in (_storage_order).  Storage
    holds the matrix with each of its n2 rows padded by _SPLIT_PAD = 2
    elements; an array in the grid's shape is read as the matrix of pad
    0.  The figures behind each constant sit beside it.

    The transforms read the grid's view of the storage, [..., :width];
    the elementwise ops run over the whole of it.  No bit moves for a pad
    as long as the pads of the fields hold 0 and those of a symbol are
    finite (_apply_symbol).  The layout is the grid's, never read off an
    array's shape: a padded 65536-point line's storage has the shape of a
    256^2 field's.
    """
    n = grid.n_per_axis
    if grid.d == 1 and n < _SPLIT_POINTS:
        return _Layout(1, (n,), n, 0, None)
    # rows of width points: the grid's in 2-D, a split line's n1 in 1-D
    width = n if grid.d == 2 else 1 << (n.bit_length() - 1) // 2
    pad = 0 if not padded else _PAD if grid.d == 2 else _SPLIT_PAD
    split = None if grid.d == 2 else (n // width, width)
    return _Layout(grid.d, (grid.size // width, width + pad), width, pad, split)


def _lay_out(fields, grid: GridSpec) -> np.ndarray:
    """A stack's storage holding the given arrays, each of the grid's
    shape, as its rows, with every pad 0."""
    layout = _layout(grid)
    storage = np.zeros((len(fields), *layout.row), dtype=np.complex128)
    for row, f in zip(storage[..., :layout.width], fields):
        row[...] = f.reshape(row.shape)
    return storage


def _fields(storage: np.ndarray, grid: GridSpec, out=None) -> np.ndarray:
    """The fields held in a stack's storage, or in one row of it, in the
    grid's shape: a view of it, or for split lines a C-contiguous copy in
    natural order, into out when given (C-contiguous, of that shape)."""
    layout = _layout(grid)
    matrices = storage[..., :layout.width]
    lead = storage.shape[:storage.ndim - len(layout.row)]
    if out is None or layout.split is None:
        return matrices.reshape(lead + grid.shape)
    out.reshape(matrices.shape)[...] = matrices
    return out


@lru_cache(maxsize=4)
def _twiddles(n2: int, n1: int) -> tuple:
    """The twiddle factors exp(-2 pi i b c / n) at [c, b] of an (n2, n1)
    split (_layout), n = n1 n2, and their conjugates, read-only, kept per
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


def _storage_order(symbol: np.ndarray, grid: GridSpec, out=None) -> np.ndarray:
    """A symbol over grid, in the grid's shape and natural FFT order, in
    the order _apply_symbol takes it: for a split line (_layout) the
    transposed order the four-step transform leaves a spectrum in, mode
    c + n2 d at [c, d] of the line's (n2, n1) matrix; every other symbol's
    order is its natural one.  Into out when given (the grid's shape,
    C-contiguous, or a split line's (n2, n1) matrix, padded storage's view
    included); else symbol itself, or a new array for a split line."""
    split = _layout(grid).split
    if split is None:
        if out is None:
            return symbol
        out[...] = symbol
        return out
    out = np.empty(symbol.shape, dtype=np.complex128) if out is None else out
    out.reshape(split)[...] = symbol.reshape(split[::-1]).T
    return out


def _apply_symbol(values: np.ndarray, symbol: np.ndarray, layout: _Layout,
                  out: np.ndarray | None = None):
    """np.fft.ifftn(np.multiply(symbol, np.fft.fftn(values))), into out (a
    new array when None; it may be values, not symbol), for values, symbol
    and out that hold fields in the given layout (_layout): one field, or
    a stack of them, each row taking its own row of a stacked symbol.
    This is _free_flow's product, bound and run once."""
    return _free_flow(values, symbol, layout, np.zeros_like(values) if out is None else out)()


def _free_flow(values, symbol, layout: _Layout, out):
    """_apply_symbol's product bound once to its operands: a function of
    no arguments that forms it in out and returns out.  Every view, axis
    and factor is taken here, so a call is a flat run of gufunc and ufunc
    calls through out=, the FFT passes calling numpy's pocketfft gufuncs
    directly (_fft_pass).

    The transforms run on the grid's view, [..., :width], and the product
    over the whole array, so the pads of values and out must hold 0 and
    those of symbol be finite; the pads of out then hold 0 on return.  The
    symbol is in storage order (_storage_order): for split 1-D lines, the
    transposed spectrum order, which the one four-step routine
    (_split_passes) reaches and leaves with no reordering pass.  The
    operands of a split line are read as (-1, *row) matrices, so an array
    in the grid's shape is the matrix of pad 0.

    This is the one free-flow and multiplier product: the stepping kernel
    binds it once per segment and calls it once per step; free_evolve,
    apply_multiplier, the proxy's pullbacks and spectral_translate bind
    and call it once (_apply_symbol).  On every field that does not split
    it is np.fft.ifftn(np.multiply(symbol, np.fft.fftn(values))) bitwise;
    numpy's complex product is not bitwise commutative, so the symbol is
    always the left operand.  On a split line it agrees to rounding,
    padded or not, to the same bits.
    """
    if layout.split is not None:
        # the product in the symbol's transposed order
        shape = (-1, *layout.row)
        m = out.reshape(shape)
        calls = [*_split_passes(values.reshape(shape), m, layout),
                 partial(np.multiply, symbol.reshape(shape), m, m),
                 *_split_passes(m, m, layout, inverse=True)]
    else:
        w = layout.width
        src, view = (values[..., :w], out[..., :w]) if layout.pad else (values, out)
        calls = [*_fftn_passes(src, view, layout.rank), partial(np.multiply, symbol, out, out),
                 *_fftn_passes(view, view, layout.rank, inverse=True)]

    def product():
        for call in calls:
            call()
        return out
    return product


def _split_passes(values, out, layout: _Layout, inverse=False) -> list:
    """The bound calls of the four-step transform of split lines (_layout),
    both arrays holding lines as (..., n2, width + pad) matrices of the
    layout, A[a, b] = u[a n1 + b], n1 the width, pads 0.  Forward, values
    into out (it may be values): the column passes, the twiddles and the
    row passes leave mode k = c + n2 d at [c, d].  Inverse, on out in
    place (values is out): the row inverses, the conjugate twiddles and
    the column inverses bring each line back to natural order.  The
    passes run on the [..., :n1] view, the twiddle product over whole
    rows, so the pads stay 0.  Each flight of a stack takes its columns'
    and rows' bits alone, whatever the pad (tests/test_propagator.py
    checks this premise)."""
    cols = out[..., :layout.width]
    src = cols if inverse else values[..., :layout.width]
    first, last = (cols.ndim - 1, cols.ndim - 2) if inverse else (cols.ndim - 2, cols.ndim - 1)
    twiddles = _twiddles(*layout.split)[1 if inverse else 0][:, :layout.row[-1]]
    return [_fft_pass(src, cols, first, inverse), partial(np.multiply, out, twiddles, out),
            _fft_pass(cols, cols, last, inverse)]


def apply_multiplier(f: ComplexField, m: FourierMultiplier) -> ComplexField:
    if f.grid != m.grid:
        raise ValueError("field and multiplier live on different grids")
    return ComplexField(f.grid, _apply_symbol(f.values, _storage_order(m.symbol, f.grid),
                                              _layout(f.grid, padded=False)))


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
    """The field fn(*grid.coords).  fn receives the coordinate axis vectors,
    shaped to broadcast (GridSpec.coords), and its result is broadcast to
    the grid's shape, so fn of x alone is a field constant along y."""
    return ComplexField(grid, np.broadcast_to(fn(*grid.coords), grid.shape))


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
    size = math.prod(shape)
    spectrum = np.empty(size, dtype=np.complex128) if spectrum is None else spectrum
    block = np.empty(2 * size) if block is None else block
    spare = np.empty(size) if spare is None else spare
    return _Scratch(spectrum[:size].reshape(shape),
                    block[:2 * size].view(np.complex128).reshape(shape),
                    spare[:size].reshape(shape))


def _spectrum(x: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """The per-field np.fft.fftn of a stack x, (flights, *grid), bitwise,
    into scratch.spectrum."""
    return _transform(x, scratch.spectrum, x.ndim - 1)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """np.sum of each row of a stack x, (flights, *grid), over its grid axes."""
    return np.sum(x.reshape(len(x), -1), axis=-1)


def _masked_row_sums(x: np.ndarray, positions: np.ndarray, into=None) -> np.ndarray:
    """np.sum(x[i][mask]) for each row i of a stack x, given the flat
    C-order positions of the mask, np.flatnonzero(mask), which is all a
    grid or a weight keeps of it; the gather goes into the leading
    elements of the contiguous float array into (a new array when None),
    which must not overlap x."""
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
