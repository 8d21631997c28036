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
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "ComplexField",
    "FourierMultiplier",
    "make_grid",
    "transform",
    "apply_multiplier",
    "lp_norm",
    "inner_product",
    "field_from_function",
    "random_smooth_field",
    "multiplier_from_symbol",
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

    @cached_property
    def k_odd(self) -> tuple:
        """Wavenumbers of the odd symbol i*k_axis, unpaired Nyquist mode
        zeroed, one per axis, shaped to broadcast against the lattice."""
        k = self.frequencies.copy()
        k[self.n_per_axis // 2] = 0.0
        k.flags.writeable = False
        return tuple(k.reshape((-1,) + (1,) * (self.d - 1 - ax)) for ax in range(self.d))

    @cached_property
    def tail_mask(self) -> np.ndarray:
        """Modes in the spectral tail: any wavenumber component at least
        2/3 of the axis maximum in size."""
        k_edge = np.max(np.abs(self.frequencies))
        mask = np.zeros(self.shape, dtype=bool)
        for axis_k in self.k_coords:
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
            for x in self.coords:
                mask |= (x >= self.half_width - margin) | (x < -self.half_width + margin)
            mask.flags.writeable = False
            self._edge_masks[cells] = mask
        return mask

    @cached_property
    def _edge_masks(self) -> dict:
        return {}

    @cached_property
    def k_squared(self) -> np.ndarray:
        k2 = sum(k**2 for k in self.k_coords)
        k2.flags.writeable = False
        return k2

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| over the lattice (box coordinates, not periodic distance)."""
        r = np.sqrt(sum(x**2 for x in self.coords))
        r.flags.writeable = False
        return r


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
    description: str = ""

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


def multiplier_from_symbol(grid: GridSpec, fn, description: str = "") -> FourierMultiplier:
    """Build a multiplier from a callable of the d wavenumber arrays."""
    return FourierMultiplier(grid, fn(*grid.k_coords), description)


def k_squared_multiplier(grid: GridSpec) -> FourierMultiplier:
    return FourierMultiplier(grid, grid.k_squared, "|k|^2")


def gradient_multiplier(grid: GridSpec, axis: int) -> FourierMultiplier:
    """i*k_axis with the unpaired Nyquist mode zeroed (odd symbol)."""
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for d={grid.d}")
    sym = np.broadcast_to(1j * grid.k_odd[axis], grid.shape)
    return FourierMultiplier(grid, sym, f"i*k[{axis}]")


def free_flow_multiplier(grid: GridSpec, t: float) -> FourierMultiplier:
    """Symbol of the free propagator over time t: exp(-i*t*|k|^2)."""
    return FourierMultiplier(grid, _free_flow_symbol(grid, t), f"free({t})")


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
    return FourierMultiplier(grid, 1.0 + kk**s, f"1+|k|^{s}")


def low_pass_multiplier(grid: GridSpec, radius: float) -> FourierMultiplier:
    """Sharp cutoff onto |k| <= radius (Euclidean)."""
    if radius < 0:
        raise ValueError("cutoff radius must be nonnegative")
    sym = (grid.k_squared <= radius**2).astype(np.complex128)
    return FourierMultiplier(grid, sym, f"lowpass({radius})")


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


def _apply_symbol(values: np.ndarray, symbol: np.ndarray, out: np.ndarray | None = None,
                  rank=None):
    """np.fft.ifftn(np.multiply(symbol, np.fft.fftn(values))), bitwise,
    into out (a new array when None; it may be values, not symbol).  The
    transforms run over the last rank axes, as in _transform: a stack of
    fields, (flights, *grid), takes each row's symbol from a (flights,
    *grid) symbol.

    This is the one free-flow and multiplier product: the stepping kernel,
    free_evolve, apply_multiplier, the proxy's pullbacks and
    spectral_translate all call it.  numpy's complex product is not
    bitwise commutative, so the symbol is always the left operand.
    """
    spec = _transform(np.fft.fft, values, np.empty_like(values) if out is None else out, rank)
    np.multiply(symbol, spec, out=spec)
    return _transform(np.fft.ifft, spec, spec, rank)


def apply_multiplier(f: ComplexField, m: FourierMultiplier) -> ComplexField:
    if f.grid != m.grid:
        raise ValueError("field and multiplier live on different grids")
    return ComplexField(f.grid, _apply_symbol(f.values, m.symbol))


def free_evolve(f: ComplexField, t: float) -> ComplexField:
    """exp(i*t*Laplacian) applied spectrally."""
    return apply_multiplier(f, free_flow_multiplier(f.grid, t))


# -- norms and inner products -------------------------------------------------

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


def inner_product(f: ComplexField, g: ComplexField) -> complex:
    """sum f * conj(g) * dx^d."""
    if f.grid != g.grid:
        raise ValueError("inner product requires fields on the same grid")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_volume)


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


def spectral_tail_fraction(f: ComplexField, *, spectrum=None) -> float:
    """Fraction of spectral mass carried by the top third of frequencies.

    'Top third' is measured per axis: a mode belongs to the tail when any
    of its wavenumber components exceeds 2/3 of the axis maximum.
    spectrum, when given, is np.fft.fftn(f.values) and saves the transform.
    This is _tail_fractions on a stack of one.
    """
    if spectrum is None:
        spectrum = np.fft.fftn(f.values)
    return float(_tail_fractions(spectrum[np.newaxis], f.grid)[0])


def edge_mass_fraction(f: ComplexField, cells: int = 4, *, modulus=None) -> float:
    """Mass fraction within `cells` lattice sites of the box boundary.
    modulus, when given, is np.abs(f.values) and saves taking it.  This is
    _edge_fractions on a stack of one."""
    dens = ((np.abs(f.values) if modulus is None else modulus) ** 2)[np.newaxis]
    return float(_edge_fractions(dens, _row_sums(dens), f.grid, [cells])[0])


# -- the monitors over a stack of fields, (flights, *grid) ---------------------
# Each row's reduction runs over its own contiguous samples, so it is
# bitwise the row's lone np.sum: a masked gather is taken in C order by
# np.compress, since a boolean index over the trailing axes of a stack
# returns a Fortran-ordered array whose row sums take other bits.

def _row_sums(x: np.ndarray) -> np.ndarray:
    """np.sum of each row of a stack x, (flights, *grid), over its grid axes."""
    return np.sum(x.reshape(len(x), -1), axis=-1)


def _masked_row_sums(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """np.sum(x[i][mask]) for each row i of a stack x."""
    return _row_sums(np.compress(mask.reshape(-1), x.reshape(len(x), -1), axis=1))


def _fractions(part: np.ndarray, total: np.ndarray) -> np.ndarray:
    """part / total per row, 0 where total is 0."""
    return np.divide(part, total, out=np.zeros_like(total), where=total != 0.0)


def _tail_fractions(spectrum: np.ndarray, grid: GridSpec) -> np.ndarray:
    """spectral_tail_fraction of each field of a stack, from the stack's
    per-field np.fft.fftn."""
    power = np.abs(spectrum) ** 2
    return _fractions(_masked_row_sums(power, grid.tail_mask), _row_sums(power))


def _edge_fractions(density: np.ndarray, totals: np.ndarray, grid: GridSpec,
                    cells) -> np.ndarray:
    """edge_mass_fraction of each field of a stack, from the stack's
    |u|^2 and its row sums; row i's band is cells[i] sites deep."""
    bands = {c: _masked_row_sums(density, grid.edge_mask(c)) for c in set(cells)}
    return _fractions(np.array([bands[c][row] for row, c in enumerate(cells)]), totals)
