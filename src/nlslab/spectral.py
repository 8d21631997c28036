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
    k = grid.frequencies.copy()
    k[grid.n_per_axis // 2] = 0.0
    if grid.d == 1:
        sym = 1j * k
    else:
        ks = [grid.frequencies.copy() for _ in range(2)]
        ks[axis] = k
        mesh = np.meshgrid(ks[0], ks[1], indexing="ij")
        sym = 1j * mesh[axis]
    return FourierMultiplier(grid, sym, f"i*k[{axis}]")


def free_flow_multiplier(grid: GridSpec, t: float) -> FourierMultiplier:
    """Symbol of the free propagator over time t: exp(-i*t*|k|^2)."""
    return FourierMultiplier(grid, np.exp(-1j * t * grid.k_squared), f"free({t})")


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

def _forward_values(values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values) / np.sqrt(values.size)


def _inverse_values(values: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(values) * np.sqrt(values.size)


def transform(f: ComplexField, direction: str = "forward") -> ComplexField:
    """Unitary DFT of a field; 'inverse' undoes 'forward' exactly."""
    if direction == "forward":
        out = _forward_values(f.values)
    elif direction == "inverse":
        out = _inverse_values(f.values)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return ComplexField(f.grid, out, allow_nonfinite=f.allow_nonfinite)


def _apply_symbol(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(symbol * np.fft.fftn(values))


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
    return float(np.sum(np.abs(f.values) ** q) * f.grid.cell_volume) ** (1.0 / q)


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


def spectral_tail_fraction(f: ComplexField) -> float:
    """Fraction of spectral mass carried by the top third of frequencies.

    'Top third' is measured per axis: a mode belongs to the tail when any
    of its wavenumber components exceeds 2/3 of the axis maximum.
    """
    spec = np.abs(np.fft.fftn(f.values)) ** 2
    total = float(np.sum(spec))
    if total == 0.0:
        return 0.0
    k_edge = np.max(np.abs(f.grid.frequencies))
    mask = np.zeros(f.grid.shape, dtype=bool)
    for axis_k in f.grid.k_coords:
        mask |= np.abs(axis_k) >= (2.0 / 3.0) * k_edge
    return float(np.sum(spec[mask])) / total

def edge_mass_fraction(f: ComplexField, cells: int = 4) -> float:
    """Mass fraction within `cells` lattice sites of the box boundary."""
    dens = np.abs(f.values) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    g = f.grid
    margin = cells * g.dx
    mask = np.zeros(g.shape, dtype=bool)
    for x in g.coords:
        mask |= (x >= g.half_width - margin) | (x < -g.half_width + margin)
    return float(np.sum(dens[mask])) / total
