"""Five-parameter symmetry family acting on grid fields.

An element carries a global phase, an L2-critical rescaling, a backward
free-flow time, a spatial translation, and a Galilean modulation,
composed as

    (T f)(x) = e^{i theta} e^{i x.xi} U(-t0) [h^{-d/2} f((x - x0)/h)]

with U(t) the free propagator.  Translation and modulation snap to the
position and frequency lattices, where they are exact permutations and
exact unit-modulus multipliers.  Rescaling evaluates the field's Fourier
series at the stretched sample points; that is exact while the scaled
geometry stays resolved, and every application is audited through the
L2 norm afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import (
    ComplexField,
    GridSpec,
    _apply_symbol,
    apply_multiplier,
    edge_mass_fraction,
    free_evolve,
    low_pass_multiplier,
)

__all__ = [
    "SymmetryElement",
    "identity_element",
    "snap_to_grid",
    "apply_symmetry",
    "spectral_translate",
    "large_scale_profile",
]


@dataclass(frozen=True)
class SymmetryElement:
    """theta: phase; h: scale; t0: free-flow time; x0: shift; xi: boost."""

    theta: float = 0.0
    h: float = 1.0
    t0: float = 0.0
    x0: tuple = ()
    xi: tuple = ()

    def __post_init__(self):
        if not (float(self.h) > 0.0):
            raise ValueError(f"scale must be positive, got {self.h}")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * np.pi))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "x0", tuple(float(c) for c in self.x0))
        object.__setattr__(self, "xi", tuple(float(c) for c in self.xi))


def identity_element(d: int) -> SymmetryElement:
    return SymmetryElement(x0=(0.0,) * d, xi=(0.0,) * d)


def _as_vector(comps: tuple, d: int, name: str) -> tuple:
    if len(comps) == 0:
        return (0.0,) * d
    if len(comps) != d:
        raise ValueError(f"{name} has {len(comps)} components, grid is {d}-dimensional")
    return comps


def snap_to_grid(elem: SymmetryElement, grid: GridSpec) -> SymmetryElement:
    """Round x0 to the position lattice and xi to the frequency lattice."""
    dk = np.pi / grid.half_width
    x0 = _as_vector(elem.x0, grid.d, "x0")
    xi = _as_vector(elem.xi, grid.d, "xi")
    return replace(
        elem,
        x0=tuple(round(c / grid.dx) * grid.dx for c in x0),
        xi=tuple(round(c / dk) * dk for c in xi),
    )


# -- off-lattice rescaling ----------------------------------------------------

def _series_eval(coeffs: np.ndarray, y: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Rows of exp(i y_j k_m) applied to coeffs, chunked to bound memory."""
    n = y.size
    out = np.empty((n,) + coeffs.shape[1:], dtype=np.complex128)
    for start in range(0, n, 256):
        rows = slice(start, min(start + 256, n))
        kernel = np.exp(1j * y[rows, None] * k[None, :])
        out[rows] = kernel @ coeffs
    return out


def _scaled_values(f: ComplexField, h: float) -> np.ndarray:
    # Evaluate the interpolating series at x/h.  The phase reference is
    # the left box edge, matching the fft index origin.  Compression
    # (h < 1) sends edge samples outside the original box, where the
    # series would repeat its periodic images; those samples are zeroed
    # so the result is the line picture, not the periodization.  The
    # mass lost that way is the field's own beyond-box content and is
    # charged to the L2 audit.
    g = f.grid
    coeffs = np.fft.fftn(f.values)
    y = g.axis / h
    inside = (y >= -g.half_width) & (y < g.half_width)
    k = g.frequencies
    if g.d == 1:
        out = _series_eval(coeffs, y + g.half_width, k)
        out[~inside] = 0.0
    else:
        out = _series_eval(coeffs, y + g.half_width, k)
        out[~inside, :] = 0.0
        out = _series_eval(out.T, y + g.half_width, k).T
        out[:, ~inside] = 0.0
    out *= h ** (-0.5 * g.d) / g.size
    return out


def apply_symmetry(
    f: ComplexField,
    elem: SymmetryElement,
    *,
    edge_tol: float = 1e-8,
) -> ComplexField:
    """Apply one element: scale, translate, free-flow, modulate, phase.

    x0 and xi are snapped to their lattices first.  Raises when a scaled
    profile reaches the box edge (fraction above edge_tol) or when the
    rescaling fails its L2 audit, meaning the scaled field no longer
    fits the spectral resolution.
    """
    g = f.grid
    e = snap_to_grid(elem, g)
    norm_in = np.sqrt(np.sum(np.abs(f.values) ** 2))

    vals = f.values
    if e.h != 1.0:
        vals = _scaled_values(f, e.h)

    shifts = tuple(int(round(c / g.dx)) for c in e.x0)
    if any(shifts):
        vals = np.roll(vals, shifts, axis=tuple(range(g.d)))

    if e.h != 1.0:
        frac = edge_mass_fraction(ComplexField(g, vals))
        if frac > edge_tol:
            raise ValueError(
                f"scaled profile reaches the box edge: fraction {frac:.3e} "
                f"exceeds {edge_tol:.1e}"
            )

    out = ComplexField(g, vals)
    if e.t0 != 0.0:
        out = free_evolve(out, -e.t0)

    vals = out.values
    if any(c != 0.0 for c in e.xi):
        phase = sum(x * c for x, c in zip(g.coords, e.xi))
        # one explicit product, the field on the left: the operator form
        # would let numpy elide the phase's temporary on large grids and
        # compute phase * field there, whose bits differ
        vals = np.multiply(vals, np.exp(1j * phase))
    if e.theta != 0.0:
        vals = vals * np.exp(1j * e.theta)

    norm_out = np.sqrt(np.sum(np.abs(vals) ** 2))
    if abs(norm_out - norm_in) > 1e-10 * max(norm_in, 1e-300):
        raise ValueError(
            "symmetry application lost L2 mass "
            f"({norm_in:.12e} -> {norm_out:.12e}); "
            "the rescaled field is under-resolved"
        )
    return ComplexField(g, vals)


def spectral_translate(f: ComplexField, shift) -> ComplexField:
    """Translate by an arbitrary (off-lattice) vector via the spectrum.

    Exact for trigonometric polynomials on the box; periodic wrap
    semantics like roll.
    """
    g = f.grid
    comps = _as_vector(tuple(np.atleast_1d(shift).astype(float)), g.d, "shift")
    sym = np.exp(-1j * sum(k * c for k, c in zip(g.k_coords, comps)))
    return ComplexField(g, _apply_symbol(f.values, sym))


def large_scale_profile(
    f: ComplexField,
    elem: SymmetryElement,
    theta: float = 0.5,
    *,
    edge_tol: float = 1e-3,
) -> ComplexField:
    """Low-pass f at radius h**theta, then apply the element.

    This is the shape of concentrating initial data at scale h: only
    frequencies up to h**theta survive before the rescaling, with theta
    a free parameter in (0, 1).  The sharp cutoff rings like 1/|x|, so
    the stretched tail reaches the box edge at a level set by the box
    size, not by the profile; the default edge tolerance is loose for
    that reason and callers with room to spare should tighten it.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    cut = apply_multiplier(f, low_pass_multiplier(f.grid, elem.h**theta))
    return apply_symmetry(cut, elem, edge_tol=edge_tol)
