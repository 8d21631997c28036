"""Localized variance (virial) monitor.

The weight is w_R(x) = R^2 * phi(|x|/R) built from a single radial profile

    phi(s) = s^2 * chi(s),

where chi is the C^4 polynomial smoothstep transition: chi = 1 on [0, 1],
chi = 0 on [2, inf), and chi(s) = 1 - S4(s - 1) on (1, 2) with

    S4(t) = 126 t^5 - 420 t^6 + 540 t^7 - 315 t^8 + 70 t^9.

S4' = 630 t^4 (1-t)^4, so derivatives through fourth order vanish at both
knots and every lattice table below is continuous.  Inside |x| <= R the
weight is exactly |x|^2 (so Lap w_R = 2d there) and all tables are constant;
beyond 2R everything vanishes.  The tables are reproducible bit-for-bit
from these formulas.

For the E1 sign convention the monitored quantities are

    V(t)   = int w_R |u|^2
    V'(t)  = 2R Im int phi'(|x|/R) (x/|x|).grad(u) conj(u)
    V''(t) = 4 Re int (d_j d_k w_R) d_j conj(u) d_k u  -  int Lap^2 w_R |u|^2
             + 4/(d+2) int Lap w_R |u|^mc  -  2(p-1)/(p+1) int Lap w_R |u|^{p+1}

with mc = 2(d+2)/d.  With the weight flat over the support of u this
collapses to V'' = 8 K(u) (Glassey 1977).  The remainder A_R = V'' - 8K,
formed by the caller with the K of a functionals snapshot, is controlled by
the exterior integral of |grad u|^2 + R^-2 |u|^2 + |u|^mc + |u|^{p+1},
which is also reported.

For E2 the whole-space identity has the potential signs reversed and needs
no weight; whole_space_virial_e2 reads it off a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalSnapshot, ModelParams, _scaling_derivative, snapshot
from .spectral import ComplexField, GridSpec

__all__ = [
    "VirialWeight",
    "VirialDerivatives",
    "smoothstep_c4",
    "smoothstep_c4_prime",
    "virial_value",
    "virial_derivatives",
    "whole_space_virial_e2",
]

# S4 and its derivatives, highest-degree-first for np.polyval
_S4 = np.array([70.0, -315.0, 540.0, -420.0, 126.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_S4_D = [_S4]
for _ in range(4):
    _S4_D.append(np.polyder(_S4_D[-1]))


def smoothstep_c4(t):
    """Monotone C^4 ramp from 0 at t<=0 to 1 at t>=1."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, np.polyval(_S4, t)))


def smoothstep_c4_prime(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, np.polyval(_S4_D[1], np.clip(t, 0.0, 1.0)), 0.0)


def _chi_derivs(s: np.ndarray):
    """chi and its first four derivatives on the transition interval only.

    Caller is responsible for masking to 1 < s < 2.
    """
    t = s - 1.0
    chi = 1.0 - np.polyval(_S4_D[0], t)
    d1 = -np.polyval(_S4_D[1], t)
    d2 = -np.polyval(_S4_D[2], t)
    d3 = -np.polyval(_S4_D[3], t)
    d4 = -np.polyval(_S4_D[4], t)
    return chi, d1, d2, d3, d4


def _phi_derivs(s: np.ndarray):
    """phi(s) = s^2 chi(s) and derivatives through fourth order, piecewise."""
    s = np.asarray(s, dtype=float)
    inner = s <= 1.0
    outer = s >= 2.0
    mid = ~(inner | outer)

    phi = np.where(inner, s**2, 0.0)
    d1 = np.where(inner, 2.0 * s, 0.0)
    d2 = np.where(inner, 2.0, 0.0)
    d3 = np.zeros_like(s)
    d4 = np.zeros_like(s)

    if np.any(mid):
        sm = s[mid]
        chi, c1, c2, c3, c4 = _chi_derivs(sm)
        phi[mid] = sm**2 * chi
        d1[mid] = 2.0 * sm * chi + sm**2 * c1
        d2[mid] = 2.0 * chi + 4.0 * sm * c1 + sm**2 * c2
        d3[mid] = 6.0 * c1 + 6.0 * sm * c2 + sm**2 * c3
        d4[mid] = 12.0 * c2 + 8.0 * sm * c3 + sm**2 * c4
    return phi, d1, d2, d3, d4


@dataclass(eq=False)
class VirialWeight:
    """Lattice tables of w_R = R^2 phi(|x|/R) and its derivatives."""

    grid: GridSpec
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if 2.0 * self.R > self.grid.half_width:
            raise ValueError(
                f"weight support |x| <= {2 * self.R} exceeds the box "
                f"half-width {self.grid.half_width}; the tables would wrap"
            )
        g = self.grid
        d = g.d
        s = g.radius / self.R
        phi, d1, d2, d3, d4 = _phi_derivs(s)

        self.value = self.R**2 * phi               # w_R itself
        self.phi1 = d1                             # phi'(|x|/R)
        self.phi2 = d2                             # phi''(|x|/R)
        # phi'(s)/s with its s->0 limit; equals 2 exactly on s <= 1
        over = np.full_like(s, 2.0)
        m = s > 1.0
        over[m] = d1[m] / s[m]
        self.phi1_over_s = over
        self.laplacian = d2 + (d - 1.0) * over     # (Lap phi)(x/R); 2d inside R

        # Bi-Laplacian of w_R: R^-2 [g'' + (d-1) g'/s], g = Lap phi.
        # Zero off the transition shell, so only evaluate there (s >= 1
        # keeps every division safe).
        bil = np.zeros_like(s)
        if np.any(m):
            sm = s[m]
            g1 = d3[m] + (d - 1.0) * (d2[m] / sm - d1[m] / sm**2)
            g2 = d4[m] + (d - 1.0) * (d3[m] / sm - 2.0 * d2[m] / sm**2 + 2.0 * d1[m] / sm**3)
            bil[m] = g2 + (d - 1.0) * g1 / sm
        self.bilaplacian = bil / self.R**2

        # unit radial vectors, zeroed at the origin
        r = g.radius
        safe = np.where(r > 0, r, 1.0)
        self.unit_radial = tuple(np.where(r > 0, x / safe, 0.0) for x in g.coords)
        self.exterior_mask = s >= 1.0
        for arr in (self.value, self.phi1, self.phi2, self.phi1_over_s,
                    self.laplacian, self.bilaplacian):
            arr.flags.writeable = False


@dataclass(frozen=True)
class VirialDerivatives:
    """V', V'' and the exterior bound integrand of the localized variance;
    the remainder A_R = V'' - 8K needs K, which a snapshot holds."""

    v_prime: float
    v_double_prime: float
    exterior_integral: float


def virial_value(f: ComplexField, w: VirialWeight, *, modulus=None) -> float:
    """int R^2 phi(|x|/R) |u|^2; modulus is as for virial_derivatives."""
    if f.grid != w.grid:
        raise ValueError("field and weight live on different grids")
    a = np.abs(f.values) if modulus is None else modulus
    return float(np.sum(w.value * a**2) * f.grid.cell_volume)


def _gradient_fields(f: ComplexField, spectrum=None):
    if spectrum is None:
        spectrum = np.fft.fftn(f.values)
    # the odd symbol i*k broadcast per axis: spectral.gradient_multiplier's
    # values, without a full-grid symbol array per axis per record
    return [np.fft.ifftn(du, out=du) for du in (1j * k * spectrum for k in f.grid.k_odd)]


def virial_derivatives(
    f: ComplexField, mp: ModelParams, w: VirialWeight, *, spectrum=None, modulus=None
) -> VirialDerivatives:
    """First and second time derivatives of the localized variance, plus the
    exterior bound integrand.  spectrum, when given, is np.fft.fftn(f.values)
    and saves the transform; modulus, when given, is np.abs(f.values)."""
    if f.grid != w.grid:
        raise ValueError("field and weight live on different grids")
    if mp.equation != "E1":
        raise ValueError("localized V'' tables are for E1; use whole_space_virial_e2")

    d, p = mp.d, mp.p
    dv = f.grid.cell_volume
    u = f.values
    absu = np.abs(u) if modulus is None else modulus
    dens = absu**2

    grads = _gradient_fields(f, spectrum)
    radial = sum(xh * du for xh, du in zip(w.unit_radial, grads))
    grad_sq_dens = sum(np.abs(du) ** 2 for du in grads)
    del grads  # evolve holds its record spectrum through this call: keep the peak flat
    rad_sq_dens = np.abs(radial) ** 2

    v_prime = 2.0 * w.R * float(np.sum(w.phi1 * np.imag(radial * np.conj(u))) * dv)

    pot_mc = absu**mp.mc_power
    pot_p = absu ** (p + 1.0)

    hess = 4.0 * float(np.sum(w.phi2 * rad_sq_dens
                              + w.phi1_over_s * (grad_sq_dens - rad_sq_dens)) * dv)
    bilap = -float(np.sum(w.bilaplacian * dens) * dv)
    term_mc = 4.0 / (d + 2.0) * float(np.sum(w.laplacian * pot_mc) * dv)
    term_p = -2.0 * (p - 1.0) / (p + 1.0) * float(np.sum(w.laplacian * pot_p) * dv)
    v_double = hess + bilap + term_mc + term_p

    ext = w.exterior_mask
    exterior = float(np.sum((grad_sq_dens + dens / w.R**2 + pot_mc + pot_p)[ext]) * dv)
    return VirialDerivatives(v_prime, v_double, exterior)


def whole_space_virial_e2(
    f: ComplexField, mp: ModelParams, *, snap: FunctionalSnapshot | None = None
) -> float:
    """V'' for the E2 sign convention with the unlocalized |x|^2 weight:

        8 [ ||grad u||^2 + d(p-1)/(2(p+1)) |u|_{p+1}^{p+1} - d/(d+2) |u|_mc^mc ],

    8 K with E2's own signs, from the integrals of snap (snapshot(f, mp)
    when None), so a record's row takes no transform of its own.
    """
    return _whole_space_e2(mp, snapshot(f, mp) if snap is None else snap)


def _whole_space_e2(mp: ModelParams, snap: FunctionalSnapshot) -> float:
    """whole_space_virial_e2 from the snapshot alone, which is all it reads."""
    if mp.equation != "E2":
        raise ValueError("whole-space E2 identity requested for an E1 model")
    return 8.0 * _scaling_derivative(mp, snap.grad_l2_sq, snap.lp1, snap.lmc, mp.couplings)
