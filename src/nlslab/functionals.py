"""Conserved quantities and variational functionals.

Model: i u_t + Lap(u) = mu1 |u|^(4/d) u + mu2 |u|^(p-1) u on R^d, with the
two sign conventions

    E1: (mu1, mu2) = (+1, -1)   defocusing critical term, focusing p term
    E2: (mu1, mu2) = (-1, +1)   focusing critical term, defocusing p term

and 1 + 4/d < p < 1 + 4/(d-2) (no upper bound for d <= 2).  The critical
Sobolev index s_p = d/2 - 2/(p-1) then falls in (0, 1).

For E1 the variational machinery used by the classifier is

    S(u) = E(u) + (omega/2) M(u)
    K(u) = ||grad u||^2 - d(p-1)/(2(p+1)) |u|_{p+1}^{p+1} + d/(d+2) |u|_{mc}^{mc}
    H(u) = S(u) - K(u)/2
         = (omega/2) M(u) + (d(p-1)-4)/(4(p+1)) |u|_{p+1}^{p+1}

with mc = 2(d+2)/d.  For E2 the same K/H expressions are still computed on
request but carry an advisory flag: they are not the natural quantities for
that sign choice.

The gradient norm is always evaluated spectrally (sum |k|^2 |F|^2 with the
unitary transform); this module is the single source of ||grad u||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import ComplexField, GridSpec, _row_sums

__all__ = [
    "ModelParams",
    "FunctionalSnapshot",
    "ActionValues",
    "mass",
    "energy",
    "momentum",
    "gradient_l2_sq",
    "power_integrals",
    "action_K_H",
    "gn_quotient",
    "snapshot",
    "snapshot_csv_header",
    "snapshot_csv_row",
]

EQUATIONS = ("E1", "E2")


@dataclass(frozen=True)
class ModelParams:
    """Dimension, supercritical exponent, frequency, and sign convention."""

    d: int
    p: float
    omega: float = 1.0
    equation: str = "E1"

    def __post_init__(self):
        if self.d not in (1, 2, 3, 4):
            raise ValueError(f"d must be in 1..4, got {self.d}")
        lo = 1.0 + 4.0 / self.d
        if not self.p > lo:
            raise ValueError(f"p must exceed 1 + 4/d = {lo}, got {self.p}")
        if self.d >= 3:
            hi = 1.0 + 4.0 / (self.d - 2)
            if not self.p < hi:
                raise ValueError(
                    f"p must stay below 1 + 4/(d-2) = {hi} for d={self.d}, got {self.p}"
                )
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")

    @property
    def s_p(self) -> float:
        """Scaling-critical Sobolev index, d/2 - 2/(p-1)."""
        return self.d / 2.0 - 2.0 / (self.p - 1.0)

    @property
    def mc_power(self) -> float:
        """Lebesgue exponent of the mass-critical potential term, 2(d+2)/d."""
        return _mc_power(self.d)

    @property
    def couplings(self) -> tuple:
        """(mu_critical, mu_super) in front of the two nonlinear terms."""
        return (1.0, -1.0) if self.equation == "E1" else (-1.0, 1.0)


@dataclass(frozen=True)
class ActionValues:
    s_omega: float
    k_value: float
    h_omega: float
    advisory: bool


# -- integrals ---------------------------------------------------------------

def _mc_power(d: int) -> float:
    return 2.0 * (d + 2.0) / d


def _spectral_integrals(grid: GridSpec, spectrum) -> tuple:
    """||grad u||^2, then each momentum component, of every field of a stack,
    (flights, *grid), as arrays of one value per field; spectrum is the
    stack's per-field np.fft.fftn."""
    power = np.abs(spectrum / np.sqrt(grid.size)) ** 2
    # Im<i k F, F> = sum k |F|^2
    return tuple(_row_sums(k * power) * grid.cell_volume for k in (grid.k_squared, *grid.k_odd))


def _lone_spectral_integrals(f: ComplexField) -> list:
    return [float(v[0]) for v in _spectral_integrals(f.grid, np.fft.fftn(f.values)[np.newaxis])]


def mass(f: ComplexField) -> float:
    return float(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume)


def gradient_l2_sq(f: ComplexField) -> float:
    return _lone_spectral_integrals(f)[0]


def power_integrals(f: ComplexField, mp: ModelParams) -> tuple:
    """(lp1, lmc) = (int |u|^{p+1}, int |u|^{2(d+2)/d})."""
    a, dv = np.abs(f.values), f.grid.cell_volume
    return float(np.sum(a ** (mp.p + 1.0)) * dv), float(np.sum(a**mp.mc_power) * dv)


def momentum(f: ComplexField) -> np.ndarray:
    """Im sum (grad u) conj(u) dx^d, one component per axis.

    Computed spectrally; the unpaired Nyquist mode is dropped from the odd
    symbol i*k, so real fields report momentum at rounding level rather
    than picking up a systematic Nyquist contribution.
    """
    return np.array(_lone_spectral_integrals(f)[1:])


# -- combiners: the only place the E/S/K/H coefficients are written -----------
# signs = (mu_c, mu_p) in front of the critical and the p term; (1, 1) gives
# the cancellation-free scale of a functional.

_E1_SIGNS = (1.0, -1.0)


def _energy(mp: ModelParams, grad, lp1, lmc, signs=_E1_SIGNS) -> float:
    mu_c, mu_p = signs
    d, p = mp.d, mp.p
    return 0.5 * grad + mu_p * lp1 / (p + 1.0) + mu_c * d / (2.0 * (d + 2.0)) * lmc


def _action(mp: ModelParams, e, m) -> float:
    return e + 0.5 * mp.omega * m


def _scaling_derivative(mp: ModelParams, grad, lp1, lmc, signs=_E1_SIGNS) -> float:
    mu_c, mu_p = signs
    d, p = mp.d, mp.p
    return grad + mu_p * d * (p - 1.0) / (2.0 * (p + 1.0)) * lp1 + mu_c * d / (d + 2.0) * lmc


def _positive_part(mp: ModelParams, m, lp1) -> float:
    d, p = mp.d, mp.p
    return 0.5 * mp.omega * m + (d * (p - 1.0) - 4.0) / (4.0 * (p + 1.0)) * lp1


def _action_values(mp: ModelParams, snap) -> ActionValues:
    s_omega, k_value, h_omega = snap.action, snap.scaling_derivative, snap.positive_part
    advisory = mp.equation == "E2"
    if not advisory:
        scale = abs(h_omega) + abs(s_omega) + abs(k_value) + 1e-300
        if abs(h_omega - (s_omega - 0.5 * k_value)) > 1e-12 * scale:
            raise AssertionError("H != S - K/2 beyond rounding; broken arithmetic")
    return ActionValues(s_omega, k_value, h_omega, advisory)


def energy(f: ComplexField, mp: ModelParams) -> float:
    """Hamiltonian with signs chosen by mp.equation."""
    return snapshot(f, mp).energy


def action_K_H(f: ComplexField, mp: ModelParams) -> ActionValues:
    """Lyapunov action S, scaling derivative K, and positive part H.

    S = E + (omega/2) M uses the equation's own energy.  K and H always use
    the E1 expressions; for E2 they are flagged advisory.  For E1 the
    identity H = S - K/2 is checked to 1e-12 relative.
    """
    return _action_values(mp, snapshot(f, mp))


def gn_quotient(f: ComplexField) -> float:
    """Interpolation quotient |u|_mc^mc / (M^{2/d} ||grad u||^2), mc = 2(d+2)/d.

    Bounded by (d+2)/d * M(Q)^{-2/d} with Q the critical-equation ground
    state, with equality exactly on that family.
    """
    m = mass(f)
    grad = gradient_l2_sq(f)
    if m == 0.0 or grad == 0.0:
        raise ValueError("quotient undefined for zero or gradient-free fields")
    d = f.grid.d
    lmc = float(np.sum(np.abs(f.values) ** _mc_power(d)) * f.grid.cell_volume)
    return lmc / (m ** (2.0 / d) * grad)


# -- snapshots ----------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSnapshot:
    """One row of trajectory diagnostics at a fixed time."""

    t: float
    mass: float
    energy: float
    momentum: tuple
    action: float
    scaling_derivative: float
    positive_part: float
    grad_l2_sq: float
    lp1: float
    lmc: float


def snapshot(
    f: ComplexField, mp: ModelParams, t: float = 0.0, *, spectrum=None, modulus=None
) -> FunctionalSnapshot:
    """The one integrals pass behind every functional: one forward FFT (or
    the caller's spectrum, np.fft.fftn(f.values)) and one |u| array (or the
    caller's modulus, np.abs(f.values)) give the integrals, the combiners
    above give E, S, K and H.  This is _snapshots on a stack of one."""
    if spectrum is None:
        spectrum = np.fft.fftn(f.values)
    a = np.abs(f.values) if modulus is None else modulus
    return _snapshots(f.grid, mp, [t], spectrum[np.newaxis], a[np.newaxis])[0][0]


def _snapshots(grid: GridSpec, mp: ModelParams, ts, spectrum, modulus) -> tuple:
    """snapshot() of every field of a stack, (flights, *grid), at its time
    in ts, from the stack's per-field np.fft.fftn and |u|: each integral
    is a per-field reduction over the grid axes.  Returns the snapshots,
    the density |u|^2 and its per-field sums, which an edge fraction
    reads (spectral._edge_fractions)."""
    grad, *mom = _spectral_integrals(grid, spectrum)
    dv = grid.cell_volume
    density = modulus**2
    totals = _row_sums(density)
    m = totals * dv
    lp1 = _row_sums(modulus ** (mp.p + 1.0)) * dv
    lmc = _row_sums(modulus**mp.mc_power) * dv
    rows = zip(ts, grad.tolist(), zip(*(c.tolist() for c in mom)), m.tolist(), lp1.tolist(),
               lmc.tolist())
    snaps = [_snapshot(mp, *row) for row in rows]
    return snaps, density, totals


def _snapshot(mp: ModelParams, t, grad, mom, m, lp1, lmc) -> FunctionalSnapshot:
    """The snapshot of one field's integrals, through the combiners above."""
    e = _energy(mp, grad, lp1, lmc, mp.couplings)
    return FunctionalSnapshot(t, m, e, mom, _action(mp, e, m),
                              _scaling_derivative(mp, grad, lp1, lmc),
                              _positive_part(mp, m, lp1), grad, lp1, lmc)


def snapshot_csv_header(d: int) -> str:
    mom = ",".join(f"p{ax}" for ax in "xy"[:d])
    return f"t,mass,energy,{mom},action,K,H,grad_l2_sq,lp1,lmc"


def snapshot_csv_row(s: FunctionalSnapshot) -> str:
    cells = [s.t, s.mass, s.energy, *s.momentum, s.action,
             s.scaling_derivative, s.positive_part, s.grad_l2_sq, s.lp1, s.lmc]
    return ",".join(repr(float(c)) for c in cells)
