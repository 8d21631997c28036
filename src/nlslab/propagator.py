"""Split-step time evolution with conservation, blow-up, and scattering
diagnostics.

One step of size dt is the symmetric composition

    u <- P(dt/2) F(dt) P(dt/2)

where P is the exact pointwise phase rotation generated by the two local
power nonlinearities (|u| is constant along it) and F is the exact free
flow e^{-i dt |k|^2} on the Fourier side.  Both substeps are unitary, so
mass is conserved to rounding and the energy error oscillates at O(dt^2).
Momentum is conserved as well: the nonlinear phase depends on |u| only,
and the integral of |u|^2 times the gradient of that phase over the torus
is the integral of an exact gradient.

strang_step() and evolve() share one kernel.  Because P leaves |u|
unchanged, P(dt/2) P(dt/2) = P(dt) exactly, so m consecutive steps are
marched as the fused composition (Strang 1968)

    P(dt/2) F(dt) [P(dt) F(dt)]^(m-1) P(dt/2)

with one phase rotation per step instead of two.  The closing half-step
is applied only where the state is observed: at a snapshot, at a stored
checkpoint and at the last step; the non-finite check runs at each of
those points.  Fusing moves results by rounding only.  The phase is
built from cos and sin of the real angle; the free flow runs the FFT pair
in place through numpy.fft's out= (numpy 2.0 or later).  With both couplings zero the kernel is the free-flow
multiplier alone, bit-identical to spectral.free_evolve.

evolve() marches to t_final, records functional snapshots at a fixed step
cadence, and aborts the moment the recorded diagnostics say the grid has
stopped representing the solution:

    resolution_lost   spectral tail fraction above tail_fraction_max
    box_escape        mass within edge_cells of the boundary above
                      edge_mass_max (radiation reached the box edge)
    blowup_detected   |grad u| grew past blowup_grad_factor times its
                      initial value while the tail threshold is exceeded,
                      i.e. focusing collapse reached grid scale

The scattering diagnostic accumulates the time integral of the grid
L^{2(d+2)/d} norm (to that power) of u weighted by (1 + |k|^{s_p}) on the
Fourier side, by the left-endpoint rule at snapshot times.  Saturation of
this accumulator, decay of the L^{p+1} norm, and a Cauchy test on
free-flow pullbacks of stored checkpoints make up the scattering proxy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .functionals import ModelParams, snapshot
from .spectral import (
    ComplexField,
    GridSpec,
    _apply_symbol,
    derivative_weight_multiplier,
    edge_mass_fraction,
    free_evolve,
    lp_norm,
    spectral_tail_fraction,
)
from .virial import (
    VirialWeight,
    virial_derivatives,
    virial_value,
    whole_space_virial_e2,
)

__all__ = [
    "OUTCOMES",
    "StepperConfig",
    "TrajectoryLog",
    "VirialRow",
    "BlowupReport",
    "ScatterReport",
    "strang_step",
    "evolve",
    "detect_blowup",
    "scattering_proxy",
]

OUTCOMES = ("completed", "blowup_detected", "resolution_lost", "box_escape")


@dataclass(frozen=True)
class StepperConfig:
    """Step size, horizon, cadences, and abort thresholds."""

    dt: float
    t_final: float
    snapshot_every: int = 20
    checkpoint_every: int = 0      # steps between stored fields; 0 keeps ends only
    blowup_grad_factor: float = 1e3
    tail_fraction_max: float = 1e-6
    edge_mass_max: float = 1e-10
    edge_cells: int = 4

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be nonnegative")
        for name in ("blowup_grad_factor", "tail_fraction_max", "edge_mass_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.edge_cells < 1:
            raise ValueError("edge_cells must be at least 1")


@dataclass(frozen=True)
class VirialRow:
    """Virial diagnostics at one snapshot time.

    Localized runs fill every column; whole-space runs fill only
    v_double_prime and leave the rest None.
    """

    t: float
    value: float | None
    v_prime: float | None
    v_double_prime: float
    remainder: float | None
    exterior_integral: float | None


@dataclass(eq=False)
class TrajectoryLog:
    """Everything recorded along one run.

    Series are aligned: times[j] matches snapshots[j], tail_fractions[j],
    edge_fractions[j], and scatter_series[j] (the cumulative diagnostic up
    to times[j]).  Checkpoints are (t, field) pairs and always include the
    initial and final states.  dt_used is the step size after the nudge
    onto t_final, n_steps the number of such steps that reaches t_final.
    """

    params: ModelParams
    config: StepperConfig
    dt_used: float = 0.0
    n_steps: int = 0
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    tail_fractions: list = field(default_factory=list)
    edge_fractions: list = field(default_factory=list)
    scatter_series: list = field(default_factory=list)
    virial_rows: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    outcome: str = "running"
    abort_time: float | None = None
    abort_detail: str = ""
    energy_drift: float | None = None
    final_state: ComplexField | None = None

    @property
    def scatter_accum(self) -> float:
        return self.scatter_series[-1] if self.scatter_series else 0.0

    def gradient_ratio(self, j: int) -> float:
        """|grad u(t_j)| over its initial value."""
        g0 = self.snapshots[0].grad_l2_sq
        gj = self.snapshots[j].grad_l2_sq
        if g0 <= 0.0:
            return math.inf if gj > 0.0 else 1.0
        return math.sqrt(gj / g0)


# -- the stepping kernel ------------------------------------------------------

@lru_cache(maxsize=32)
def _kinetic_phase(grid: GridSpec, dt: float) -> np.ndarray:
    ph = np.exp(-1j * dt * grid.k_squared)
    ph.setflags(write=False)
    return ph


def _abs2_power(a2: np.ndarray, e: float) -> np.ndarray:
    # the common cases 4/d and (p-1)/2 with d in {1,2}, p in {4,5,7} are
    # integer or half-integer powers of |u|^2; spelling them out beats
    # np.power by a lot in the loop
    if e == 1.0:
        return a2
    if e == 1.5:
        return a2 * np.sqrt(a2)
    if e == 2.0:
        return a2 * a2
    if e == 3.0:
        return a2 * a2 * a2
    return a2**e


def _nonlinear_terms(mp: ModelParams, couplings) -> tuple:
    """((mu, e), ...) with the phase rate sum mu |u|^(2e); zero couplings dropped."""
    mu_c, mu_p = mp.couplings if couplings is None else couplings
    terms = ((float(mu_c), 2.0 / mp.d), (float(mu_p), (mp.p - 1.0) / 2.0))
    return tuple((mu, e) for mu, e in terms if mu != 0.0)


def _rotate(values, tau, terms):
    """P(tau) in place: u <- u exp(-i tau sum mu |u|^(2e))."""
    a2 = values.real * values.real + values.imag * values.imag
    (mu, e), *rest = terms
    theta = mu * _abs2_power(a2, e)
    for mu, e in rest:
        theta += mu * _abs2_power(a2, e)
    theta *= -tau
    phase = np.empty(values.shape, dtype=np.complex128)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    values *= phase


def _free(values, kin):
    """F(dt) in place, bit-identical to spectral.free_evolve: numpy's
    complex product is not bitwise commutative, so the symbol stays the
    left operand."""
    np.fft.fftn(values, out=values)
    np.multiply(kin, values, out=values)
    np.fft.ifftn(values, out=values)


def _advance(values, n, dt, terms, kin):
    """n Strang steps of size dt, in place.

    Adjacent half-steps merge, P(dt/2) P(dt/2) = P(dt), because P leaves
    |u| unchanged; the closing half-step is applied once, after the last
    free flight, so the state is a whole number of steps on return.
    """
    if not terms:
        for _ in range(n):
            _free(values, kin)
        return
    _rotate(values, 0.5 * dt, terms)
    for _ in range(n - 1):
        _free(values, kin)
        _rotate(values, dt, terms)
    _free(values, kin)
    _rotate(values, 0.5 * dt, terms)


def strang_step(
    u: ComplexField,
    mp: ModelParams,
    dt: float,
    *,
    couplings: tuple | None = None,
) -> ComplexField:
    """Advance one symmetric split step of size dt (negative dt runs the
    scheme backwards; the composition with +dt is the identity to rounding).

    couplings overrides the equation's (mu_critical, mu_super) pair, which
    is how reduced models (single nonlinearity, or none) are exercised.
    """
    dt = float(dt)
    v = u.values.copy()
    _advance(v, 1, dt, _nonlinear_terms(mp, couplings), _kinetic_phase(u.grid, dt))
    finite = bool(np.all(np.isfinite(v)))
    return ComplexField(u.grid, v, allow_nonfinite=not finite)


# -- full trajectories --------------------------------------------------------

def _scatter_integrand(values, grid, weight_symbol, mc_power) -> float:
    wf = _apply_symbol(values, weight_symbol)
    a2 = wf.real * wf.real + wf.imag * wf.imag
    return float(np.sum(_abs2_power(a2, 0.5 * mc_power)) * grid.cell_volume)


def _virial_row(f, mp, t, weight, whole_space) -> VirialRow:
    if whole_space:
        return VirialRow(t, None, None, whole_space_virial_e2(f, mp), None, None)
    vd = virial_derivatives(f, mp, weight)
    return VirialRow(
        t,
        virial_value(f, weight),
        vd.v_prime,
        vd.v_double_prime,
        vd.remainder,
        vd.exterior_integral,
    )


def evolve(
    u0: ComplexField,
    mp: ModelParams,
    cfg: StepperConfig,
    *,
    couplings: tuple | None = None,
    virial_weight: VirialWeight | None = None,
    whole_space_virial: bool = False,
) -> TrajectoryLog:
    """March u0 to cfg.t_final and return the trajectory log.

    dt is nudged so an integer number of steps lands exactly on t_final.
    Diagnostics and abort checks run at the snapshot cadence, and the
    non-finite check also at checkpoint steps; the snapshot that trips a
    threshold is recorded before the run stops, and the abort reason lands
    in .outcome / .abort_detail.  virial_weight attaches localized virial
    rows (E1 only); whole_space_virial attaches the flat-weight second
    derivative (E2 only).
    """
    if virial_weight is not None and whole_space_virial:
        raise ValueError("choose localized or whole-space virial rows, not both")
    edge0 = edge_mass_fraction(u0, cfg.edge_cells)
    if edge0 > cfg.edge_mass_max:
        raise ValueError(
            f"initial data violates the edge-decay precondition: "
            f"edge mass fraction {edge0:.3e} > {cfg.edge_mass_max:.3e}"
        )

    grid = u0.grid
    terms = _nonlinear_terms(mp, couplings)
    n_steps = max(int(round(cfg.t_final / cfg.dt)), 1)
    dt = cfg.t_final / n_steps
    kin = _kinetic_phase(grid, dt)
    wsym = derivative_weight_multiplier(grid, mp.s_p).symbol
    mcp = mp.mc_power

    log = TrajectoryLog(params=mp, config=cfg, dt_used=dt, n_steps=n_steps)

    def record(values, t):
        f = ComplexField(grid, values)
        log.times.append(t)
        log.snapshots.append(snapshot(f, mp, t))
        log.tail_fractions.append(spectral_tail_fraction(f))
        log.edge_fractions.append(edge_mass_fraction(f, cfg.edge_cells))
        if virial_weight is not None or whole_space_virial:
            log.virial_rows.append(_virial_row(f, mp, t, virial_weight, whole_space_virial))
        return f

    values = u0.values.copy()
    f = record(values, 0.0)
    log.checkpoints.append((0.0, f))
    accum = 0.0
    log.scatter_series.append(accum)
    last_g = _scatter_integrand(values, grid, wsym, mcp)
    last_t = 0.0
    grad0 = math.sqrt(max(log.snapshots[0].grad_l2_sq, 0.0))

    step = 0
    while step < n_steps:
        # march straight to the next step whose state is observed
        target = min(n_steps, (step // cfg.snapshot_every + 1) * cfg.snapshot_every)
        if cfg.checkpoint_every:
            target = min(target, (step // cfg.checkpoint_every + 1) * cfg.checkpoint_every)
        _advance(values, target - step, dt, terms, kin)
        step = target
        t = step * dt

        if not np.all(np.isfinite(values)):
            # overflow between snapshots; classify from the last good record
            ratio = log.gradient_ratio(len(log.snapshots) - 1)
            log.outcome = (
                "blowup_detected" if ratio > cfg.blowup_grad_factor else "resolution_lost"
            )
            log.abort_time = t
            log.abort_detail = f"non-finite amplitudes at t = {t:.6g}"
            log.final_state = ComplexField(grid, values, allow_nonfinite=True)
            return log

        if step % cfg.snapshot_every and step != n_steps:
            log.checkpoints.append((t, ComplexField(grid, values)))
            continue

        f = record(values, t)
        accum += (t - last_t) * last_g
        log.scatter_series.append(accum)
        last_g = _scatter_integrand(values, grid, wsym, mcp)
        last_t = t

        tail = log.tail_fractions[-1]
        edge = log.edge_fractions[-1]
        gnow = math.sqrt(log.snapshots[-1].grad_l2_sq)
        ratio = gnow / grad0 if grad0 > 0 else (math.inf if gnow > 0 else 1.0)
        if ratio > cfg.blowup_grad_factor and tail > cfg.tail_fraction_max:
            log.outcome = "blowup_detected"
            log.abort_detail = (
                f"gradient ratio {ratio:.4g} with spectral tail {tail:.3e}"
            )
        elif tail > cfg.tail_fraction_max:
            log.outcome = "resolution_lost"
            log.abort_detail = f"spectral tail fraction {tail:.3e}"
        elif edge > cfg.edge_mass_max:
            log.outcome = "box_escape"
            log.abort_detail = f"edge mass fraction {edge:.3e}"
        if log.outcome != "running":
            log.abort_time = t
            log.checkpoints.append((t, f))
            log.final_state = f
            return log

        if cfg.checkpoint_every and step % cfg.checkpoint_every == 0 and step != n_steps:
            log.checkpoints.append((t, f))

    log.outcome = "completed"
    log.checkpoints.append((log.times[-1], f))
    log.final_state = f
    e0 = log.snapshots[0].energy
    drift = max(abs(s.energy - e0) for s in log.snapshots)
    log.energy_drift = drift / max(abs(e0), 1e-30)
    return log


# -- outcome analysis ---------------------------------------------------------

@dataclass(frozen=True)
class BlowupReport:
    detected: bool
    time: float | None
    diagnosis: str


def detect_blowup(log: TrajectoryLog, cfg: StepperConfig | None = None) -> BlowupReport:
    """Scan recorded snapshots for gradient growth that reached grid scale.

    Detection requires both signals at the same snapshot: |grad u| above
    cfg.blowup_grad_factor times its initial value, and spectral tail
    fraction above cfg.tail_fraction_max.  Growth without concentration,
    or concentration without growth, is reported as such and not counted
    as blow-up.
    """
    if not log.snapshots:
        raise ValueError("empty trajectory log")
    if cfg is None:
        cfg = log.config
    grew = False
    for j, (snap, tail) in enumerate(zip(log.snapshots, log.tail_fractions)):
        ratio = log.gradient_ratio(j)
        if ratio > cfg.blowup_grad_factor:
            grew = True
            if tail > cfg.tail_fraction_max:
                return BlowupReport(
                    True,
                    snap.t,
                    f"gradient ratio {ratio:.4g} with spectral tail {tail:.3e} "
                    f"at t = {snap.t:.6g}",
                )
    if log.outcome == "blowup_detected" and log.abort_time is not None:
        # overflow between snapshots, classified by evolve at abort time
        return BlowupReport(True, log.abort_time, log.abort_detail)
    if grew:
        return BlowupReport(False, None, "gradient growth without grid-scale concentration")
    if any(t > cfg.tail_fraction_max for t in log.tail_fractions):
        return BlowupReport(False, None, "resolution loss without gradient growth")
    return BlowupReport(False, None, "no focusing growth observed")


@dataclass(frozen=True)
class ScatterReport:
    """Scattering proxy: saturation PASS/FAIL plus the raw diagnostics."""

    passed: bool
    accumulated: float
    mean_rate: float
    late_rate: float
    decay_factor: float
    cauchy_distance: float | None


def scattering_proxy(log: TrajectoryLog) -> ScatterReport:
    """Saturation, decay, and free-flow Cauchy diagnostics of a completed run.

    passed means the accumulator's growth rate over the last quarter of the
    run fell below 1% of its whole-run mean rate.  decay_factor is max over
    final of the L^{p+1} norm.  cauchy_distance is the largest relative L^2
    distance between free-flow pullbacks of last-quarter checkpoints and
    the final pullback (None when fewer than two were stored).
    """
    if log.outcome != "completed":
        raise ValueError(
            f"scattering proxy requires a completed run, got outcome {log.outcome!r}"
        )
    times, series = log.times, log.scatter_series
    span = times[-1] - times[0]
    total = series[-1] - series[0]
    if span <= 0:
        raise ValueError("degenerate trajectory: no time elapsed")
    mean_rate = total / span
    t_q = times[-1] - 0.25 * span
    j = bisect.bisect_right(times, t_q) - 1
    j = max(j, 0)
    late_span = times[-1] - times[j]
    late_rate = (series[-1] - series[j]) / late_span if late_span > 0 else 0.0
    passed = total == 0.0 or late_rate < 0.01 * mean_rate

    p1 = log.params.p + 1.0
    norms = [s.lp1 ** (1.0 / p1) for s in log.snapshots]
    decay_factor = max(norms) / norms[-1] if norms[-1] > 0 else math.inf

    late_cps = [(t, f) for t, f in log.checkpoints if t >= t_q - 1e-12 * max(span, 1.0)]
    cauchy = None
    if len(late_cps) >= 2:
        backs = [free_evolve(f, -t) for t, f in late_cps]
        ref = backs[-1]
        scale = lp_norm(ref, 2.0)
        if scale > 0:
            cauchy = max(
                lp_norm(ComplexField(ref.grid, b.values - ref.values), 2.0) / scale
                for b in backs[:-1]
            )
    return ScatterReport(passed, series[-1], mean_rate, late_rate, decay_factor, cauchy)
