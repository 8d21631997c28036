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

strang_step(), evolve() and evolve_stack() share one kernel.  Because
P leaves |u| unchanged, P(dt/2) P(dt/2) = P(dt) exactly, so m
consecutive steps are marched as the fused composition (Strang 1968)

    P(dt/2) F(dt) [P(dt) F(dt)]^(m-1) P(dt/2)

with one phase rotation per step instead of two.  The closing half-step
is applied only where the state is observed: at a snapshot, at a stored
checkpoint and at the last step; the non-finite check runs at each of
those points.  Fusing moves results by rounding only.

The kernel makes no per-step temporaries: each call of the march
allocates the rotation's buffers once (the complex phase, whose storage
is scratch until the phase is built, |u|^2, the angle theta and a mask)
and every numpy op writes through out=.  The angle is computed with the same operations in
the same order as the plain theta = sum mu |u|^(2e); theta *= -tau,
except that a multiply by mu = 1 is skipped and one by mu = -1 becomes a
negation or a subtraction, which IEEE arithmetic makes exact.  The phase
cos(theta) + i sin(theta) takes cos and sin only over the flat index
window spanning every point with |theta| >= 2^-27 or NaN, found as the
first and last False of the mask |theta| < 2^-27; outside it the phase
is 1 + i theta.  That is exact, not an approximation: for |theta| < 2^-27,
theta^2/2 < 2^-55, so 1 and theta are the correctly rounded cos and sin,
and numpy returns them (tests/test_propagator.py checks this premise, and
that a slice computes what the whole array computes).  A focused or
dispersed field is tiny over most of the box, so in 1-D the window is
a few percent of the grid or less.

The free flow is spectral._apply_symbol, the one free-flow and
multiplier product: the FFT pair in place through spectral._transform,
one axis at a time through numpy.fft's out= (numpy 2.0 or later), last
axis first as fftn and ifftn do, so it is their arithmetic bit for bit,
with the symbol as the left operand of the product.  The step is
therefore bitwise the plain full-array composition, and with both
couplings zero it is bitwise spectral.free_evolve on every grid; a
record's forward transform, the scattering integrand's inverse and the
proxy's pullbacks take the same per-axis path.

evolve_stack() marches B flights that share a grid, a model and a record
cadence as one array of shape (B, *grid); evolve() is a stack of one,
and every stack, a stack of one included, takes the same march path.
On the small grids of a threshold sweep a step is bound by numpy's
per-call overhead, not by arithmetic, so one ufunc or FFT call serving
B flights saves most of the cost of B - 1 calls, and numpy's pocketfft
runs two or more lines through its multi-line SIMD path.  The FFTs run
over the trailing grid axes only and every other operation is
elementwise; numpy transforms each line of a stack to the bits it gives
the line alone (tests/test_propagator.py checks this), so every flight
stays bitwise its lone march.  The cos/sin window is the flat window of
the union of the flights' masks; where it is wider than a flight's own,
cos and sin return that flight's 1 and theta, so no bit moves.  The
exception is a NaN's sign, which numpy's multi-line FFT may flip: an
overflowed state is stored with each NaN float64 as numpy's one quiet
NaN, np.nan, so a flight's abort state too is bitwise the same stacked
or alone.  A flight that stops leaves the stack, the others being
copied into a smaller array.

Each flight keeps its own step size, horizon and abort thresholds.  A
stack takes the rotation's angle factor as a column of one -dt per
flight, and the free flow's symbol as a (B, *grid) array built once per
stack from the cached symbols (a view of its flight's for a stack of
one), row i the symbol of flight i's step, whose rows leave with their
flights; both ops stay elementwise per flight, so no bit moves.  The
stack marches to the next step its shared cadence observes, so each
flight must end on such a step (_ends_on_cadence), or its last step
would split a mate's fused segment; flights that do not must share one
stepper (_mate_key).  A threshold sweep's two sides, scattering at
dt = 1e-4 and collapse at 1e-5 on one grid, so march as one stack: the
per-flight step and symbol cost nothing measurable over one shared
step, and do not undo the gain of stacking (BENCH_14.json,
stack_step_us and final_tree).

A record is one pass over the stack as well.  The live finite flights
that record at a step, every live flight on the shared cadence, take one
forward transform and one |u| for their (flights, *grid) rows; each
snapshot integral, the tail and edge fractions and the scattering
integrand is then a per-flight reduction over the grid axes, which
numpy computes to the bits of the flight's lone sum (tests/test_propagator.py
checks this premise), and each flight reads its own edge band.  Only
the list appends, the scattering sum, the blow-up criterion and the
abort decision loop over the flights.  snapshot(),
spectral_tail_fraction() and edge_mass_fraction() are the same code on
a stack of one.  A record builds a ComplexField only where a checkpoint,
the final state or a localized virial row needs one; virial rows run per
flight, on the record's row views.

A stack holds at most _STACK_BYTES = 128 KiB of fields
(_stack_capacity).  Every stack measured under that cap gained; past it
the gain is not reliable, since the FFT pair of a multi-line stack of
large lines can cost more per flight than a lone line's, and 2-D stacks
of 128^2 fields gain nothing (BENCH_13.json, stack_cap).  So a field
over 128 KiB marches alone, as a stack of one, as strang_step() steps
its field (timed in BENCH_15.json, stack_of_one_step).

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

By default evolve() keeps every checkpoint for the whole run, which is
what a check over all stored fields (acceptance gate 06) reads.  With
bounded_checkpoints=True it keeps only what the proxy reads: u0 itself at
t = 0, the final or abort state, and the checkpoints at or after
_late_quarter_start, the one cutoff evolve() and scattering_proxy() share.
So a long run holds a fixed number of fields, set by the checkpoint
cadence over the last quarter, instead of one per checkpoint.  The proxy
streams its pullbacks: the final one, then each earlier one in turn,
compared and dropped.  They are formed in one reused buffer, bitwise as
spectral.free_evolve forms them, so the Cauchy test holds three fields
over the log's: the final pullback, the one being compared and the
symbol, whose storage then takes the squared modulus of the difference.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .functionals import ModelParams, _snapshots
from .spectral import (
    ComplexField,
    GridSpec,
    _apply_symbol,
    _edge_fractions,
    _free_flow_symbol,
    _lp_norm,
    _row_sums,
    _tail_fractions,
    _transform,
    derivative_weight_multiplier,
    edge_mass_fraction,
)
from .virial import (
    VirialWeight,
    _whole_space_e2,
    virial_derivatives,
    virial_value,
)

# the lone monitors, which a record no longer calls, stay at the names
# perfbench's tracer looks up here
from .functionals import snapshot  # noqa: F401
from .spectral import spectral_tail_fraction  # noqa: F401
from .virial import whole_space_virial_e2  # noqa: F401

__all__ = [
    "OUTCOMES",
    "StepperConfig",
    "TrajectoryLog",
    "VirialRow",
    "BlowupReport",
    "ScatterReport",
    "strang_step",
    "evolve",
    "evolve_stack",
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
        if not math.isfinite(self.t_final / self.dt):
            # no step count reaches such a horizon
            raise ValueError(f"t_final / dt must be finite, got {self.t_final} / {self.dt}")
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
    initial state (u0 itself) and the final or abort state; in between
    they hold every stored checkpoint, or under evolve's
    bounded_checkpoints only those at or after _late_quarter_start.
    dt_used is the step size after the nudge onto t_final, n_steps the
    number of such steps that reaches t_final.
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
    final_state: ComplexField | None = None

    @property
    def scatter_accum(self) -> float:
        return self.scatter_series[-1] if self.scatter_series else 0.0

    @property
    def energy_drift(self) -> float:
        """Largest |E(t_j) - E(0)| over the records, relative to |E(0)|."""
        e0 = self.snapshots[0].energy
        return max(abs(s.energy - e0) for s in self.snapshots) / max(abs(e0), 1e-300)

    def gradient_ratio(self, j: int) -> float:
        """|grad u(t_j)| over its initial value."""
        g0 = self.snapshots[0].grad_l2_sq
        gj = self.snapshots[j].grad_l2_sq
        if g0 <= 0.0:
            return math.inf if gj > 0.0 else 1.0
        return math.sqrt(gj / g0)


# -- the stepping kernel ------------------------------------------------------

@lru_cache(maxsize=2)
def _kinetic_phase(grid: GridSpec, dt: float) -> np.ndarray:
    """The free-flow symbol of one step, kept for the flight or the
    strang_step loop that reuses it.  Two entries cover a loop that steps
    forwards and back; each is a grid-sized array, so a multi-config run
    keeps no more than two."""
    ph = _free_flow_symbol(grid, dt)
    ph.setflags(write=False)
    return ph


def _abs2_power(a2: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """|u|^(2e) from a2 = |u|^2, into out (a new array when None; a2 itself
    when e == 1).  out must not be a2."""
    # the common cases 4/d and (p-1)/2 with d in {1,2}, p in {4,5,7} are
    # integer or half-integer powers of |u|^2; spelling them out beats
    # np.power by a lot in the loop
    if e == 1.0:
        return a2
    if e == 1.5:
        r = np.sqrt(a2, out=out)
        return np.multiply(a2, r, out=r)
    if e == 2.0:
        return np.multiply(a2, a2, out=out)
    if e == 3.0:
        r = np.multiply(a2, a2, out=out)
        return np.multiply(r, a2, out=r)
    return np.power(a2, e, out=out)


def _nonlinear_terms(mp: ModelParams, couplings: tuple | None = None) -> tuple:
    """((mu, e), ...) with the phase rate sum mu |u|^(2e); zero couplings dropped."""
    mu_c, mu_p = mp.couplings if couplings is None else couplings
    terms = ((float(mu_c), 2.0 / mp.d), (float(mu_p), (mp.p - 1.0) / 2.0))
    return tuple((mu, e) for mu, e in terms if mu != 0.0)


# below this |theta|, theta^2/2 < 2^-55 and the correctly rounded cos and
# sin are 1 and theta themselves
_TINY_PHASE = 2.0**-27


class _Workspace(NamedTuple):
    """The rotation's buffers for a stack of one shape, (flights, *grid),
    with the views it reads them through."""

    phase: np.ndarray       # complex phase; its float64 storage is scratch until built
    squares: tuple          # that storage's (re*re, im*im) halves of each pair
    a2: np.ndarray          # |u|^2
    scratch: np.ndarray     # the storage's first half, shaped as a2
    theta: np.ndarray
    small: np.ndarray       # |theta| < _TINY_PHASE
    rows: tuple             # theta, phase.real, phase.imag, small as (flights, grid
                            # points), or flat for a stack of one
    union: np.ndarray       # small in every flight, per grid point: a buffer of its
                            # own for two or more flights, the flat small for one


def _workspace(shape) -> _Workspace:
    """Buffers and views for a stack of the given shape, (flights, *grid)."""
    phase = np.empty(shape, dtype=np.complex128)
    a2, theta = np.empty(shape), np.empty(shape)
    small = np.empty(shape, dtype=bool)
    flights = shape[0]
    rows = (flights, -1) if flights > 1 else (-1,)
    flat = phase.reshape(rows)
    squares = phase.view(np.float64)
    return _Workspace(
        phase, (squares[..., 0::2], squares[..., 1::2]), a2,
        squares.reshape(-1)[:a2.size].reshape(shape), theta, small,
        (theta.reshape(rows), flat.real, flat.imag, small.reshape(rows)),
        np.empty(flat.shape[-1], dtype=bool) if flights > 1 else small.reshape(-1),
    )


def _rotate(values, rate, terms, ws):
    """P(tau) in place for rate = -tau: u <- u exp(i rate sum mu |u|^(2e)),
    through the buffers ws of _workspace.  rate is a float, or a column of
    one per flight of a stack, (flights, 1, ..., 1).  cos and sin run only
    over the flat index window of grid points holding every theta, in any
    flight, that is NaN or at least _TINY_PHASE in size; outside it the
    phase is 1 + i theta, the values they return there (see the module
    docstring)."""
    # |u|^2 = re*re + im*im: the interleaved pairs are squared in one
    # contiguous pass into the phase's storage, then added; the storage's
    # first half then takes the second power term and |theta|
    np.multiply(values.view(np.float64), values.view(np.float64), out=ws.phase.view(np.float64))
    a2, scratch, theta = ws.a2, ws.scratch, ws.theta
    np.add(*ws.squares, out=a2)
    (mu, e), *rest = terms
    acc = _abs2_power(a2, e, out=theta)
    if mu == -1.0:
        acc = np.negative(acc, out=theta)
    elif mu != 1.0:
        acc = np.multiply(acc, mu, out=theta)
    for mu, e in rest:
        r = _abs2_power(a2, e, out=scratch)
        if mu == -1.0:
            acc = np.subtract(acc, r, out=theta)
            continue
        if mu != 1.0:
            r = np.multiply(r, mu, out=scratch)
        acc = np.add(acc, r, out=theta)
    np.multiply(acc, rate, out=theta)

    np.abs(theta, out=scratch)
    np.less(scratch, _TINY_PHASE, out=ws.small)
    th, re, im, small = ws.rows
    if small.ndim > 1:
        np.logical_and.reduce(small, axis=0, out=ws.union)
    small = ws.union
    n = small.size
    # the first and last grid point outside the mask; an all-True mask
    # gives the empty window [0, 0)
    lo = int(small.argmin())
    hi = small.tobytes().rfind(b"\x00") + 1
    np.cos(th[..., lo:hi], out=re[..., lo:hi])
    np.sin(th[..., lo:hi], out=im[..., lo:hi])
    for part in (slice(0, lo), slice(hi, n)):
        re[..., part] = 1.0
        im[..., part] = th[..., part]
    np.multiply(values, ws.phase, out=values)


def _advance(values, n, dt, terms, kin):
    """n Strang steps, in place, of a stack of fields, (flights, *grid);
    dt is a float or a column (flights, 1, ..., 1) of each flight's step,
    and kin, of shape (flights, *grid), each flight's free-flow symbol.
    Every op is elementwise per flight, so each takes its steps bitwise as
    it would alone.

    Adjacent half-steps merge, P(dt/2) P(dt/2) = P(dt), because P leaves
    |u| unchanged; the closing half-step is applied once, after the last
    free flight, so the state is a whole number of steps on return.  The
    rotation's buffers are allocated once per call.
    """
    rank = values.ndim - 1
    if not terms:
        for _ in range(n):
            _apply_symbol(values, kin, values, rank)
        return
    ws = _workspace(values.shape)
    # -(dt/2) and -dt, exact
    half, whole = -0.5 * dt, -dt
    _rotate(values, half, terms, ws)
    for _ in range(n - 1):
        _apply_symbol(values, kin, values, rank)
        _rotate(values, whole, terms, ws)
    _apply_symbol(values, kin, values, rank)
    _rotate(values, half, terms, ws)


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
    # a stack of one
    v = u.values[np.newaxis].copy()
    _advance(v, 1, dt, _nonlinear_terms(mp, couplings), _kinetic_phase(u.grid, dt)[np.newaxis])
    finite = bool(np.all(np.isfinite(v)))
    return ComplexField(u.grid, v[0], allow_nonfinite=not finite)


# -- full trajectories --------------------------------------------------------

def _scatter_integrand(spectrum, grid, weight_symbol, mc_power) -> np.ndarray:
    """The scattering integrand of each field of a stack, (flights, *grid),
    from the stack's per-field np.fft.fftn, which it overwrites: the
    record's last reader, so no buffer is added."""
    wf = np.multiply(weight_symbol, spectrum, out=spectrum)
    _transform(np.fft.ifft, wf, wf, grid.d)
    a2 = wf.real * wf.real + wf.imag * wf.imag
    return _row_sums(_abs2_power(a2, 0.5 * mc_power)) * grid.cell_volume


def _virial_row(mp, t, snap, weight, f=None, spec=None, modulus=None) -> VirialRow:
    # K is the snapshot's: both kinds of row read it rather than form it
    # again, and a whole-space row (weight None) reads nothing else
    if weight is None:
        return VirialRow(t, None, None, _whole_space_e2(mp, snap), None, None)
    vd = virial_derivatives(f, mp, weight, spectrum=spec, modulus=modulus)
    return VirialRow(
        t,
        virial_value(f, weight, modulus=modulus),
        vd.v_prime,
        vd.v_double_prime,
        vd.v_double_prime - 8.0 * snap.scaling_derivative,
        vd.exterior_integral,
    )


def _late_quarter_start(t_end: float, t_start: float = 0.0) -> float:
    """Earliest checkpoint time the proxy's Cauchy test reads on a run
    recorded from t_start to t_end: the start of the last quarter, less a
    rounding allowance.  For a completed evolve() run t_end is n_steps *
    dt_used, its last record's time."""
    span = t_end - t_start
    return t_end - 0.25 * span - 1e-12 * max(span, 1.0)


# a stack's fields together stay within this many bytes: every stack
# measured under it gained, and past it the gain is not reliable (see the
# module docstring)
_STACK_BYTES = 128 * 1024


def _stack_capacity(grid: GridSpec) -> int:
    """How many flights on grid march as one stack: as many as fit in
    _STACK_BYTES, and at least one."""
    return max(1, _STACK_BYTES // (16 * grid.size))


def _step_count(cfg: StepperConfig) -> int:
    """The number of steps that reaches cfg.t_final, at least one."""
    return max(int(round(cfg.t_final / cfg.dt)), 1)


def _ends_on_cadence(cfg: StepperConfig) -> bool:
    """cfg's last step is one its record cadence observes: a multiple of
    snapshot_every or of a nonzero checkpoint_every.  Only such a flight
    may share a stack with flights of another length, since every other
    last step would split its mates' fused segments."""
    n = _step_count(cfg)
    every = cfg.checkpoint_every
    return n % cfg.snapshot_every == 0 or bool(every) and n % every == 0


def _mate_key(cfg: StepperConfig):
    """What of cfg its stack-mates must share: its record cadence when its
    last step is one the cadence observes, else the whole stepper."""
    return (cfg.snapshot_every, cfg.checkpoint_every) if _ends_on_cadence(cfg) else cfg


def _check_mates(cfgs) -> None:
    """evolve_stack()'s rule for the steppers of one stack: one _mate_key;
    ValueError says whether the cadence or a last step fails it."""
    cadences = {(cfg.snapshot_every, cfg.checkpoint_every) for cfg in cfgs}
    if len(cadences) > 1:
        raise ValueError("the flights of a stack must share snapshot_every and checkpoint_every")
    if len({_mate_key(cfg) for cfg in cfgs}) > 1:
        raise ValueError(
            "flights of a stack must each end on a step their record cadence "
            "observes, or share one stepper config"
        )


def _check_initial_data(u0: ComplexField, cfg: StepperConfig) -> None:
    """evolve()'s preconditions on u0: finite samples, and edge mass within
    cfg.edge_mass_max; ValueError names the one that fails."""
    if u0.allow_nonfinite and not np.all(np.isfinite(u0.values)):
        # a loaded field may hold NaN or inf for post-mortems; not as data
        raise ValueError("initial data contains non-finite samples")
    edge0 = edge_mass_fraction(u0, cfg.edge_cells)
    if edge0 > cfg.edge_mass_max:
        raise ValueError(
            f"initial data violates the edge-decay precondition: "
            f"edge mass fraction {edge0:.3e} > {cfg.edge_mass_max:.3e}"
        )


def evolve(
    u0: ComplexField,
    mp: ModelParams,
    cfg: StepperConfig,
    *,
    virial_weight: VirialWeight | None = None,
    whole_space_virial: bool = False,
    bounded_checkpoints: bool = False,
) -> TrajectoryLog:
    """March u0 to cfg.t_final and return the trajectory log.

    dt is nudged so an integer number of steps lands exactly on t_final.
    Diagnostics and abort checks run at the snapshot cadence, and the
    non-finite check also at checkpoint steps; the snapshot that trips a
    threshold is recorded before the run stops, and the abort reason lands
    in .outcome / .abort_detail.  virial_weight attaches localized virial
    rows (E1 only); whole_space_virial attaches the flat-weight second
    derivative (E2 only).

    The log's first checkpoint is u0 itself, not a copy.  By default every
    checkpoint is kept; bounded_checkpoints=True drops those before
    _late_quarter_start(n_steps * dt_used), which scattering_proxy never
    reads, so the log holds u0, the late-quarter checkpoints and the final
    or abort state; an abort on non-finite amplitudes stores each NaN as
    np.nan.

    This is evolve_stack() on a stack of one.
    """
    return evolve_stack([u0], mp, [cfg], virial_weight=virial_weight,
                        whole_space_virial=whole_space_virial,
                        bounded_checkpoints=bounded_checkpoints)[0]


def evolve_stack(
    u0s: list,
    mp: ModelParams,
    cfgs: list,
    *,
    virial_weight: VirialWeight | None = None,
    whole_space_virial: bool = False,
    bounded_checkpoints: bool = False,
) -> list:
    """March flights that share a grid, a model and a record cadence as one
    stack, (flights, *grid), and return their logs in order; cfgs holds
    each flight's stepper.

    Each log is bitwise the one evolve() returns for its flight alone:
    every flight steps with its own dt_used, records, aborts and
    checkpoints on its own, as evolve() describes, and one that stops
    leaves the stack, the others being copied into a smaller array.  Each
    segment between observed steps is one kernel call on the whole
    stack, whatever its size.  A state that overflowed stores each NaN as
    np.nan, the NaN's sign being the one bit a stack may change.  The
    steppers must share snapshot_every and checkpoint_every, and each
    flight must end on a step that cadence observes (_ends_on_cadence),
    or else all must share one stepper (_mate_key); every flight must
    meet evolve()'s preconditions.  Otherwise ValueError is raised before
    any step; a lone StepperConfig in place of the list, TypeError.  A
    stack should hold no more than _stack_capacity(grid) flights, past
    which the gain of stacking is not reliable.
    """
    if isinstance(cfgs, StepperConfig):
        raise TypeError("evolve_stack takes a list of StepperConfig, one per flight")
    if virial_weight is not None and whole_space_virial:
        raise ValueError("choose localized or whole-space virial rows, not both")
    if len(cfgs) != len(u0s):
        raise ValueError(f"{len(u0s)} flights need as many stepper configs, got {len(cfgs)}")
    grid = u0s[0].grid
    if any(u0.grid != grid for u0 in u0s):
        raise ValueError("the flights of a stack must share one grid")
    _check_mates(cfgs)
    for u0, cfg in zip(u0s, cfgs):
        _check_initial_data(u0, cfg)

    terms = _nonlinear_terms(mp)
    logs = []
    for cfg in cfgs:
        n_steps = _step_count(cfg)
        logs.append(TrajectoryLog(params=mp, config=cfg, dt_used=cfg.t_final / n_steps,
                                  n_steps=n_steps))
    keep_from = [_late_quarter_start(log.n_steps * log.dt_used) if bounded_checkpoints
                 else -math.inf for log in logs]
    every, ckpt_every = cfgs[0].snapshot_every, cfgs[0].checkpoint_every
    # a step per flight: a column of them and a symbol per flight, whose
    # rows leave with their flights; a lone flight's row is a view of the
    # cached one
    dt = np.array([log.dt_used for log in logs]).reshape((-1,) + (1,) * grid.d)
    kins = [_kinetic_phase(grid, log.dt_used) for log in logs]
    kin = np.stack(kins) if len(kins) > 1 else kins[0][np.newaxis]
    wsym = derivative_weight_multiplier(grid, mp.s_p).symbol
    mcp = mp.mc_power

    def record(x, flights, step):
        # every flight of the stack x, (flights, *grid), records at once: one
        # forward FFT and one |u| for the stack, shared by every diagnostic,
        # each a per-flight reduction; returns each flight's scattering
        # integrand
        spec = _transform(np.fft.fft, x, np.empty_like(x), grid.d)
        a = np.abs(x)
        ts = [step * logs[i].dt_used for i in flights]
        snaps, dens, totals = _snapshots(grid, mp, ts, spec, a)
        edges = _edge_fractions(dens, totals, grid, [logs[i].config.edge_cells for i in flights])
        # |u|^2 and |u| are dropped once read, so that a stack of one holds
        # no more at once than a lone record did
        del dens
        tails = _tail_fractions(spec, grid)
        for row, (i, t, snap, tail, edge) in enumerate(zip(flights, ts, snaps, tails.tolist(),
                                                           edges.tolist())):
            log = logs[i]
            log.times.append(t)
            log.snapshots.append(snap)
            log.tail_fractions.append(tail)
            log.edge_fractions.append(edge)
            if virial_weight is not None:
                f = ComplexField(grid, x[row])
                log.virial_rows.append(
                    _virial_row(mp, t, snap, virial_weight, f, spec[row], a[row])
                )
            elif whole_space_virial:
                log.virial_rows.append(_virial_row(mp, t, snap, None))
        del a
        return _scatter_integrand(spec, grid, wsym, mcp).tolist()

    # each flight's scattering integrand at its last record, summed by the
    # left-endpoint rule at its next one
    values = np.stack([u0.values for u0 in u0s])
    live = list(range(len(u0s)))     # the log of each row of values
    pending = record(values, live, 0)
    for log, u0 in zip(logs, u0s):
        log.checkpoints.append((0.0, u0))
        log.scatter_series.append(0.0)

    step = 0
    while live:
        # march straight to the next step whose state is observed, which
        # every live flight observes
        target = min(min(logs[i].n_steps for i in live), (step // every + 1) * every)
        if ckpt_every:
            target = min(target, (step // ckpt_every + 1) * ckpt_every)
        _advance(values, target - step, dt, terms, kin)
        step = target
        finite = np.isfinite(values).reshape(len(live), -1).all(axis=1)
        # the finite flights that record at this step, all of them together
        recording = [row for row, i in enumerate(live)
                     if finite[row] and (step % every == 0 or step == logs[i].n_steps)]
        recorded = {}
        if recording:
            recorded = dict(zip(recording, record(
                values if len(recording) == len(live) else values[recording],
                [live[row] for row in recording], step)))

        stopped = []
        for row, i in enumerate(live):
            log, cfg = logs[i], logs[i].config
            t = step * log.dt_used
            if not finite[row]:
                # overflow between snapshots: grid-scale concentration, so
                # the last good record's growth decides
                _, blowup = _blowup_criterion(log, len(log.snapshots) - 1, cfg, math.inf)
                log.outcome = "blowup_detected" if blowup else "resolution_lost"
                log.abort_time = t
                log.abort_detail = f"non-finite amplitudes at t = {t:.6g}"
                # numpy's multi-line FFT may give a NaN the other sign, so
                # each NaN is stored as np.nan; the row leaves the stack
                parts = values[row].view(np.float64)
                parts[np.isnan(parts)] = np.nan
                log.final_state = ComplexField(grid, values[row], allow_nonfinite=True)
                stopped.append(row)
                continue

            if row not in recorded:
                if t >= keep_from[i]:
                    log.checkpoints.append((t, ComplexField(grid, values[row])))
                continue

            # times[-2] is the previous record's
            log.scatter_series.append(log.scatter_series[-1] + (t - log.times[-2]) * pending[i])
            pending[i] = recorded[row]

            tail = log.tail_fractions[-1]
            edge = log.edge_fractions[-1]
            _, blowup = _blowup_criterion(log, len(log.snapshots) - 1, cfg, tail)
            if blowup:
                log.outcome = "blowup_detected"
                log.abort_detail = blowup
            elif tail > cfg.tail_fraction_max:
                log.outcome = "resolution_lost"
                log.abort_detail = f"spectral tail fraction {tail:.3e}"
            elif edge > cfg.edge_mass_max:
                log.outcome = "box_escape"
                log.abort_detail = f"edge mass fraction {edge:.3e}"
            if log.outcome != "running":
                log.abort_time = t
            elif step == log.n_steps:
                log.outcome = "completed"
            ends = log.outcome != "running"
            if ends or ckpt_every and step % ckpt_every == 0 and t >= keep_from[i]:
                f = ComplexField(grid, values[row])
                log.checkpoints.append((t, f))
                if ends:
                    log.final_state = f
                    stopped.append(row)

        if stopped:
            rows = [row for row in range(len(live)) if row not in stopped]
            values = values[rows]
            live = [live[row] for row in rows]
            dt, kin = dt[rows], kin[rows]
    return logs


# -- outcome analysis ---------------------------------------------------------

@dataclass(frozen=True)
class BlowupReport:
    detected: bool
    time: float | None
    diagnosis: str


def _blowup_criterion(log: TrajectoryLog, j: int, cfg: StepperConfig, tail: float):
    """The blow-up criterion at record j, as (grew, diagnosis).  grew: |grad u|
    passed cfg.blowup_grad_factor times its initial value.  diagnosis, None
    unless that growth came with a spectral tail above cfg.tail_fraction_max
    (the collapse reached grid scale), names both numbers."""
    ratio = log.gradient_ratio(j)
    grew = ratio > cfg.blowup_grad_factor
    if grew and tail > cfg.tail_fraction_max:
        return grew, f"gradient ratio {ratio:.4g} with spectral tail {tail:.3e}"
    return grew, None


def detect_blowup(log: TrajectoryLog) -> BlowupReport:
    """Scan recorded snapshots for gradient growth that reached grid scale.

    Detection requires both signals at the same snapshot: |grad u| above
    log.config.blowup_grad_factor times its initial value, and spectral
    tail fraction above log.config.tail_fraction_max.  Growth without
    concentration, or concentration without growth, is reported as such
    and not counted as blow-up.
    """
    if not log.snapshots:
        raise ValueError("empty trajectory log")
    cfg = log.config
    grew = False
    for j, (snap, tail) in enumerate(zip(log.snapshots, log.tail_fractions)):
        grew_j, blowup = _blowup_criterion(log, j, cfg, tail)
        grew |= grew_j
        if blowup:
            return BlowupReport(True, snap.t, f"{blowup} at t = {snap.t:.6g}")
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
    distance between free-flow pullbacks of last-quarter checkpoints (those
    at or after _late_quarter_start) and the final pullback (None when
    fewer than two were stored).  The final pullback is formed first; each
    earlier one is formed, compared and dropped, so two pullbacks at most
    are held at once.
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

    keep_from = _late_quarter_start(times[-1], times[0])
    late_cps = [(t, f) for t, f in log.checkpoints if t >= keep_from]
    cauchy = None
    if len(late_cps) >= 2:
        t_end, f_end = late_cps[-1]
        grid = f_end.grid
        # once a pullback is formed, the symbol's storage takes |difference|^2
        sym = np.empty(grid.shape, dtype=np.complex128)
        sq = sym.view(np.float64).reshape(-1)[: grid.size].reshape(grid.shape)
        ref = _pull_back(f_end, t_end, np.empty_like(sym), sym)
        scale = _lp_norm(ref, 2.0, grid.cell_volume, out=sq)
        if scale > 0:
            back = np.empty_like(sym)
            cauchy = max(
                _lp_norm(np.subtract(_pull_back(f, t, back, sym), ref, out=back), 2.0,
                         grid.cell_volume, out=sq) / scale
                for t, f in late_cps[:-1]
            )
    return ScatterReport(passed, series[-1], mean_rate, late_rate, decay_factor, cauchy)


def _pull_back(f: ComplexField, t: float, out: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """free_evolve(f, -t).values, bitwise, into out; the symbol is formed
    in sym, as free_flow_multiplier forms it."""
    return _apply_symbol(f.values, _free_flow_symbol(f.grid, -t, out=sym), out)
