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

The kernel binds each segment's step once (_advance): the free flow
(spectral._free_flow) and the rotation (_rotation) each become one
function over every view, axis, factor, twiddle table and op they need,
the power terms resolved to ops and a stack's rates spread over its
storage, so a step is a flat run of ufunc and gufunc calls through out=
with no per-step argument handling; on a threshold sweep's small grids
a step is bound by numpy's per-call overhead, not by arithmetic.  The
kernel makes no per-step temporaries: the rotation's buffers (the
complex phase, whose storage is scratch until the phase is built,
|u|^2, the angle theta, a mask and a stack's rates) are the stack's,
allocated once, and _rotation alone takes its views of them (see the
storage plan below).
The per-step allocations are the bytes copies of one grid line of the
mask in which the window below is found: n bytes in 1-D (n2 (n1 + 2)
for a split line's padded matrix, read as one line), n and n + 8 in
2-D; and, in 2-D, numpy's ufunc buffers for the cos/sin box, which is
not contiguous, np.getbufsize() float64 elements each for its input
and output at most (tests/test_propagator.py bounds them).
The angle is computed with the same operations in the same order as the
plain theta = sum mu |u|^(2e), its terms in _nonlinear_terms' order (a
positive one first); theta *= -tau, except that a multiply by mu = 1 is
skipped and one by mu = -1 becomes a negation or a subtraction, which
IEEE arithmetic makes exact.  The phase cos(theta) + i sin(theta) takes
cos and sin only over the box spanning every point with |theta| >=
2^-27 or NaN: on each grid axis, from the first to the last line of the
mask |theta| < 2^-27 that is not all True.  Outside the box the phase is
1 + i theta.  That is exact, not an approximation: for |theta| < 2^-27,
theta^2/2 < 2^-55, so 1 and theta are the correctly rounded cos and sin,
and numpy returns them (tests/test_propagator.py checks this premise, and
that a slice or a box computes what the whole array computes).  A
focused or dispersed field is tiny over most of the box, so in 1-D the
window is a few percent of the grid or less; on the 2-D 256^2 townes_2d
flight the box covers 9.5 % of the grid at t = 0 and 12.1 % at its end,
where a flat window of whole rows covered 30.5 % and 34.4 %.

The free flow is spectral._free_flow, the one free-flow and multiplier
product that spectral._apply_symbol binds and runs once, on the stack's
storage: the FFT pair in place on the grid's view of it, one axis at a
time, last axis first as fftn and ifftn do, with the symbol as the left
operand of the product.  Each pass calls the pocketfft gufunc that
np.fft.fft and np.fft.ifft call themselves, with their axes and
normalisation factor (spectral._fft_pass), so it is their arithmetic
bit for bit without their argument handling, about 2 us a call.  That
gufunc module is numpy's private numpy.fft._pocketfft_umath (numpy 2.0
or later, the floor); tests/test_propagator.py and `nlslab selftest`
check the premise on the installed numpy.  The step is therefore
bitwise the plain full-array composition, except on a 1-D line that
splits (spectral._layout).  Such a line, held as an (n2, n1) matrix,
takes the four-step FFT, which numpy runs faster than one long line's,
and leaves its spectrum in transposed order, the order its cached
symbol is stored in (spectral._storage_order); it agrees with the plain
composition to rounding.  Either way, with both couplings zero a step
is bitwise spectral.free_evolve on every grid, since free_evolve,
apply_multiplier, spectral_translate and the proxy's pullbacks lay
their symbols out the same way.  A record's forward transform, the
scattering integrand's inverse and spectral.transform take the plain
per-axis path (spectral._transform, the same bound passes) and keep the
natural-order spectrum.

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
stays bitwise its lone march; a stack of split lines, (B, n2, n1 + 2),
gives each flight's columns, along axis -2, their lone bits too.  The
cos/sin box is the box of the union of the flights' masks (a lone
flight's own mask, with no reduction); where it is wider than a flight's
own, cos and sin return that flight's 1 and theta, so no bit moves.  The
exception is a NaN's sign, which numpy's multi-line FFT may flip: an
overflowed state is stored with each NaN float64 as numpy's one quiet
NaN, np.nan, so a flight's abort state too is bitwise the same stacked
or alone.  A flight that stops leaves the stack, the others being
copied into a smaller array.

Each flight keeps its own step size, horizon and abort thresholds.  A
stack takes the rotation's angle factor as one -dt per flight, spread
over the flight's storage once per segment (numpy would copy a
broadcast column through a ufunc buffer at every step), and the free
flow's symbol as a (B, *grid) array built once per stack from the
cached symbols (a view of its flight's for a stack of one), row i the
symbol of flight i's step, whose rows leave with their flights; both
ops stay elementwise per flight, so no bit moves.  The stack marches to
the next step its shared cadence observes, so each flight must end on
such a step (_ends_on_cadence), or its last step would split a mate's
fused segment; flights that do not must share one stepper (_mate_key).
A threshold sweep's two sides, scattering at dt = 1e-4 and collapse at
1e-5 on one grid, so march as one stack: the per-flight step and symbol
cost nothing measurable over one shared step, and do not undo the gain
of stacking (BENCH_14.json, stack_step_us and final_tree).

A record is one pass over the stack as well.  The live finite flights
that record at a step, every live flight on the shared cadence, take one
forward transform and one |u| for their (flights, *grid) rows; each
snapshot integral, the tail and edge fractions and the scattering
integrand is then a per-flight reduction over the grid axes, which
numpy computes to the bits of the flight's lone sum (tests/test_propagator.py
checks this premise), and each flight reads its own edge band.  Only
the list appends, the blow-up criterion and the abort decision loop
over the flights; the record appends each flight's integrand as it
appends its snapshot, and the log sums them over time when read
(TrajectoryLog.scatter_series).  The localized virial rows are
such reductions too (virial._virial_rows).  snapshot(),
spectral_tail_fraction(), edge_mass_fraction(), virial_value() and
virial_derivatives() are the same code on a stack of one.  A record
builds a ComplexField only for a checkpoint or the final state.  Those
and the record read a split line as a contiguous copy of its natural
order, since the row sums take their bits from contiguous rows.  The
march records only what needs the field: the whole-space E2 virial
V'' = 8K is a function of each snapshot alone, so it is read off
log.snapshots when the run's files are written (virial._whole_space_e2),
never during the march.

The storage plan.  evolve_stack() lays out each stack once.  Its fields
are the rows of one complex array, (flights, *row) (spectral._lay_out),
in the one layout spectral._layout decides from the grid: 2-D rows and
the rows of a split line's (n2, n1) matrix run a few pad elements past
the grid, so the column transforms do not load every element from a
few L1 cache sets (the pads and their measurements sit beside
spectral._PAD and spectral._SPLIT_PAD).  The cached free-flow symbol
(_kinetic_phase), the twiddles (spectral._twiddles) and the rotation's
buffers take the same layout.  The FFTs run on the grid's view,
storage[..., :width]; the elementwise ops, the rotation and the free
flow's product, run over the whole contiguous storage, and the rotation
reads each 1-D flight's storage, a split line's matrix too, as one flat
line, so its 1-D window logic holds.  No bit moves, on two premises
that tests/test_propagator.py checks: the pads hold 0 and stay 0 (|u|^2
is 0 there, so theta is 0 and the phase 1 + 0i, and the symbol's pads
are 0, so each product leaves 0), and no transform or sum reads a pad.
So the padded march is bitwise the unpadded one.  The kernel takes the
layout from the grid, through the buffers, never from the storage's
shape.

One set of flat buffers, _Buffers, allocated for the stack's first and
largest number of flights, serves every segment and every record; each
binder takes views of their leading elements for the flights at hand
when it binds: _rotation the rotation's, _advance a stack's rates, the
record its _Scratch and the virial rows' arrays.  A record borrows the
rotation's buffers, adding one float array: the phase holds the
spectrum, the float pair a2 and theta holds |u| and |u|^2 or, read as
one complex array, the unitary spectrum, and the added array the
products and powers (spectral._Scratch), each written through out= and
C-contiguous, as the row sums need.  The unitary spectrum, spectrum /
sqrt(N), is formed as the float64 view times 1 / sqrt(N): numpy divides
by c + 0i as (re + im*0) * (1/c), (im - re*0) * (1/c), so the two differ
at most in the sign of a zero, which the |.| the value feeds drops.  The
localized virial rows take two complex arrays and a float one more, the
buffers' virial pair, held for a run with virial rows, and the record's
float array; a split line's natural copy goes into the second complex
one.  So no segment or record allocates a float or complex array of the
grid's size, but for that copy in a run without virial rows; what else
is allocated is the bytes copies of a mask line above, one byte per
point of a line, and numpy's ufunc buffers for a strided or cast
operand (np.getbufsize() elements at most).  Freed and allocated
afresh, those buffers would cost glibc's trim and a page fault per page
at every segment and record: a 2-D 256^2 run (perfbench's townes_2d)
takes about 8 500 minor faults per call with them held, about 33 000
without.  The buffers are dropped before a stopping stack makes its
final copies (_stored, one copy per field), so a run's peak holds them
or the copies, never both.

A stack holds at most _STACK_BYTES = 128 KiB of fields
(_stack_capacity).  Every stack measured under that cap gained; past it
the gain is not reliable, since the FFT pair of a multi-line stack of
large lines can cost more per flight than a lone line's, and 2-D stacks
of 128^2 fields gain nothing (BENCH_13.json, stack_cap).  So a field
over 128 KiB marches alone, as a stack of one, as strang_step() steps
its field (timed in BENCH_15.json, stack_of_one_step).  A 1-D field of
8192 points is at the cap, so every line that takes the split transform
marches alone, unless evolve_stack() is handed several.

evolve() marches to t_final, records functional snapshots at a fixed step
cadence, and aborts the moment the recorded diagnostics say the grid has
stopped representing the solution:

    resolution_lost   spectral tail fraction above tail_fraction_max
    box_escape        mass within edge_cells of the boundary above
                      edge_mass_max (radiation reached the box edge)
    blowup_detected   |grad u| grew past blowup_grad_factor times its
                      initial value while the tail threshold is exceeded,
                      i.e. focusing collapse reached grid scale

The scattering diagnostic is the time integral of the grid L^{2(d+2)/d}
norm (to that power) of u weighted by (1 + |k|^{s_p}) on the Fourier
side.  Each record appends the integrand to TrajectoryLog.scatter_rates,
and TrajectoryLog.scatter_series accumulates those rates by the
left-endpoint rule at snapshot times; that property is the one place the
rule is stated.  Saturation of this accumulator, decay of the L^{p+1}
norm, and a Cauchy test on free-flow pullbacks of stored checkpoints
make up the scattering proxy.

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
from functools import lru_cache, partial
from itertools import accumulate, pairwise

import numpy as np

from .functionals import ModelParams, _check_dimension, _snapshots
from .spectral import (
    ComplexField,
    GridSpec,
    _apply_symbol,
    _edge_fractions,
    _fields,
    _free_flow,
    _free_flow_symbol,
    _lay_out,
    _layout,
    _lp_norm,
    _row_sums,
    _scratch,
    _spectrum,
    _storage_order,
    _tail_fractions,
    _transform,
    derivative_weight_multiplier,
    edge_mass_fraction,
)
from .virial import VirialWeight, _virial_rows

__all__ = [
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
    """Localized virial diagnostics at one snapshot time."""

    t: float
    value: float
    v_prime: float
    v_double_prime: float
    remainder: float
    exterior_integral: float


@dataclass(eq=False)
class TrajectoryLog:
    """Everything recorded along one run.

    Series are aligned: times[j], the t of snapshots[j], matches
    tail_fractions[j], edge_fractions[j] and scatter_rates[j], the
    scattering integrand at that record, and so scatter_series[j], the
    integrand accumulated up to times[j] from those rates (the one place
    that sums them over time).  Checkpoints are (t, field) pairs and
    always include the initial state (u0 itself) and a finite final or
    abort state; in between they hold every stored checkpoint, or under
    evolve's bounded_checkpoints only those at or after
    _late_quarter_start.  A state with non-finite amplitudes is no
    checkpoint: an abort on one keeps it only as final_state, with each
    NaN stored as np.nan.
    dt_used is the step size after the nudge onto t_final, n_steps the
    number of such steps that reaches t_final.
    """

    params: ModelParams
    config: StepperConfig
    dt_used: float = 0.0
    n_steps: int = 0
    snapshots: list = field(default_factory=list)
    tail_fractions: list = field(default_factory=list)
    edge_fractions: list = field(default_factory=list)
    scatter_rates: list = field(default_factory=list)
    virial_rows: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    outcome: str = "running"
    abort_time: float | None = None
    abort_detail: str = ""
    final_state: ComplexField | None = None

    @property
    def times(self) -> list:
        """The record times, read off the snapshots."""
        return [s.t for s in self.snapshots]

    @property
    def scatter_series(self) -> list:
        """The accumulated scattering integrand at each record time: 0.0 at
        the first, then the left-endpoint rule over scatter_rates."""
        return list(accumulate(((s1.t - s0.t) * rate for (s0, s1), rate in zip(
            pairwise(self.snapshots), self.scatter_rates)), initial=0.0))[:len(self.snapshots)]

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
    """The free-flow symbol of one step, laid out as one row of a stack's
    storage (spectral._lay_out) with pads 0, in storage order
    (spectral._storage_order: a split line's is in transposed spectrum
    order), kept for the flight or the strang_step loop that reuses it.
    Two entries cover a loop that steps forwards and back; each is a
    grid-sized array, so a multi-config run keeps no more than two."""
    ph = _lay_out([_storage_order(_free_flow_symbol(grid, dt), grid)], grid)[0]
    ph.setflags(write=False)
    return ph


def _abs2_power(a2: np.ndarray, e: float, out: np.ndarray) -> tuple:
    """|u|^(2e) from a2 = |u|^2, bound: (calls, power), the calls that form
    it in out, and the array that holds it once they have run (a2 itself,
    with no call, when e == 1).  out must not be a2."""
    # the common cases 4/d and (p-1)/2 with d in {1,2}, p in {4,5,7} are
    # integer or half-integer powers of |u|^2; spelling them out beats
    # np.power by a lot in the loop
    if e == 1.0:
        return [], a2
    if e == 1.5:
        return [partial(np.sqrt, a2, out), partial(np.multiply, a2, out, out)], out
    if e == 2.0:
        return [partial(np.multiply, a2, a2, out)], out
    if e == 3.0:
        return [partial(np.multiply, a2, a2, out), partial(np.multiply, out, a2, out)], out
    return [partial(np.power, a2, e, out)], out


def _nonlinear_terms(mp: ModelParams, couplings: tuple | None = None) -> tuple:
    """((mu, e), ...) with the phase rate sum mu |u|^(2e); zero couplings
    dropped, and a positive term first, so that _rotation forms E2's angle
    |u|^(p-1) - |u|^(4/d) with no negation pass: IEEE r - a is r + (-a),
    which is (-a) + r, the same float."""
    mu_c, mu_p = mp.couplings if couplings is None else couplings
    terms = ((float(mu_c), 2.0 / mp.d), (float(mu_p), (mp.p - 1.0) / 2.0))
    return tuple(sorted(((mu, e) for mu, e in terms if mu != 0.0), key=lambda t: t[0] < 0))


# below this |theta|, theta^2/2 < 2^-55 and the correctly rounded cos and
# sin are 1 and theta themselves
_TINY_PHASE = 2.0**-27


class _Buffers:
    """One stack's flat buffers, allocated once for its first and largest
    number of flights, in the grid's storage layout (spectral._layout):
    the kernel's rotation and rates and a record's _Scratch take views of
    their leading elements for the flights at hand, each where it binds.
    The rotation reads the storage as (flights, *row): in 2-D its own
    shape, in 1-D one flat line per flight, a split line's padded matrix
    too.  A record borrows the complex phase for its spectrum and the
    float pair for its block, and adds spare; with virial rows, it takes
    the virial pair, two complex arrays and a float one
    (virial._virial_rows, which takes spare as its second float)."""

    def __init__(self, flights: int, grid: GridSpec, virial: bool = False):
        self.layout = _layout(grid)
        self.row = self.layout.row if grid.d == 2 else (math.prod(self.layout.row),)
        size = flights * math.prod(self.row)
        self.phase = np.empty(size, dtype=np.complex128)
        self.floats = np.empty(2 * size)
        self.small = np.empty(size, dtype=bool)
        self.union = np.empty(self.row, dtype=bool)
        self.lines = tuple(np.empty(k, dtype=bool) for k in self.row) if grid.d == 2 else ()
        self.spare = np.empty(flights * grid.size)
        self.rates = np.empty(2 * size) if flights > 1 else None
        self.virial = (np.empty((2, len(self.spare)), dtype=np.complex128),
                       np.empty(len(self.spare))) if virial else None


def _rotation(values, terms, buffers):
    """P(tau) in place for rate = -tau, u <- u exp(i rate sum mu |u|^(2e)),
    bound once to the storage values, the terms and the stack's buffers,
    whose views it takes here for the flights of values, reading them as
    (flights, *row): a function of rate, a float or one per flight of a
    stack, spread over that shape or a column, (flights, 1, ..., 1).  The
    angle's ops are resolved here.  cos and sin run only over the box
    spanned, on each grid axis, by the grid points holding a theta, in any
    flight, that is NaN or at least _TINY_PHASE in size; outside it the
    phase is 1 + i theta, the values they return there (see the module
    docstring)."""
    shape = (len(values), *buffers.row)
    size = math.prod(shape)
    values = values.reshape(shape)
    phase = buffers.phase[:size].reshape(shape)
    a2, theta = buffers.floats[:2 * size].reshape((2, *shape))
    small = buffers.small[:size].reshape(shape)
    # the phase's float storage is scratch until the phase is built: |u|^2
    # = re*re + im*im, the interleaved pairs squared in one contiguous
    # pass into it, then added; its first half then takes the second power
    # term and |theta|
    squares = phase.view(np.float64)
    scratch = squares.reshape(-1)[:size].reshape(shape)
    parts = values.view(np.float64)
    calls = [partial(np.multiply, parts, parts, squares),
             partial(np.add, squares[..., 0::2], squares[..., 1::2], a2)]
    (mu, e), *rest = terms
    power, acc = _abs2_power(a2, e, theta)
    if mu != 1.0:
        power.append(partial(np.negative, acc, theta) if mu == -1.0 else
                     partial(np.multiply, acc, mu, theta))
        acc = theta
    calls += power
    for mu, e in rest:
        power, r = _abs2_power(a2, e, scratch)
        if mu not in (1.0, -1.0):
            power.append(partial(np.multiply, r, mu, scratch))
            r = scratch
        calls += power + [partial(np.subtract if mu == -1.0 else np.add, acc, r, theta)]
        acc = theta
    # per grid axis, a line marking where the union of the flights' masks
    # is small across the other axis (in 1-D, the union itself)
    union = small[0] if len(small) == 1 else buffers.union
    masks = [] if len(small) == 1 else [partial(np.logical_and.reduce, small, axis=0, out=union)]
    masks += [partial(np.logical_and.reduce, union, axis=1 - axis, out=line)
              for axis, line in enumerate(buffers.lines)]
    lines = buffers.lines or (union,)
    re, im = phase.real, phase.imag

    def rotate(rate):
        for call in calls:
            call()
        np.multiply(acc, rate, theta)
        np.abs(theta, scratch)
        np.less(scratch, _TINY_PHASE, small)
        for call in masks:
            call()
        box = (slice(None),)
        for line in lines:
            # the first and last point outside the line's mask; an all-True
            # mask gives the empty window [0, 0)
            lo = int(line.argmin())
            hi = line.tobytes().rfind(b"\x00") + 1
            for start, stop in ((0, lo), (hi, len(line))):
                if start < stop:
                    at = box + (slice(start, stop),)
                    re[at] = 1.0
                    im[at] = theta[at]
            box += (slice(lo, hi),)
        np.cos(theta[box], re[box])
        np.sin(theta[box], im[box])
        np.multiply(values, phase, values)
    return rotate


def _advance(values, n, dt, terms, kin, buffers):
    """n Strang steps, in place, of a stack's storage (spectral._lay_out),
    every pad 0; dt is a float or a column (flights, 1, ..., 1) of each
    flight's step, kin, of the storage's shape, each flight's free-flow
    symbol with pads 0, and buffers the stack's _Buffers, which give the
    layout and, for a stack of several, hold its rates.  The free flow and
    the rotation are bound once, here, for the whole segment.  Every op is
    elementwise per flight, so each takes its steps bitwise as it would
    alone, and the pads stay 0.

    Adjacent half-steps merge, P(dt/2) P(dt/2) = P(dt), because P leaves
    |u| unchanged; the closing half-step is applied once, after the last
    free flight, so the state is a whole number of steps on return.
    """
    flow = _free_flow(values, kin, buffers.layout, values)
    if not terms:
        for _ in range(n):
            flow()
        return
    rotate = _rotation(values, terms, buffers)
    # -(dt/2) and -dt, exact; a stack's spread over the rotation's view of
    # its storage, since numpy copies a broadcast column into a ufunc
    # buffer at every step
    half, whole = -0.5 * dt, -dt
    if len(values) > 1:
        shape = (2, len(values), *buffers.row)
        rates = buffers.rates[:math.prod(shape)].reshape(shape)
        np.copyto(rates, (half, whole))
        half, whole = rates
    rotate(half)
    for _ in range(n - 1):
        flow()
        rotate(whole)
    flow()
    rotate(half)


def _stored(row: np.ndarray, grid: GridSpec, finite: bool) -> ComplexField:
    """The field in one row of a stack's storage as a ComplexField of its
    own, copied once: a split line's natural-order copy is adopted as its
    values, any other row's view is copied."""
    u = _fields(row, grid)
    return ComplexField._adopt(grid, u.copy() if np.may_share_memory(u, row) else u,
                               allow_nonfinite=not finite)


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
    _check_dimension(u.grid, mp)
    dt = float(dt)
    # a stack of one
    v = _lay_out([u.values], u.grid)
    _advance(v, 1, dt, _nonlinear_terms(mp, couplings), _kinetic_phase(u.grid, dt)[np.newaxis],
             _Buffers(1, u.grid))
    return _stored(v[0], u.grid, bool(np.all(np.isfinite(v))))


# -- full trajectories --------------------------------------------------------

def _scatter_integrand(spectrum, grid, weight_symbol, mc_power, scratch) -> np.ndarray:
    """The scattering integrand of each field of a stack, (flights, *grid),
    from the stack's per-field np.fft.fftn: the record's last reader, so
    its storage takes the squared parts once the weighted field is formed
    in scratch.block; |.|^2 goes into scratch.spare and its power into the
    block's first half."""
    wf = np.multiply(weight_symbol, spectrum, out=scratch.block)
    _transform(wf, wf, grid.d, inverse=True)
    # re*re + im*im, as _rotation forms |u|^2: each pair squared in one
    # contiguous pass, then added
    parts = wf.view(np.float64)
    squares = np.multiply(parts, parts, out=spectrum.view(np.float64))
    a2 = np.add(squares[..., 0::2], squares[..., 1::2], out=scratch.spare)
    calls, power = _abs2_power(a2, 0.5 * mc_power, scratch.halves[0])
    for call in calls:
        call()
    return _row_sums(power) * grid.cell_volume


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
    bounded_checkpoints: bool = False,
) -> TrajectoryLog:
    """March u0 to cfg.t_final and return the trajectory log.

    dt is nudged so an integer number of steps lands exactly on t_final.
    Diagnostics and abort checks run at the snapshot cadence, and the
    non-finite check also at checkpoint steps; the snapshot that trips a
    threshold is recorded before the run stops, and the abort reason lands
    in .outcome / .abort_detail.  virial_weight attaches localized virial
    rows (E1 only).

    The log's first checkpoint is u0 itself, not a copy.  By default every
    checkpoint is kept; bounded_checkpoints=True drops those before
    _late_quarter_start(n_steps * dt_used), which scattering_proxy never
    reads, so the log holds u0, the late-quarter checkpoints and the final
    or abort state; an abort on non-finite amplitudes stores each NaN as
    np.nan.

    This is evolve_stack() on a stack of one.
    """
    return evolve_stack([u0], mp, [cfg], virial_weight=virial_weight,
                        bounded_checkpoints=bounded_checkpoints)[0]


def evolve_stack(
    u0s: list,
    mp: ModelParams,
    cfgs: list,
    *,
    virial_weight: VirialWeight | None = None,
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
    meet evolve()'s preconditions, and there must be at least one.
    Otherwise ValueError is raised before any step; a lone StepperConfig
    in place of the list, TypeError.  A stack should hold no more than
    _stack_capacity(grid) flights, past which the gain of stacking is not
    reliable.
    """
    if isinstance(cfgs, StepperConfig):
        raise TypeError("evolve_stack takes a list of StepperConfig, one per flight")
    if len(cfgs) != len(u0s):
        raise ValueError(f"{len(u0s)} flights need as many stepper configs, got {len(cfgs)}")
    if not u0s:
        raise ValueError("a stack needs at least one flight")
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
    values = _lay_out([u0.values for u0 in u0s], grid)
    buffers = _Buffers(len(u0s), grid, virial=virial_weight is not None)

    def record(x, flights, step):
        # every flight of the stack storage x records at once: one forward
        # FFT and one |u| for the stack, shared by every diagnostic, each a
        # per-flight reduction, all in the stack's buffers
        # the fields in the grid's shape: a split line's is a contiguous
        # copy, as the row sums take their bits from contiguous rows; with
        # localized virial rows, into their second complex array, which
        # they read it from last (virial._virial_rows)
        shape = (len(flights), *grid.shape)
        size = math.prod(shape)
        work = None if buffers.virial is None else (
            *buffers.virial[0][:, :size].reshape((2, *shape)),
            buffers.virial[1][:size].reshape(shape))
        u = _fields(x, grid, None if work is None else work[1])
        scratch = _scratch(shape, buffers.phase, buffers.floats, buffers.spare)
        spec = _spectrum(u, scratch)
        ts = [step * logs[i].dt_used for i in flights]
        snaps, a, dens, totals = _snapshots(grid, mp, ts, u, spec, scratch)
        edges = _edge_fractions(dens, totals, grid, [logs[i].config.edge_cells for i in flights],
                                scratch.spare)
        virial = () if work is None else zip(*(v.tolist() for v in _virial_rows(
            mp, virial_weight, u, spec, a, dens, (*work, scratch.spare))))
        # |u| and |u|^2 are read: the tail fractions take their storage
        tails = _tail_fractions(spec, grid, scratch).tolist()
        # the spectrum's last reader
        rates = _scatter_integrand(spec, grid, wsym, mcp, scratch).tolist()
        for i, snap, tail, edge, rate in zip(flights, snaps, tails, edges.tolist(), rates):
            log = logs[i]
            log.snapshots.append(snap)
            log.tail_fractions.append(tail)
            log.edge_fractions.append(edge)
            log.scatter_rates.append(rate)
        for i, t, snap, (v, vp, vpp, ext) in zip(flights, ts, snaps, virial):
            # K is the snapshot's: the remainder reads it rather than form it again
            logs[i].virial_rows.append(
                VirialRow(t, v, vp, vpp, vpp - 8.0 * snap.scaling_derivative, ext))

    live = list(range(len(u0s)))     # the log of each row of values
    record(values, live, 0)
    for log, u0 in zip(logs, u0s):
        log.checkpoints.append((0.0, u0))

    step = 0
    while live:
        # march straight to the next step whose state is observed, which
        # every live flight observes
        target = min(min(logs[i].n_steps for i in live), (step // every + 1) * every)
        if ckpt_every:
            target = min(target, (step // ckpt_every + 1) * ckpt_every)
        _advance(values, target - step, dt, terms, kin, buffers)
        step = target
        finite = np.isfinite(values.reshape(-1), out=buffers.small[:values.size]).reshape(
            len(live), -1).all(axis=1)
        # the finite flights that record at this step, all of them together
        recording = [row for row, i in enumerate(live)
                     if finite[row] and (step % every == 0 or step == logs[i].n_steps)]
        if recording:
            record(values if len(recording) == len(live) else values[recording],
                   [live[row] for row in recording], step)

        stopped, kept = [], []
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
                stopped.append(row)
                continue

            if row in recording:
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
            # a finite flight that did not record is at a checkpoint step,
            # as _check_mates puts every mate's last step on the cadence
            if log.outcome != "running":
                stopped.append(row)
            elif ckpt_every and step % ckpt_every == 0 and t >= keep_from[i]:
                kept.append(row)

        if len(stopped) == len(live):
            # the stack is done: its buffers go before the final copies
            buffers = None
        for row in kept + stopped:
            log = logs[live[row]]
            f = _stored(values[row], grid, finite[row])
            if finite[row]:
                log.checkpoints.append((step * log.dt_used, f))
            if row in stopped:
                log.final_state = f

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
    decay_factor: float | None
    cauchy_distance: float | None


def scattering_proxy(log: TrajectoryLog) -> ScatterReport:
    """Saturation, decay, and free-flow Cauchy diagnostics of a completed run.

    passed means the accumulator's growth rate over the last quarter of the
    run fell below 1% of its whole-run mean rate.  decay_factor is max over
    final of the L^{p+1} norm (None when the final norm is 0, as a zero
    field's is: no number states it).  cauchy_distance is the largest
    relative L^2 distance between free-flow pullbacks of last-quarter
    checkpoints (those at or after _late_quarter_start) and the final
    pullback (None when fewer than two were stored).  The final pullback is formed first; each
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
    decay_factor = max(norms) / norms[-1] if norms[-1] > 0 else None

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
    in out, as free_flow_multiplier forms it, and laid out in storage order
    in sym (spectral._storage_order)."""
    symbol = _storage_order(_free_flow_symbol(f.grid, -t, out=out), f.grid, out=sym)
    return _apply_symbol(f.values, symbol, _layout(f.grid, padded=False), out)
