"""Split-step marching: conservation, aborts, and the trajectory record."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nlslab import propagator, spectral
from nlslab.functionals import ModelParams, _scaling_derivative, snapshot
from nlslab.groundstate import ground_state_field
from nlslab.propagator import (
    StepperConfig,
    detect_blowup,
    evolve,
    scattering_proxy,
    strang_step,
)
from nlslab.spectral import (
    ComplexField,
    GridSpec,
    edge_mass_fraction,
    field_from_function,
    free_evolve,
    lp_norm,
)
from nlslab.virial import (
    VirialWeight,
    virial_derivatives,
    virial_value,
    whole_space_virial_e2,
)

MP1 = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
MP2 = ModelParams(d=1, p=7.0, omega=1.0, equation="E2")

OPEN = dict(tail_fraction_max=1.0, edge_mass_max=1.0)


def _packet(grid=None, amplitude=0.6, k_lattice=12):
    g = grid or GridSpec(d=1, n_per_axis=256, half_width=40.0)
    k0 = k_lattice * math.pi / g.half_width
    return field_from_function(
        g, lambda x: amplitude * np.exp(-(x**2)) * np.exp(1j * k0 * x)
    )


# -- configuration gates ------------------------------------------------------

def test_stepper_config_validation():
    good = dict(dt=1e-3, t_final=1.0)
    StepperConfig(**good)
    for bad in (
        dict(good, dt=0.0),
        dict(good, t_final=-1.0),
        dict(good, snapshot_every=0),
        dict(good, checkpoint_every=-1),
        dict(good, blowup_grad_factor=0.0),
        dict(good, tail_fraction_max=0.0),
        dict(good, edge_mass_max=-1e-3),
        dict(good, edge_cells=0),
    ):
        with pytest.raises(ValueError):
            StepperConfig(**bad)


def test_edge_heavy_data_is_refused_up_front():
    g = GridSpec(d=1, n_per_axis=256, half_width=5.0)
    f = field_from_function(g, lambda x: np.exp(-((x - 4.9) ** 2) / 0.01))
    cfg = StepperConfig(dt=1e-3, t_final=0.1, edge_mass_max=1e-10)
    with pytest.raises(ValueError, match="edge-decay precondition"):
        evolve(f, MP1, cfg)


# -- agreement with the free flow --------------------------------------------

@pytest.mark.parametrize("grid", [
    GridSpec(d=1, n_per_axis=512, half_width=40.0),
    # 128^2 and 256^2 fields are 256 KiB and 1 MiB
    GridSpec(d=2, n_per_axis=128, half_width=16.0),
    GridSpec(d=2, n_per_axis=256, half_width=16.0),
], ids=["1d_512", "2d_128", "2d_256"])
def test_zero_couplings_single_step_is_exactly_the_free_propagator(grid):
    k0 = 12 * math.pi / grid.half_width
    u = field_from_function(
        grid, lambda *x: 0.6 * np.exp(-sum(c**2 for c in x)) * np.exp(1j * k0 * x[0]))
    s = strang_step(u, MP1, 1e-3, couplings=(0.0, 0.0))
    f = free_evolve(u, 1e-3)
    assert np.array_equal(s.values, f.values)


def test_zero_couplings_many_steps_track_the_free_flow():
    u = _packet()
    v = u
    for _ in range(100):
        v = strang_step(v, MP1, 1e-3, couplings=(0.0, 0.0))
    f = free_evolve(u, 0.1)
    assert np.max(np.abs(v.values - f.values)) < 1e-12


# -- conservation -------------------------------------------------------------

def test_mass_is_conserved_to_rounding():
    cfg = StepperConfig(dt=1e-3, t_final=0.5, snapshot_every=50, **OPEN)
    log = evolve(_packet(), MP1, cfg)
    assert log.outcome == "completed"
    m0 = log.snapshots[0].mass
    assert max(abs(s.mass - m0) for s in log.snapshots) < 1e-12 * m0


def test_momentum_is_conserved():
    cfg = StepperConfig(dt=1e-3, t_final=0.5, snapshot_every=50, **OPEN)
    log = evolve(_packet(), MP1, cfg)
    p0 = log.snapshots[0].momentum[0]
    assert max(abs(s.momentum[0] - p0) for s in log.snapshots) < 1e-7


def test_energy_drift_shrinks_at_second_order():
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = StepperConfig(dt=dt, t_final=0.5, snapshot_every=50, **OPEN)
        log = evolve(_packet(), MP1, cfg)
        e0 = log.snapshots[0].energy
        drifts.append(max(abs(s.energy - e0) for s in log.snapshots))
    assert drifts[0] / drifts[1] > 3.5
    assert drifts[0] / drifts[1] < 4.5


def test_conjugation_reverses_the_flow():
    u0 = _packet()
    u = u0
    for _ in range(200):
        u = strang_step(u, MP1, 1e-3)
    v = ComplexField(u.grid, np.conj(u.values))
    for _ in range(200):
        v = strang_step(v, MP1, 1e-3)
    assert np.max(np.abs(np.conj(v.values) - u0.values)) < 1e-12


def test_standing_wave_modulus_is_stationary(double_gs):
    g = GridSpec(d=1, n_per_axis=1024, half_width=30.0)
    q = ground_state_field(double_gs, g)
    cfg = StepperConfig(dt=1e-5, t_final=0.2, snapshot_every=2000,
                        checkpoint_every=5000, **OPEN)
    log = evolve(q, MP1, cfg)
    assert log.outcome == "completed"
    ref = np.abs(q.values)
    ref_norm = math.sqrt(float(np.sum(ref**2)))
    worst = max(
        math.sqrt(float(np.sum((np.abs(f.values) - ref) ** 2))) / ref_norm
        for _, f in log.checkpoints
    )
    assert worst < 1e-6


# -- cadences and the log -----------------------------------------------------

def test_snapshot_and_checkpoint_cadence():
    cfg = StepperConfig(dt=1e-3, t_final=0.1, snapshot_every=20,
                        checkpoint_every=25, **OPEN)
    log = evolve(_packet(), MP1, cfg)
    assert log.times == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    ckpt_times = [t for t, _ in log.checkpoints]
    assert ckpt_times == pytest.approx([0.0, 0.025, 0.05, 0.075, 0.1])
    assert log.final_state is not None
    assert log.energy_drift is not None and log.energy_drift < 1e-6


def test_first_checkpoint_is_u0_itself():
    u0 = _packet()
    for bounded in (False, True):
        cfg = StepperConfig(dt=1e-3, t_final=0.02, snapshot_every=5,
                            checkpoint_every=5, **OPEN)
        log = evolve(u0, MP1, cfg, bounded_checkpoints=bounded)
        assert log.checkpoints[0][1] is u0


def test_nonfinite_initial_data_is_refused():
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    vals = np.exp(-g.axis**2).astype(np.complex128)
    vals[128] = np.nan
    cfg = StepperConfig(dt=1e-3, t_final=0.01, **OPEN)
    with pytest.raises(ValueError, match="non-finite"):
        evolve(ComplexField(g, vals, allow_nonfinite=True), MP1, cfg)


def _boundary_logs():
    # dt = 2^-8 over 40 steps: every checkpoint time is exact, and the
    # late-quarter start t_end - t_end/4 is step 30's time to the bit
    dt = 2.0**-8
    cfg = StepperConfig(dt=dt, t_final=40 * dt, snapshot_every=10,
                        checkpoint_every=5, **OPEN)
    u0 = _packet(amplitude=0.3)
    return dt, evolve(u0, MP1, cfg), evolve(u0, MP1, cfg, bounded_checkpoints=True)


def test_bounded_log_keeps_u0_the_late_quarter_and_the_final_state():
    dt, full, bounded = _boundary_logs()
    assert [t / dt for t, _ in full.checkpoints] == [5.0 * k for k in range(9)]
    assert [t / dt for t, _ in bounded.checkpoints] == [0.0, 30.0, 35.0, 40.0]
    kept = dict(full.checkpoints)
    for t, f in bounded.checkpoints:
        assert np.array_equal(f.values, kept[t].values)
    assert bounded.final_state is bounded.checkpoints[-1][1]
    # everything but the stored fields is the same run
    assert bounded.times == full.times
    assert bounded.scatter_series == full.scatter_series
    assert scattering_proxy(bounded) == scattering_proxy(full)


def test_a_checkpoint_at_the_late_quarter_start_is_kept_and_read(monkeypatch):
    dt, _, bounded = _boundary_logs()
    t_q = 30 * dt
    assert propagator._late_quarter_start(bounded.times[-1]) < t_q
    assert t_q == bounded.times[-1] - 0.25 * bounded.times[-1]
    assert t_q in dict(bounded.checkpoints)

    pulled = []
    pull_back = propagator._pull_back

    def recording(f, t, out, sym):
        pulled.append(t)
        return pull_back(f, t, out, sym)

    monkeypatch.setattr(propagator, "_pull_back", recording)
    rep = scattering_proxy(bounded)
    assert rep.cauchy_distance is not None
    # the final pullback first, then each earlier one in time order
    assert pulled == [40 * dt, t_q, 35 * dt]


def test_streamed_cauchy_distance_equals_the_all_at_once_one():
    log = _dispersive_log()
    rep = scattering_proxy(log)
    t_end = log.times[-1]
    late = [(t, f) for t, f in log.checkpoints if t >= t_end - 0.25 * t_end - 1e-12 * t_end]
    assert len(late) >= 3
    backs = [free_evolve(f, -t) for t, f in late]
    ref = backs[-1]
    scale = lp_norm(ref, 2.0)
    want = max(lp_norm(ComplexField(ref.grid, b.values - ref.values), 2.0) / scale
               for b in backs[:-1])
    assert rep.cauchy_distance == want


def test_the_cauchy_test_holds_three_fields_over_its_entry():
    # the final pullback, the one being compared and the symbol; the
    # allowance is for the transforms' and sums' small objects
    grid = GridSpec(d=2, n_per_axis=64, half_width=16.0)
    mp = ModelParams(d=2, p=4.0, omega=1.0, equation="E2")
    u0 = field_from_function(grid, lambda x, y: 0.5 * np.exp(-(x**2 + y**2)) + 0j)
    cfg = StepperConfig(dt=1e-2, t_final=1.0, snapshot_every=10, checkpoint_every=5,
                        tail_fraction_max=1.0, edge_mass_max=1e-6)
    log = evolve(u0, mp, cfg, bounded_checkpoints=True)
    assert len(log.checkpoints) >= 4
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rep = scattering_proxy(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cauchy_distance is not None
    assert peak - entry <= 3 * u0.values.nbytes + 8 * 1024


def test_kinetic_symbols_are_kept_for_one_flight_and_one_loop():
    kinetic = propagator._kinetic_phase
    kinetic.cache_clear()
    u = _packet()
    for dt in (1e-3, 2e-3, 3e-3, 4e-3):
        evolve(u, MP1, StepperConfig(dt=dt, t_final=0.012, snapshot_every=4, **OPEN))
    info = kinetic.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (4, 2, 2)
    # a strang_step loop forwards and back reuses its two symbols
    v = u
    for _ in range(3):
        v = strang_step(strang_step(v, MP1, 1e-3), MP1, -1e-3)
    after = kinetic.cache_info()
    assert (after.misses - info.misses, after.hits - info.hits) == (2, 4)
    assert after.currsize == 2


def test_off_grid_horizon_is_nudged_onto_a_step_count():
    cfg = StepperConfig(dt=3e-3, t_final=0.01, snapshot_every=1000, **OPEN)
    log = evolve(_packet(), MP1, cfg)
    assert log.times[-1] == pytest.approx(0.01)
    assert (log.n_steps, log.dt_used) == (3, 0.01 / 3)


@pytest.mark.parametrize("mp, grid, rows", [
    (MP1, GridSpec(d=1, n_per_axis=256, half_width=40.0), "localized"),
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"),
     GridSpec(d=2, n_per_axis=32, half_width=12.0), "whole_space"),
])
def test_each_record_takes_one_forward_fft(monkeypatch, mp, grid, rows):
    u0 = field_from_function(grid, lambda *x: 0.5 * np.exp(-sum(c**2 for c in x)) + 0j)
    cfg = StepperConfig(dt=1e-3, t_final=6e-3, snapshot_every=1, **OPEN)
    localized = rows == "localized"
    rows = ({"virial_weight": VirialWeight(grid, 4.0)} if localized
            else {"whole_space_virial": True})
    # transforms of the whole field: an fftn (ifftn) call, or d per-axis
    # fft (ifft) calls (the stepping kernel transforms one axis at a time)
    calls = {"forward": [], "inverse": []}

    def counting(fn, way, weight):
        def wrapper(*args, **kwargs):
            calls[way].append(weight)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fftn", counting(np.fft.fftn, "forward", 1.0))
    monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft, "forward", 1.0 / grid.d))
    monkeypatch.setattr(np.fft, "ifftn", counting(np.fft.ifftn, "inverse", 1.0))
    monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft, "inverse", 1.0 / grid.d))
    log = evolve(u0, mp, cfg, **rows)
    assert log.outcome == "completed"
    assert len(log.virial_rows) == len(log.times) == log.n_steps + 1
    assert sum(calls["forward"]) == log.n_steps + len(log.times)
    # per record: the scatter integrand's, plus the d gradient fields of a
    # localized row; a whole-space row reads its snapshot and takes none
    per_record = 1 + grid.d if localized else 1
    assert sum(calls["inverse"]) == log.n_steps + per_record * len(log.times)


@pytest.mark.parametrize("mp, grid, rows", [
    (MP1, GridSpec(d=1, n_per_axis=256, half_width=40.0), "localized"),
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"),
     GridSpec(d=2, n_per_axis=32, half_width=12.0), "whole_space"),
])
def test_virial_rows_read_the_snapshots_k_bitwise(monkeypatch, mp, grid, rows):
    u0 = field_from_function(
        grid, lambda *x: 0.9 * np.exp(-sum(c**2 for c in x)) * np.exp(2.0j * x[0]))
    cfg = StepperConfig(dt=1e-3, t_final=0.02, snapshot_every=5, **OPEN)
    if rows == "localized":
        log = evolve(u0, mp, cfg, virial_weight=VirialWeight(grid, 4.0))
        for row, snap in zip(log.virial_rows, log.snapshots, strict=True):
            assert row.remainder == row.v_double_prime - 8.0 * snap.scaling_derivative
        return
    log = evolve(u0, mp, cfg, whole_space_virial=True)
    for row, snap in zip(log.virial_rows, log.snapshots, strict=True):
        k_e2 = _scaling_derivative(mp, snap.grad_l2_sq, snap.lp1, snap.lmc, mp.couplings)
        assert row.v_double_prime == 8.0 * k_e2

    # given the snapshot, the whole-space row takes no transform
    def refuse(*args, **kwargs):
        raise AssertionError("transform taken")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    last = whole_space_virial_e2(log.final_state, mp, snap=log.snapshots[-1])
    assert last == log.virial_rows[-1].v_double_prime


def test_shared_record_inputs_give_the_default_results_bitwise():
    # a record hands its |u| and its snapshot to each diagnostic
    for mp, grid in ((MP1, GridSpec(d=1, n_per_axis=256, half_width=40.0)),
                     (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"),
                      GridSpec(d=2, n_per_axis=32, half_width=12.0))):
        f = _packet(grid) if grid.d == 1 else field_from_function(
            grid, lambda x, y: 0.7 * np.exp(-(x**2 + 2.0 * y**2)) * np.exp(0.9j * x))
        a = np.abs(f.values)
        snap = snapshot(f, mp)
        assert snapshot(f, mp, modulus=a) == snap
        assert edge_mass_fraction(f, 6, modulus=a) == edge_mass_fraction(f, 6)
        if grid.d == 1:
            w = VirialWeight(grid, 8.0)
            assert virial_value(f, w, modulus=a) == virial_value(f, w)
            assert virial_derivatives(f, mp, w, modulus=a) == virial_derivatives(f, mp, w)
        else:
            assert whole_space_virial_e2(f, mp, snap=snap) == whole_space_virial_e2(f, mp)


# -- the fused kernel against single steps ------------------------------------

def _rel(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("mp, grid, amplitude", [
    (MP1, GridSpec(d=1, n_per_axis=256, half_width=10.0), 1.0),
    # p = 4 in 2-D: the (p-1)/2 = 3/2 power takes the sqrt path
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"),
     GridSpec(d=2, n_per_axis=64, half_width=8.0), 0.8),
])
def test_fused_marching_matches_a_loop_of_single_steps(mp, grid, amplitude):
    u0 = field_from_function(grid, lambda *x: amplitude * np.exp(-sum(c**2 for c in x)))
    dt = 1e-3
    cfg = StepperConfig(dt=dt, t_final=40 * dt, snapshot_every=7,
                        checkpoint_every=5, **OPEN)
    log = evolve(u0, mp, cfg)
    assert log.outcome == "completed"

    states, u = {0: u0}, u0
    for step in range(1, 41):
        u = strang_step(u, mp, dt)
        states[step] = u

    snap_steps = [0, 7, 14, 21, 28, 35, 40]
    assert log.times == pytest.approx([k * dt for k in snap_steps])
    for k, snap in zip(snap_steps, log.snapshots):
        ref = snapshot(states[k], mp, k * dt)
        for name in ("mass", "grad_l2_sq", "lp1", "lmc"):
            assert getattr(snap, name) == pytest.approx(getattr(ref, name), rel=1e-12)
    ckpt_steps = [0, 5, 10, 15, 20, 25, 30, 35, 40]
    assert [t for t, _ in log.checkpoints] == pytest.approx([k * dt for k in ckpt_steps])
    for k, (_, f) in zip(ckpt_steps, log.checkpoints):
        assert _rel(f.values, states[k].values) < 1e-12
    assert _rel(log.final_state.values, states[40].values) < 1e-12


def _reference_strang(values, n, dt, terms, kin):
    """n fused Strang steps as plain array arithmetic: full-array cos and
    sin, fftn/ifftn, and every multiply by a coupling spelled out."""
    def power(a2, e):
        if e == 1.0:
            return a2
        if e == 1.5:
            return a2 * np.sqrt(a2)
        if e == 2.0:
            return a2 * a2
        if e == 3.0:
            return a2 * a2 * a2
        return a2**e

    def rotate(v, tau):
        a2 = v.real * v.real + v.imag * v.imag
        (mu, e), *rest = terms
        theta = mu * power(a2, e)
        for mu, e in rest:
            theta += mu * power(a2, e)
        theta *= -tau
        phase = np.empty(v.shape, dtype=np.complex128)
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        v *= phase

    def free(v):
        v[...] = np.fft.ifftn(kin * np.fft.fftn(v))

    if not terms:
        for _ in range(n):
            free(values)
        return
    rotate(values, 0.5 * dt)
    for _ in range(n - 1):
        free(values)
        rotate(values, dt)
    free(values)
    rotate(values, 0.5 * dt)


G1 = GridSpec(d=1, n_per_axis=512, half_width=20.0)
G2 = GridSpec(d=2, n_per_axis=64, half_width=8.0)


@pytest.mark.parametrize("mp, grid, amplitude, couplings, window", [
    (MP1, G1, 1.0, None, "partial"),
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"), G2, 0.8, None, "partial"),
    # (p-1)/2 = 1.25: the generic np.power path
    (ModelParams(d=2, p=3.5, omega=1.0, equation="E1"), G2, 0.8, None, "partial"),
    # couplings other than +-1 keep their multiply
    (MP1, G1, 1.0, (0.3, -0.7), "partial"),
    (MP1, G1, 1.0, (0.0, 0.0), "empty"),
    # every |theta| below 2^-27: no cos or sin at all
    (MP1, G1, 1e-5, None, "empty"),
    # every |theta| above it: cos and sin over the whole grid
    (MP1, G1, 2.0, None, "full"),
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E1"), G2, 2.0, None, "full"),
], ids=["1d_E1_p7", "2d_E2_p4", "2d_E1_p3.5", "mu_0.3_-0.7", "zero_couplings",
        "all_tiny", "none_tiny_1d", "none_tiny_2d"])
def test_kernel_is_the_plain_strang_loop_bitwise(mp, grid, amplitude, couplings, window):
    dt, n = 1e-3, 25
    u0 = field_from_function(
        grid, lambda *x: amplitude * (1.0 + 0.1 * x[0]) * np.exp(-sum(c**2 for c in x)))
    if window == "full":
        u0 = ComplexField(grid, u0.values + amplitude)
    terms = propagator._nonlinear_terms(mp, couplings)
    kin = propagator._kinetic_phase(grid, dt)

    theta = np.zeros(grid.shape)
    for mu, e in terms:
        theta += mu * np.abs(u0.values) ** (2 * e)
    wide = np.abs(0.5 * dt * theta) >= 2.0**-27
    assert {"empty": not wide.any(), "full": wide.all(),
            "partial": 0 < wide.mean() < 0.9}[window]

    ref = u0.values.copy()
    _reference_strang(ref, n, dt, terms, kin)
    # the kernel marches stacks: this one of one
    got = u0.values[np.newaxis].copy()
    propagator._advance(got, n, dt, terms, kin[np.newaxis])
    assert np.array_equal(got[0].view(np.float64), ref.view(np.float64))

    one = u0.values.copy()
    _reference_strang(one, 1, dt, terms, kin)
    step = strang_step(u0, mp, dt, couplings=couplings)
    assert np.array_equal(step.values.view(np.float64), one.view(np.float64))


def test_tiny_phases_have_exact_cos_and_sin():
    # the premise of the kernel's shortcut: below 2^-27 numpy's cos and sin
    # return 1 and the argument itself, and a slice computes what the full
    # array computes at the same points
    rng = np.random.default_rng(27)
    top = 2.0**-27
    x = np.exp(rng.uniform(math.log(5e-324), math.log(top), 200_000))
    specials = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                np.nextafter(top, 0.0), np.nextafter(np.nextafter(top, 0.0), 0.0)]
    x = np.concatenate([specials, x])
    x = np.concatenate([x, -x])
    assert np.all(np.abs(x) < top)
    assert np.array_equal(np.cos(x), np.ones_like(x))
    assert np.array_equal(np.sin(x).view(np.int64), x.view(np.int64))

    theta = np.concatenate([x[:64], rng.normal(0.0, 3.0, 256), x[-64:]])
    whole = np.empty(theta.size, dtype=np.complex128)
    np.cos(theta, out=whole.real)
    np.sin(theta, out=whole.imag)
    for lo in range(17):
        for hi in (theta.size - lo, theta.size - 2 * lo - 1):
            part = np.empty(theta.size, dtype=np.complex128)
            np.cos(theta[lo:hi], out=part.real[lo:hi])
            np.sin(theta[lo:hi], out=part.imag[lo:hi])
            assert np.array_equal(part[lo:hi].view(np.float64),
                                  whole[lo:hi].view(np.float64))


@pytest.mark.parametrize("n", [512, 4096, 8192])
def test_fft_of_a_stack_is_each_rows_own_fft_bitwise(n):
    # the premise of stacked marches: numpy transforms every line of a
    # stack, in its multi-line path, to the bits it gives the line alone
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    for fn in (np.fft.fft, np.fft.ifft):
        whole = fn(stack, axis=-1, out=stack.copy())
        for row, line in zip(whole, stack):
            alone = fn(line.copy(), out=np.empty_like(line))
            assert np.array_equal(row.view(np.float64), alone.view(np.float64))


@pytest.mark.parametrize("shape", [(4, 1024), (2, 2048), (1, 8192), (1, 256, 256),
                                   (2, 128, 128)])
def test_sums_over_a_stack_are_each_rows_own_sums_bitwise(shape):
    # the premise of stacked records: np.sum over each row's grid axes, and
    # over its masked gather in C order, gives the row its lone sum's bits
    rng = np.random.default_rng(len(shape) * shape[-1])
    stack = np.exp(8.0 * rng.normal(size=shape))
    grid = GridSpec(d=len(shape) - 1, n_per_axis=shape[-1], half_width=10.0)
    masks = [grid.tail_mask, grid.edge_mask(4), grid.edge_mask(9)]
    sums = [spectral._row_sums(stack)]
    sums += [spectral._masked_row_sums(stack, mask) for mask in masks]
    for i, row in enumerate(stack):
        alone = [np.sum(row)] + [np.sum(row[mask]) for mask in masks]
        assert [s[i].tobytes() for s in sums] == [a.tobytes() for a in alone]


def _bump(grid, amplitude, center=0.0):
    return field_from_function(
        grid, lambda *x: amplitude * (1.0 + 0.1 * x[0])
        * np.exp(-((x[0] - center) ** 2 + sum(c**2 for c in x[1:]))))


@pytest.mark.parametrize("mp, grid, rows", [
    # windows at either side of the box, and one with no cos or sin at all
    (MP1, G1, [("bump", 1.0, -6.0), ("bump", 1.0, 6.0), ("bump", 1e-5, 0.0)]),
    # a window over the whole grid beside a partial and an empty one
    (MP1, G1, [("flat", 2.0, 0.0), ("bump", 1.0, 3.0), ("bump", 1e-5, 0.0)]),
    # a row that overflows to inf and NaN beside two that stay finite
    (MP1, G1, [("bump", 1.0, 0.0), ("bump", 1e80, 0.0), ("bump", 1e-5, 0.0)]),
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"), G2,
     [("bump", 0.8, -2.0), ("bump", 0.8, 2.5)]),
], ids=["partial_partial_empty", "full_partial_empty", "non_finite_row", "2d_pair"])
def test_a_stack_marches_each_row_as_it_marches_alone(mp, grid, rows):
    dt, n = 1e-3, 25
    fields = []
    for shape, amplitude, center in rows:
        f = _bump(grid, amplitude, center).values
        fields.append(f + amplitude if shape == "flat" else f)
    terms = propagator._nonlinear_terms(mp)
    # one step for every row, then a step per row; a stack takes a column
    # of steps and a symbol per row either way
    for dts in ([dt] * len(rows), [dt * 0.5**row for row in range(len(rows))]):
        step = np.array(dts).reshape((-1,) + (1,) * grid.d)
        kin = np.stack([propagator._free_flow_symbol(grid, h) for h in dts])
        stack = np.stack(fields)
        with np.errstate(all="ignore"):
            propagator._advance(stack, n, step, terms, kin)
            for row, f, h in zip(stack, fields, dts):
                alone = f[np.newaxis].copy()
                propagator._advance(alone, n, h, terms,
                                    propagator._kinetic_phase(grid, h)[np.newaxis])
                alone = alone[0]
                # NaN where the lone march has NaN, every other sample
                # bitwise; numpy's multi-line FFT may give a NaN the other sign
                nan = np.isnan(alone.view(np.float64))
                assert np.array_equal(np.isnan(row.view(np.float64)), nan)
                assert np.array_equal(row.view(np.int64)[~nan], alone.view(np.int64)[~nan])
        finite = np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
        assert finite.tolist() == [amplitude < 1e10 for _, amplitude, _ in rows]


@pytest.mark.parametrize("bounded", [False, True])
def test_evolve_stack_logs_are_each_flights_evolve_log(double_gs, bounded):
    g = GridSpec(d=1, n_per_axis=1024, half_width=15.0)
    q = ground_state_field(double_gs, g)
    # two blow-ups that abort at different records, a flight that runs to
    # t_final, and one that overflows before its first record
    u0s = [ComplexField(g, c * q.values) for c in (1.3, 1.4, 0.7, 1e60)]
    minus = StepperConfig(dt=1e-5, t_final=0.03, snapshot_every=25, checkpoint_every=10,
                          blowup_grad_factor=10.0, tail_fraction_max=3e-3,
                          edge_mass_max=1e-8)
    # a threshold sweep's two sides: the scattering flights step 10x
    # coarser, each flight with its own horizon and thresholds
    plus = StepperConfig(dt=1e-4, t_final=0.2, snapshot_every=25, checkpoint_every=10,
                         tail_fraction_max=1e-5, edge_mass_max=1e-5)
    # and each with its own edge band: edge_cells is no part of the mate
    # rule, so one record takes three bands
    mixed = [minus, replace(minus, tail_fraction_max=2e-3, edge_cells=6), plus,
             replace(plus, dt=5e-5, t_final=0.1, blowup_grad_factor=50.0, edge_cells=9)]

    def bits(f):
        return f.values.view(np.int64).tobytes()

    def same(a, b):
        # equal reprs: every float bitwise, -0.0 apart from 0.0, except
        # that NaN matches NaN (the overflowing flight's record at t = 0)
        return repr(a) == repr(b)

    for cfgs in ([minus] * 4, mixed):
        with np.errstate(all="ignore"):
            stacked = propagator.evolve_stack(u0s, MP1, cfgs,
                                              virial_weight=VirialWeight(g, 4.0),
                                              bounded_checkpoints=bounded)
        assert [log.outcome for log in stacked] == ["blowup_detected", "blowup_detected",
                                                    "completed", "resolution_lost"]
        assert stacked[0].abort_time != stacked[1].abort_time
        assert stacked[3].abort_detail.startswith("non-finite amplitudes")

        for u0, cfg, log in zip(u0s, cfgs, stacked):
            with np.errstate(all="ignore"):
                alone = evolve(u0, MP1, cfg, virial_weight=VirialWeight(g, 4.0),
                               bounded_checkpoints=bounded)
            assert log.config is cfg
            for name in ("dt_used", "n_steps", "outcome", "abort_time", "abort_detail",
                         "times", "snapshots", "tail_fractions", "edge_fractions",
                         "scatter_series", "virial_rows"):
                assert same(getattr(log, name), getattr(alone, name)), name
            assert [t for t, _ in log.checkpoints] == [t for t, _ in alone.checkpoints]
            assert ([bits(f) for _, f in log.checkpoints]
                    == [bits(f) for _, f in alone.checkpoints])
            assert log.checkpoints[0][1] is u0
            assert bits(log.final_state) == bits(alone.final_state)
    assert len({log.dt_used for log in stacked}) == 3


def test_evolve_stack_refuses_a_bad_flight_before_any_step():
    g = GridSpec(d=1, n_per_axis=256, half_width=5.0)
    good = field_from_function(g, lambda x: np.exp(-x**2) + 0j)
    edgy = field_from_function(g, lambda x: np.exp(-((x - 4.9) ** 2) / 0.01))
    cfg = StepperConfig(dt=1e-3, t_final=0.1, edge_mass_max=1e-10)
    with pytest.raises(ValueError, match="edge-decay precondition"):
        propagator.evolve_stack([good, edgy], MP1, [cfg] * 2)
    other = field_from_function(GridSpec(d=1, n_per_axis=128, half_width=5.0),
                                lambda x: np.exp(-x**2) + 0j)
    with pytest.raises(ValueError, match="share one grid"):
        propagator.evolve_stack([good, other], MP1, [cfg] * 2)


def test_evolve_stack_refuses_mates_off_the_shared_cadence():
    g = GridSpec(d=1, n_per_axis=256, half_width=5.0)
    u0 = field_from_function(g, lambda x: np.exp(-x**2) + 0j)
    cfg = StepperConfig(dt=1e-3, t_final=0.1, snapshot_every=20)
    for mate in (replace(cfg, snapshot_every=25), replace(cfg, checkpoint_every=5)):
        with pytest.raises(ValueError, match="share snapshot_every and checkpoint_every"):
            propagator.evolve_stack([u0, u0], MP1, [cfg, mate])
    # 110 steps is off the 20-step cadence: beside a flight of another
    # length, its last step could split that flight's fused segment
    off = replace(cfg, t_final=0.11)
    assert not propagator._ends_on_cadence(off)
    with pytest.raises(ValueError, match="end on a step their record cadence observes"):
        propagator.evolve_stack([u0, u0], MP1, [cfg, off])
    # a nonzero checkpoint cadence that observes it admits it
    assert propagator._ends_on_cadence(replace(off, checkpoint_every=10))
    with pytest.raises(ValueError, match="as many stepper configs"):
        propagator.evolve_stack([u0, u0], MP1, [cfg])
    with pytest.raises(TypeError, match="one per flight"):
        propagator.evolve_stack([u0, u0], MP1, cfg)
    # mates off the cadence share their whole stepper, not just a length
    with pytest.raises(ValueError, match="share one stepper config"):
        propagator.evolve_stack([u0, u0], MP1, [off, replace(off, t_final=0.1101)])
    logs = propagator.evolve_stack([u0, u0], MP1, [off, off])
    assert [log.outcome for log in logs] == ["completed"] * 2


# -- aborts -------------------------------------------------------------------

def test_focusing_soliton_overdose_trips_the_blowup_abort(double_gs):
    g = GridSpec(d=1, n_per_axis=1024, half_width=15.0)
    q = ground_state_field(double_gs, g)
    u0 = ComplexField(g, 1.3 * q.values)
    cfg = StepperConfig(dt=1e-5, t_final=1.5, snapshot_every=25,
                        blowup_grad_factor=10.0, tail_fraction_max=1e-3,
                        edge_mass_max=1e-8)
    log = evolve(u0, MP1, cfg)
    assert log.outcome == "blowup_detected"
    assert log.abort_time == pytest.approx(0.02225, abs=1e-3)
    rep = detect_blowup(log)
    assert rep.detected
    assert rep.time == log.abort_time


def test_moderate_overdose_loses_resolution_without_growth_signal(double_gs):
    g = GridSpec(d=1, n_per_axis=1024, half_width=15.0)
    q = ground_state_field(double_gs, g)
    u0 = ComplexField(g, 1.2 * q.values)
    cfg = StepperConfig(dt=1e-5, t_final=1.5, snapshot_every=25,
                        blowup_grad_factor=10.0, tail_fraction_max=1e-3,
                        edge_mass_max=1e-8)
    log = evolve(u0, MP1, cfg)
    assert log.outcome == "resolution_lost"
    rep = detect_blowup(log)
    assert not rep.detected
    assert "without gradient growth" in rep.diagnosis


def test_fast_packet_escapes_a_small_box():
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    u0 = _packet(grid=g, amplitude=0.3, k_lattice=40)
    cfg = StepperConfig(dt=1e-4, t_final=2.0, snapshot_every=10,
                        tail_fraction_max=1.0, edge_mass_max=1e-6)
    log = evolve(u0, MP1, cfg)
    assert log.outcome == "box_escape"
    assert 0.0 < log.abort_time < 1.0
    assert "edge mass" in log.abort_detail


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_amplitudes_abort_with_a_postmortem_state():
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    u0 = field_from_function(g, lambda x: 1e60 * np.exp(-(x**2)))
    cfg = StepperConfig(dt=1e-3, t_final=1.0, snapshot_every=10, **OPEN)
    log = evolve(u0, MP1, cfg)
    assert log.outcome in ("blowup_detected", "resolution_lost")
    assert "non-finite" in log.abort_detail
    assert log.final_state is not None
    assert not np.all(np.isfinite(log.final_state.values))
    # every NaN is stored as np.nan, whatever sign the march gave it
    parts = log.final_state.values.view(np.float64)
    nans = np.isnan(parts)
    assert nans.any()
    assert np.all(parts.view(np.uint64)[nans] == 0x7FF8000000000000)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_amplitudes_at_a_checkpoint_step_abort_there():
    # the fused kernel closes its half-step at checkpoints too, so the
    # overflow is caught at step 5, before the first snapshot at step 7
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    u0 = field_from_function(g, lambda x: 1e60 * np.exp(-(x**2)))
    cfg = StepperConfig(dt=1e-3, t_final=1.0, snapshot_every=7,
                        checkpoint_every=5, **OPEN)
    log = evolve(u0, MP1, cfg)
    assert "non-finite" in log.abort_detail
    assert log.abort_time == pytest.approx(5e-3)
    assert not np.all(np.isfinite(log.final_state.values))


def test_detector_requires_growth_and_concentration_together():
    cfg = StepperConfig(dt=1e-3, t_final=0.2, snapshot_every=20, **OPEN)
    log = evolve(_packet(), MP1, cfg)
    rep = detect_blowup(log)
    assert not rep.detected
    assert rep.diagnosis == "no focusing growth observed"
    with pytest.raises(ValueError, match="empty"):
        detect_blowup(type(log)(params=MP1, config=cfg))


# -- scattering proxy ---------------------------------------------------------

def _dispersive_log(checkpoint_every=1000):
    g = GridSpec(d=1, n_per_axis=1024, half_width=100.0)
    u0 = field_from_function(g, lambda x: 0.2 * np.exp(-(x**2)))
    cfg = StepperConfig(dt=1e-3, t_final=8.0, snapshot_every=100,
                        checkpoint_every=checkpoint_every,
                        tail_fraction_max=1.0, edge_mass_max=1e-4)
    return evolve(u0, MP1, cfg)


def test_proxy_reports_spreading_diagnostics():
    log = _dispersive_log()
    rep = scattering_proxy(log)
    assert rep.accumulated > 0.0
    assert rep.mean_rate > rep.late_rate > 0.0
    assert rep.decay_factor > 2.0
    assert rep.cauchy_distance is not None
    assert rep.cauchy_distance < 1e-4


def test_proxy_needs_stored_late_checkpoints_for_the_cauchy_test():
    rep = scattering_proxy(_dispersive_log(checkpoint_every=0))
    assert rep.cauchy_distance is None


def test_proxy_refuses_aborted_runs(double_gs):
    g = GridSpec(d=1, n_per_axis=1024, half_width=15.0)
    q = ground_state_field(double_gs, g)
    cfg = StepperConfig(dt=1e-5, t_final=1.5, snapshot_every=25,
                        blowup_grad_factor=10.0, tail_fraction_max=1e-3,
                        edge_mass_max=1e-8)
    log = evolve(ComplexField(g, 1.3 * q.values), MP1, cfg)
    with pytest.raises(ValueError, match="completed"):
        scattering_proxy(log)
