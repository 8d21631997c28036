"""Split-step marching: conservation, aborts, and the trajectory record."""

import math

import numpy as np
import pytest

from nlslab.functionals import ModelParams, snapshot
from nlslab.groundstate import ground_state_field
from nlslab.propagator import (
    StepperConfig,
    detect_blowup,
    evolve,
    scattering_proxy,
    strang_step,
)
from nlslab.spectral import ComplexField, GridSpec, field_from_function, free_evolve

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

def test_zero_couplings_single_step_is_exactly_the_free_propagator():
    u = _packet()
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


def test_off_grid_horizon_is_nudged_onto_a_step_count():
    cfg = StepperConfig(dt=3e-3, t_final=0.01, snapshot_every=1000, **OPEN)
    log = evolve(_packet(), MP1, cfg)
    assert log.times[-1] == pytest.approx(0.01)
    assert (log.n_steps, log.dt_used) == (3, 0.01 / 3)


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
