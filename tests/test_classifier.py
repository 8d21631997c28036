"""Threshold classification: labels, gating, trapping bounds, serialization."""

import hashlib
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from nlslab import classifier, functionals, groundstate
from nlslab.classifier import (
    GATE_FACTOR,
    Margin,
    Verdict,
    classify,
    ground_state_digest,
    trap_bounds,
    verdict_to_json,
)
from nlslab.functionals import ModelParams, mass, snapshot
from nlslab.groundstate import ground_state_field, solve_ground_state
from nlslab.propagator import StepperConfig, evolve
from nlslab.spectral import ComplexField, GridSpec, field_from_function

MP1 = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
MP2 = ModelParams(d=1, p=7.0, omega=1.0, equation="E2")

GRID = GridSpec(d=1, n_per_axis=1024, half_width=30.0)


def _scaled(double_gs, c, grid=GRID):
    q = ground_state_field(double_gs, grid)
    return ComplexField(grid, c * q.values)


# -- competing-sign labels ----------------------------------------------------

def test_small_soliton_multiple_is_globally_trapped(double_gs):
    v = classify(_scaled(double_gs, 0.5), MP1, double_gs)
    assert v.equation == "E1"
    assert v.set_label == "A_plus"
    assert v.prediction == "global_scattering"
    assert v.action_margin.value < 0
    assert v.k_value.value > 0
    assert v.h1_bound == pytest.approx(double_gs.m_omega * 2.0)
    assert v.hypotheses is None


def test_large_soliton_multiple_is_blowup_bound(double_gs):
    v = classify(_scaled(double_gs, 1.2), MP1, double_gs)
    assert v.set_label == "A_minus"
    assert v.prediction == "finite_time_blowup"
    assert v.action_margin.value < 0
    assert v.k_value.value < 0
    assert v.h1_bound is None
    assert "finite-variance" in v.hypotheses


def test_the_ground_state_itself_is_not_labelable(double_gs):
    v = classify(_scaled(double_gs, 1.0), MP1, double_gs)
    assert v.set_label == "indeterminate"
    assert v.prediction == "no_prediction"


@pytest.mark.parametrize("n", [512, 2048])
def test_labels_are_stable_across_resolution(double_gs, n):
    grid = GridSpec(d=1, n_per_axis=n, half_width=30.0)
    assert classify(_scaled(double_gs, 0.5, grid), MP1, double_gs).set_label == "A_plus"
    assert classify(_scaled(double_gs, 1.2, grid), MP1, double_gs).set_label == "A_minus"
    assert (
        classify(_scaled(double_gs, 1.0, grid), MP1, double_gs).set_label
        == "indeterminate"
    )


def test_near_boundary_data_still_resolves(double_gs):
    assert classify(_scaled(double_gs, 0.98), MP1, double_gs).set_label == "A_plus"
    above = classify(_scaled(double_gs, 1.02), MP1, double_gs)
    assert above.set_label in ("A_minus", "above_threshold")


def _broad_low_amplitude_field(grid=GRID):
    # Large mass with negligible nonlinear terms pushes the action
    # above the mountain-pass level while keeping K positive.
    return field_from_function(grid, lambda x: 0.6 * np.exp(-(x**2) / 200.0))


def test_action_above_threshold_gets_no_prediction(double_gs):
    v = classify(_broad_low_amplitude_field(), MP1, double_gs)
    assert v.set_label == "above_threshold"
    assert v.prediction == "no_prediction"
    assert v.action_margin.value > 0


def test_verdict_is_invariant_under_translation_and_phase(double_gs):
    u = _scaled(double_gs, 0.7)
    moved = ComplexField(GRID, np.roll(u.values, 217) * np.exp(1.1j))
    a = classify(u, MP1, double_gs)
    b = classify(moved, MP1, double_gs)
    assert a.set_label == b.set_label
    assert b.action_margin.value == pytest.approx(a.action_margin.value, rel=1e-12)
    assert b.k_value.value == pytest.approx(a.k_value.value, rel=1e-12)


def test_label_is_constant_along_a_trapped_trajectory(double_gs):
    u0 = _scaled(double_gs, 0.5)
    cfg = StepperConfig(dt=1e-4, t_final=0.5, snapshot_every=1000,
                        checkpoint_every=1000, tail_fraction_max=1.0,
                        edge_mass_max=1.0)
    log = evolve(u0, MP1, cfg)
    assert log.outcome == "completed"
    for _, f in log.checkpoints:
        assert classify(f, MP1, double_gs).set_label == "A_plus"


# -- mass-threshold labels ----------------------------------------------------

def _mass_normalized_gaussian(target):
    f = field_from_function(GRID, lambda x: np.exp(-(x**2)))
    return ComplexField(GRID, math.sqrt(target / mass(f)) * f.values)


def test_subcritical_mass_predicts_scattering(quintic_gs):
    u = _mass_normalized_gaussian(0.8 * quintic_gs.mass)
    v = classify(u, MP2, quintic_gs)
    assert v.equation == "E2"
    assert v.set_label == "below_mass_threshold"
    assert v.prediction == "global_scattering"
    assert v.action_margin is None and v.k_value is None
    assert v.mass_margin.value == pytest.approx(-0.2 * quintic_gs.mass, rel=1e-9)


def test_supercritical_mass_gets_no_prediction(quintic_gs):
    u = _mass_normalized_gaussian(1.5 * quintic_gs.mass)
    v = classify(u, MP2, quintic_gs)
    assert v.set_label == "above_mass_threshold"
    assert v.prediction == "no_prediction"


def test_critical_mass_is_gated_indeterminate(quintic_gs):
    u = _mass_normalized_gaussian(quintic_gs.mass * (1.0 + 1e-15))
    v = classify(u, MP2, quintic_gs)
    assert v.set_label == "indeterminate"


# -- compatibility gates ------------------------------------------------------

def test_equation_profile_pairing_is_enforced(double_gs, quintic_gs, townes_gs):
    u = _scaled(double_gs, 0.5)
    other = ModelParams(d=1, p=7.0, omega=2.0, equation="E1")
    for mp, gs, match in (
        # the refusal names the profile the equation needs
        (MP1, quintic_gs, "needs the 'double' ground state"),
        (MP2, double_gs, "needs the 'mass_critical' ground state"),
        (other, double_gs, "data uses {'d': 1, 'p': 7.0, 'omega': 2.0}"),
        # an E2 model off its mass-critical profile's dimension
        (MP2, townes_gs, "solved for {'d': 2} but data uses {'d': 1}"),
    ):
        with pytest.raises(ValueError, match=re.escape(match)):
            classify(u, mp, gs)


def test_under_resolved_data_widens_the_gate(double_gs):
    coarse = GridSpec(d=1, n_per_axis=64, half_width=30.0)
    u = _scaled(double_gs, 0.98, coarse)
    v = classify(u, MP1, double_gs)
    assert v.set_label == "indeterminate"


# -- trapping bounds ----------------------------------------------------------

def test_trapped_member_satisfies_the_quantitative_bounds(double_gs):
    rep = trap_bounds(_scaled(double_gs, 0.5), MP1, double_gs)
    assert rep.set_label == "A_plus"
    assert rep.holds
    assert rep.h1_ratio < 1.0
    assert rep.h1_norm_sq < rep.h1_scale
    assert rep.k_value > 0


def test_blowup_member_satisfies_the_strict_upper_bound(double_gs):
    rep = trap_bounds(_scaled(double_gs, 1.2), MP1, double_gs)
    assert rep.set_label == "A_minus"
    assert rep.holds
    assert rep.k_value < rep.k_upper_bound < 0
    assert rep.slack > 0


@pytest.mark.parametrize("c", [0.5, 1.2])
def test_trap_bounds_reads_the_one_snapshot_its_verdict_took(double_gs, monkeypatch, c):
    u = _scaled(double_gs, c)
    snapshots, calls = functionals._snapshots, []

    def counted(*args):
        calls.append(args)
        return snapshots(*args)

    monkeypatch.setattr(functionals, "_snapshots", counted)
    monkeypatch.setattr(classifier, "_snapshots", counted)
    rep = trap_bounds(u, MP1, double_gs)
    assert len(calls) == 1
    monkeypatch.undo()

    # every figure is the one a fresh snapshot and the solution give
    s, m_omega = snapshot(u, MP1), double_gs.m_omega
    gap = m_omega - s.action
    assert rep.k_value == s.scaling_derivative
    assert rep.action_gap == gap
    if rep.set_label == "A_minus":
        assert rep.k_upper_bound == -gap
        assert rep.slack == -gap - s.scaling_derivative
        return
    assert rep.set_label == "A_plus"
    scale = m_omega + m_omega / MP1.omega
    assert rep.h1_norm_sq == s.grad_l2_sq + s.mass
    assert rep.h1_scale == scale
    assert rep.h1_ratio == (s.grad_l2_sq + s.mass) / scale
    dp = MP1.d * (MP1.p - 1.0)
    assert rep.k_quadratic_floor == (dp - 4.0) / dp * functionals._scaling_derivative(
        MP1, s.grad_l2_sq, 0.0, s.lmc)


def test_trap_bounds_refuse_unlabeled_or_wrong_sign_input(double_gs, quintic_gs):
    with pytest.raises(ValueError, match="labeled"):
        trap_bounds(_scaled(double_gs, 1.0), MP1, double_gs)
    with pytest.raises(ValueError, match="competing-sign"):
        trap_bounds(_scaled(double_gs, 0.5), MP2, quintic_gs)


def test_trapping_holds_across_the_negative_k_corpus(double_gs, corpus):
    gap_violations = 0
    for f in corpus:
        v = classify(f, MP1, double_gs)
        if v.set_label != "A_minus":
            continue
        rep = trap_bounds(f, MP1, double_gs)
        if not rep.holds:
            gap_violations += 1
    assert gap_violations == 0


# -- margins and serialization ------------------------------------------------

def test_margin_gate_uses_the_documented_factor():
    assert GATE_FACTOR == 3.0
    assert Margin(1.0, 0.1).resolved
    assert not Margin(0.2, 0.1).resolved
    assert not Margin(-0.29, 0.1).resolved
    assert Margin(-0.31, 0.1).resolved


def test_digest_is_deterministic_and_parameter_sensitive(double_gs, quintic_gs):
    # an independent solve, not the cached object the fixture holds
    groundstate._solve_cached.cache_clear()
    again = solve_ground_state(MP1, which="double")
    assert again is not double_gs
    assert ground_state_digest(again) == ground_state_digest(double_gs)
    assert len(ground_state_digest(double_gs)) == 64
    assert ground_state_digest(quintic_gs) != ground_state_digest(double_gs)


@pytest.mark.parametrize("profile", ["double_gs", "quintic_gs", "townes_gs"])
def test_digest_is_hashlib_sha256_of_the_header_and_profile(request, profile):
    gs = request.getfixturevalue(profile)
    head = f"{gs.which}:{gs.params.d}:{gs.params.p!r}:{gs.omega!r}".encode()
    want = hashlib.sha256(head + gs.r.tobytes() + gs.profile.tobytes()).hexdigest()
    assert ground_state_digest(gs) == want
    # kept with the solution: a second call hashes nothing
    assert ground_state_digest(gs) is ground_state_digest(gs)


def test_verdict_round_trips_through_json(double_gs):
    for c in (0.5, 1.0, 1.2):
        v = classify(_scaled(double_gs, c), MP1, double_gs)
        assert json.loads(verdict_to_json(v)) == asdict(v)


def test_verdict_rejects_unknown_labels():
    with pytest.raises(ValueError):
        Verdict(
            equation="E1",
            set_label="A_star",
            prediction="no_prediction",
            action_margin=None,
            k_value=None,
            mass_margin=None,
            h1_bound=None,
            hypotheses=None,
            ground_state_digest="0" * 64,
        )
