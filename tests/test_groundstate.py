"""Radial solver against independent oracles.

The d = 1 oracles come from the stationary equation's first integral:
with y = Q^2 the decaying orbit satisfies (y')^2 = 4 y^2 g(y) where
g(y) = omega + y^2/3 - y^3/4, the peak value y* is the positive root of
3y^3 - 4y^2 - 12 omega = 0, and every profile integral reduces to a
one-dimensional quadrature in y.  None of that shares code with the
shooting or descent solvers.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from nlslab import groundstate
from nlslab.functionals import ModelParams, action_K_H, gradient_l2_sq, mass
from nlslab.groundstate import (
    BracketError,
    ConvergenceError,
    ground_state_field,
    ground_state_on_grid,
    pohozaev_check,
    solve_ground_state,
    threshold,
)
from nlslab.spectral import GridSpec

DOUBLE_MP = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
CRITICAL_MP = ModelParams(d=1, p=7.0, omega=1.0, equation="E2")


def _first_integral_oracles(omega):
    """(y*, mass, grad, lp1) for the d=1 double nonlinearity at this omega."""
    ystar = brentq(
        lambda y: 3 * y**3 - 4 * y**2 - 12 * omega, 0.1, 50.0, xtol=1e-15, rtol=8.9e-16
    )

    def g(y):
        return omega + y**2 / 3.0 - y**3 / 4.0

    kw = dict(points=[ystar], limit=200)
    mass_o = quad(lambda y: 1.0 / math.sqrt(g(y)), 0.0, ystar, **kw)[0]
    grad_o = quad(lambda y: math.sqrt(g(y)), 0.0, ystar, **kw)[0]
    lp1_o = quad(lambda y: y**3 / math.sqrt(g(y)), 0.0, ystar, **kw)[0]
    return ystar, mass_o, grad_o, lp1_o


# -- closed-form quintic case -------------------------------------------------

def test_single_power_quintic_matches_closed_form():
    gs = solve_ground_state(CRITICAL_MP, which="single_power", power=5.0)
    closed = 3.0**0.25 / np.sqrt(np.cosh(2.0 * gs.r))
    assert float(np.max(np.abs(gs.profile - closed))) < 1e-6
    assert abs(gs.amplitude - 3.0**0.25) < 1e-9
    assert abs(gs.mass - math.sqrt(3.0) * math.pi / 2.0) < 1e-9


def test_mass_critical_mode_reproduces_the_quintic(quintic_gs):
    assert abs(quintic_gs.amplitude - 3.0**0.25) < 1e-9
    assert abs(quintic_gs.mass - math.sqrt(3.0) * math.pi / 2.0) < 1e-9
    assert quintic_gs.omega == 1.0
    assert quintic_gs.m_omega is None


def test_amplitude_error_drops_fourth_order_with_step():
    errs = []
    for step in (0.005, 0.0025, 0.00125):
        gs = solve_ground_state(CRITICAL_MP, which="single_power", power=5.0, step=step)
        errs.append(abs(gs.amplitude - 3.0**0.25))
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


# -- double nonlinearity against quadrature oracles ---------------------------

def test_double_profile_certificates(double_gs):
    gs = double_gs
    assert gs.residual < 1e-8
    assert abs(gs.K_value) < 1e-6
    assert gs.m_omega > 0
    rep = pohozaev_check(gs)
    assert rep.passed
    assert rep.nehari_residual < 1e-6
    assert rep.pohozaev_residual < 1e-6
    assert rep.constraint_residual < 1e-6


def test_double_amplitude_solves_the_peak_cubic(double_gs):
    ystar, _, _, _ = _first_integral_oracles(1.0)
    assert abs(double_gs.amplitude - math.sqrt(ystar)) < 1e-9


def test_double_integrals_match_quadrature(double_gs):
    ystar, mass_o, grad_o, lp1_o = _first_integral_oracles(1.0)
    m_omega_o = 0.5 * mass_o + lp1_o / 16.0
    assert double_gs.mass == pytest.approx(mass_o, rel=1e-8)
    assert double_gs.grad_l2_sq == pytest.approx(grad_o, rel=1e-8)
    assert double_gs.m_omega == pytest.approx(m_omega_o, rel=1e-8)
    # pinned values from the same quadrature, as a drift alarm
    assert double_gs.mass == pytest.approx(2.696020957499212, abs=5e-9)
    assert double_gs.m_omega == pytest.approx(2.001398042743485, abs=5e-9)


def test_one_dimensional_identity_grad_equals_threshold(double_gs):
    # integrate the first integral over the line and combine with K = 0
    assert double_gs.grad_l2_sq == pytest.approx(double_gs.m_omega, rel=1e-8)


def test_threshold_tuple_reports_both_numbers(double_gs, quintic_gs):
    th = threshold(double_gs)
    assert th.m_omega == double_gs.m_omega
    assert th.q_mass == double_gs.mass
    assert threshold(quintic_gs).m_omega is None


@pytest.mark.parametrize("p", [6.0, 7.0, 9.0])
def test_action_threshold_is_positive_and_grows_with_omega(p):
    values = []
    for omega in (0.5, 1.0, 2.0):
        mp = ModelParams(d=1, p=p, omega=omega, equation="E1")
        gs = solve_ground_state(mp, which="double")
        assert gs.m_omega > 0
        values.append(gs.m_omega)
    assert values[0] < values[1] < values[2]


def test_descent_and_shooting_agree_on_peak_height(double_gs):
    grid = GridSpec(d=1, n_per_axis=1024, half_width=30.0)
    q, info = ground_state_on_grid(DOUBLE_MP, grid, which="double")
    peak = float(np.max(np.abs(q.values)))
    assert abs(peak - double_gs.amplitude) / double_gs.amplitude < 1e-6
    assert info["residual"] < 1e-5


def test_perturbed_profile_fails_the_certificates(double_gs):
    warped = double_gs.profile * (1.0 + 0.01 * np.exp(-double_gs.r))
    fake = dataclasses.replace(double_gs, profile=warped)
    assert not pohozaev_check(fake).passed


# -- sampling onto grids ------------------------------------------------------

def test_sampled_field_carries_the_radial_integrals(double_gs):
    grid = GridSpec(d=1, n_per_axis=2048, half_width=30.0)
    q = ground_state_field(double_gs, grid)
    assert mass(q) == pytest.approx(double_gs.mass, rel=1e-8)
    assert gradient_l2_sq(q) == pytest.approx(double_gs.grad_l2_sq, rel=1e-7)
    assert abs(action_K_H(q, DOUBLE_MP).k_value) < 1e-6


def test_townes_constants_and_identity(townes_gs):
    # independently published values for the d=2 critical soliton
    assert townes_gs.amplitude == pytest.approx(2.2062008646, abs=1e-8)
    assert townes_gs.mass == pytest.approx(11.7008965246, rel=1e-9)
    assert townes_gs.grad_l2_sq == pytest.approx(townes_gs.mass, rel=1e-10)


def test_townes_field_in_two_dimensions(townes_gs):
    grid = GridSpec(d=2, n_per_axis=256, half_width=12.0)
    q = ground_state_field(townes_gs, grid)
    assert mass(q) == pytest.approx(townes_gs.mass, rel=1e-6)
    assert float(np.max(np.abs(q.values))) == pytest.approx(townes_gs.amplitude, rel=1e-6)


# -- refusals -----------------------------------------------------------------

def test_single_power_defaults_to_the_supercritical_exponent():
    # p = 7: Q = (4 sech^2(3x))^{1/6}, peak 4^{1/6}
    gs = solve_ground_state(DOUBLE_MP, which="single_power")
    assert abs(gs.amplitude - 4.0 ** (1.0 / 6.0)) < 1e-9
    closed = (4.0 / np.cosh(3.0 * gs.r) ** 2) ** (1.0 / 6.0)
    assert float(np.max(np.abs(gs.profile - closed))) < 1e-7


def test_unknown_mode_is_rejected(double_gs):
    with pytest.raises(ValueError):
        solve_ground_state(DOUBLE_MP, which="nodal")


# -- per-process cache --------------------------------------------------------

@pytest.fixture
def fresh_cache():
    groundstate._solve_cached.cache_clear()
    yield
    groundstate._solve_cached.cache_clear()


def test_equal_requests_share_one_read_only_solution(fresh_cache):
    gs = solve_ground_state(CRITICAL_MP, which="mass_critical")
    assert solve_ground_state(CRITICAL_MP, which="mass_critical") is gs
    for arr in (gs.r, gs.profile, gs.derivative):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        gs.amplitude = 1.0


def test_a_guess_or_a_different_step_solves_afresh(fresh_cache):
    gs = solve_ground_state(CRITICAL_MP, which="mass_critical")
    guessed = solve_ground_state(CRITICAL_MP, which="mass_critical", guess=gs.profile)
    assert guessed is not gs
    assert guessed.amplitude == pytest.approx(gs.amplitude, rel=1e-10)
    coarser = solve_ground_state(CRITICAL_MP, which="mass_critical", step=2.0 * gs.step)
    assert coarser is not gs
    assert coarser.step == pytest.approx(2.0 * gs.step)
    assert solve_ground_state(CRITICAL_MP, which="mass_critical") is gs


def test_a_bracket_failure_is_not_cached(fresh_cache, monkeypatch):
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 1:
            raise BracketError("first attempt fails")
        return "solved"

    monkeypatch.setattr(groundstate, "_solve", flaky)
    with pytest.raises(BracketError):
        solve_ground_state(CRITICAL_MP, which="mass_critical")
    assert solve_ground_state(CRITICAL_MP, which="mass_critical") == "solved"
    assert solve_ground_state(CRITICAL_MP, which="mass_critical") == "solved"
    assert len(calls) == 2


def test_a_convergence_failure_is_not_cached(fresh_cache):
    kwargs = dict(which="mass_critical", r_max=1.0, step=0.01)
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            solve_ground_state(CRITICAL_MP, **kwargs)
    info = groundstate._solve_cached.cache_info()
    assert (info.misses, info.currsize) == (2, 0)
