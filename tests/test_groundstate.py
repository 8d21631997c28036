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
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicHermiteSpline, CubicSpline
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


def _brentq_rescale(q, dv, k2_spec, omega, terms):
    """The descent's constraint rescale as it was with scipy's brentq
    finishing the doubling-and-halving bracket."""
    grad = float(np.sum(k2_spec * np.abs(np.fft.fftn(q)) ** 2)) / q.size * dv
    quad_part = grad + omega * float(np.sum(np.abs(q) ** 2) * dv)
    ints = [(mu, ex, float(np.sum(np.abs(q) ** (ex + 1.0)) * dv)) for mu, ex in terms]

    def h(c):
        return quad_part - sum(mu * c ** (ex - 1.0) * val for mu, ex, val in ints)

    hi = 1.0
    while h(hi) >= 0.0:
        hi *= 2.0
    lo = hi / 2.0
    while h(lo) < 0.0:
        lo /= 2.0
    return brentq(h, lo, hi, xtol=1e-15, rtol=8.9e-16)


def test_descent_moves_by_rounding_from_the_brentq_rescale(monkeypatch):
    cases = [(DOUBLE_MP, GridSpec(d=1, n_per_axis=1024, half_width=30.0), "double"),
             (CRITICAL_MP, GridSpec(d=1, n_per_axis=1024, half_width=30.0), "mass_critical"),
             (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"),
              GridSpec(d=2, n_per_axis=64, half_width=12.0), "mass_critical")]
    shipped = [ground_state_on_grid(mp, grid, which) for mp, grid, which in cases]
    monkeypatch.setattr(groundstate, "_nehari_rescale", _brentq_rescale)
    for (mp, grid, which), (q, info) in zip(cases, shipped):
        want, want_info = ground_state_on_grid(mp, grid, which)
        assert info["iterations"] == want_info["iterations"]
        peak = float(np.max(np.abs(want.values)))
        assert float(np.max(np.abs(q.values - want.values))) <= 1e-15 * peak


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


# -- in-module numerics against scipy and a plain RK4 -------------------------

def test_radial_integral_is_scipy_simpson_bitwise(double_gs):
    r, q, v = double_gs.r, double_gs.profile, double_gs.derivative
    warped = np.geomspace(1.0, 31.0, r.size) - 1.0   # non-uniform spacing
    for x in (r, warped):
        for n in (x.size, x.size - 1, 101, 100, 5, 4):   # odd and even counts
            for y in (q[:n] ** 2, v[:n] ** 2, q[:n] ** 8):
                for d in (1, 2):
                    want = groundstate._SURFACE[d] * float(simpson(y * x[:n] ** (d - 1), x=x[:n]))
                    assert groundstate._radial_integral(x[:n], y, d) == want


@pytest.mark.parametrize("profile, d, n, half_width", [
    ("double_gs", 1, 8192, 700.0),
    ("double_gs", 1, 1024, 15.0),
    ("townes_gs", 2, 256, 20.0),
])
def test_sampled_profile_is_scipy_cubic_hermite_spline_bitwise(request, profile, d, n,
                                                                half_width):
    gs = request.getfixturevalue(profile)
    hermite = CubicHermiteSpline(gs.r, gs.profile, gs.derivative)
    grid = GridSpec(d=d, n_per_axis=n, half_width=half_width)
    inside = grid.radius <= gs.r[-1]
    values = ground_state_field(gs, grid).values
    assert np.array_equal(values.real[inside], hermite(grid.radius[inside]))
    assert not np.any(values.imag)
    for at in (gs.r, gs.r[-1:], 0.5 * (gs.r[1:] + gs.r[:-1])):
        assert np.array_equal(
            groundstate._hermite_eval(gs.r, gs.profile, gs.derivative, at), hermite(at))
    # the clamped spline through the same nodes, which re-derives every
    # node slope, samples the same profile to rounding
    clamped = CubicSpline(gs.r, gs.profile, bc_type=((1, 0.0), (1, float(gs.derivative[-1]))))
    shift = np.max(np.abs(values.real[inside] - clamped(grid.radius[inside])))
    assert shift <= 1e-12 * gs.amplitude


def _reference_rk4(a, h, n_steps, d, omega, terms):
    """Plain RK4 with the acceleration as a function; also reports whether
    any stage value of Q went negative."""
    def g(x):
        s = 0.0
        for mu, ex in terms:
            s += mu * math.copysign(abs(x) ** ex, x)
        return s

    def acc(r, q, v):
        a0 = omega * q - g(q)
        return a0 - (d - 1.0) * v / r if r > 0.0 else a0 / d

    q, v = float(a), 0.0
    qs, vs, negative = [q], [v], False
    for i in range(n_steps):
        r = i * h
        k1q, k1v = v, acc(r, q, v)
        q2, v2 = q + 0.5 * h * k1q, v + 0.5 * h * k1v
        k2q, k2v = v2, acc(r + 0.5 * h, q2, v2)
        q3, v3 = q + 0.5 * h * k2q, v + 0.5 * h * k2v
        k3q, k3v = v3, acc(r + 0.5 * h, q3, v3)
        q4, v4 = q + h * k3q, v + h * k3v
        k4q, k4v = v4, acc(r + h, q4, v4)
        negative |= min(q2, q3, q4) < 0.0
        q += h * (k1q + 2.0 * (k2q + k3q) + k4q) / 6.0
        v += h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
        qs.append(q)
        vs.append(v)
        if q <= 0.0:
            return 1, i + 1, qs, vs, negative
        if v > 0.0:
            return -1, i + 1, qs, vs, negative
    return -1, n_steps, qs, vs, negative


@pytest.mark.parametrize("d, omega, terms", [
    (1, 1.0, ((1.0, 7.0), (-1.0, 5.0))),
    (2, 1.0, ((1.0, 3.0),)),
    (2, 1.5, ((1.0, 4.0), (-1.0, 3.0))),
])
def test_shooting_loop_is_a_plain_rk4_bitwise(d, omega, terms):
    h, n_steps = 0.01, 2500
    negative_stages = 0
    for a in (0.3, 1.0, 1.4, 2.2, 3.5, 9.0, 40.0):
        cls, i_stop, qs, vs = groundstate._integrate(a, h, n_steps, d, omega, terms, record=True)
        want_cls, want_stop, want_qs, want_vs, negative = _reference_rk4(a, h, n_steps, d, omega, terms)
        assert (cls, i_stop) == (want_cls, want_stop)
        assert np.array_equal(qs[: i_stop + 1], want_qs)
        assert np.array_equal(vs[: i_stop + 1], want_vs)
        assert groundstate._integrate(a, h, n_steps, d, omega, terms)[:2] == (cls, i_stop)
        negative_stages += negative
    assert negative_stages >= 2


# -- amplitude search against plain bisection ----------------------------------

def _reference_bisection(lo, miss_lo, hi, miss_hi, shoot):
    """The amplitude search as plain bisection on the shots' classes, as it
    was before the Illinois search: the misses are ignored."""
    shots = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        shots += 1
        if shoot(mid)[0] > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), shots


SEARCH_CASES = [
    # (model, which, power, most search shots allowed)
    (ModelParams(d=1, p=7.0, omega=1.0, equation="E1"), "double", None, 12),
    (ModelParams(d=1, p=7.0, omega=2.0, equation="E1"), "double", None, 49),
    (ModelParams(d=1, p=9.0, omega=1.0, equation="E1"), "double", None, 49),
    (ModelParams(d=2, p=3.5, omega=1.0, equation="E1"), "double", None, 49),
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"), "mass_critical", None, 12),
    (ModelParams(d=1, p=7.0, omega=1.0, equation="E2"), "single_power", 5.0, 49),
]
SEARCH_IDS = ["1d-e1-p7", "1d-e1-p7-w2", "1d-e1-p9", "2d-e1-p3.5", "2d-townes", "1d-quintic"]


@pytest.mark.parametrize("mp, which, power, _", SEARCH_CASES, ids=SEARCH_IDS)
def test_search_lands_on_the_bisection_amplitude_bitwise(monkeypatch, mp, which, power, _):
    gs = solve_ground_state(mp, which, power=power)
    monkeypatch.setattr(groundstate, "_search_amplitude", _reference_bisection)
    want = groundstate._solve(mp, which, power, None, None)
    assert gs.amplitude == want.amplitude
    assert np.array_equal(gs.profile, want.profile)
    assert np.array_equal(gs.derivative, want.derivative)
    assert gs.shots < want.shots


@pytest.mark.parametrize("mp, which, power, most", SEARCH_CASES, ids=SEARCH_IDS)
def test_search_takes_few_shots(fresh_cache, monkeypatch, mp, which, power, most):
    shots = []
    integrate = groundstate._integrate

    def counted(*args, **kwargs):
        shots.append(kwargs.get("record", False))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(groundstate, "_integrate", counted)
    gs = solve_ground_state(mp, which, power=power)
    scan = len(gs.scan_amplitudes)
    assert shots[:scan] == [False] * scan
    assert shots[-1] is True and shots.count(True) == 1   # the profile's own shot
    assert len(shots) - scan - 1 <= most
    assert gs.shots == len(shots)


# -- refusals -----------------------------------------------------------------

def test_single_power_defaults_to_the_supercritical_exponent():
    # p = 7: Q = (4 sech^2(3x))^{1/6}, peak 4^{1/6}
    gs = solve_ground_state(DOUBLE_MP, which="single_power")
    assert abs(gs.amplitude - 4.0 ** (1.0 / 6.0)) < 1e-9
    closed = (4.0 / np.cosh(3.0 * gs.r) ** 2) ** (1.0 / 6.0)
    assert float(np.max(np.abs(gs.profile - closed))) < 1e-7


def test_an_e2_model_has_no_double_profile():
    # the double terms carry E1's signs: an E2 double would be E1's profile
    grid = GridSpec(d=1, n_per_axis=64, half_width=10.0)
    with pytest.raises(ValueError, match="E1's signs"):
        solve_ground_state(CRITICAL_MP, which="double")
    with pytest.raises(ValueError, match="E1's signs"):
        ground_state_on_grid(CRITICAL_MP, grid, which="double")


def test_unknown_mode_is_rejected(double_gs):
    with pytest.raises(ValueError):
        solve_ground_state(DOUBLE_MP, which="nodal")
    # power is single_power's exponent; another profile would ignore it
    with pytest.raises(ValueError, match="single_power"):
        solve_ground_state(DOUBLE_MP, which="double", power=5.0)


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


def test_a_different_step_solves_afresh(fresh_cache):
    gs = solve_ground_state(CRITICAL_MP, which="mass_critical")
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
