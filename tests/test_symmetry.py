"""Symmetry group action: exactness, audits, and flow covariance."""

import itertools
import math

import numpy as np
import pytest

from nlslab.functionals import (
    ModelParams,
    action_K_H,
    gradient_l2_sq,
    mass,
    momentum,
)
from nlslab.propagator import StepperConfig, evolve
from nlslab.spectral import ComplexField, GridSpec, field_from_function
from nlslab.symmetry import (
    SymmetryElement,
    apply_symmetry,
    identity_element,
    large_scale_profile,
    snap_to_grid,
    spectral_translate,
)

GRID = GridSpec(d=1, n_per_axis=512, half_width=15.0)

MP1 = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")


def _gaussian(grid=GRID, amp=1.0):
    return field_from_function(grid, lambda x: amp * np.exp(-(x**2)))


def _chirped(grid=GRID):
    return field_from_function(
        grid, lambda x: 0.8 * np.exp(-(x**2) / 2.0) * np.exp(0.6j * x**2)
    )


# -- element bookkeeping ------------------------------------------------------

def test_identity_acts_bitwise():
    f = _chirped()
    out = apply_symmetry(f, identity_element(1))
    assert np.array_equal(out.values, f.values)


def test_scale_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        SymmetryElement(h=0.0)
    with pytest.raises(ValueError, match="positive"):
        SymmetryElement(h=-2.0)


def test_snap_rounds_to_both_lattices():
    e = snap_to_grid(SymmetryElement(x0=(0.37,), xi=(1.0,)), GRID)
    dk = math.pi / GRID.half_width
    assert e.x0[0] == pytest.approx(round(0.37 / GRID.dx) * GRID.dx, abs=0)
    assert e.xi[0] == pytest.approx(round(1.0 / dk) * dk, abs=0)
    assert e.x0[0] % GRID.dx == pytest.approx(0.0, abs=1e-15)


def test_component_count_must_match_dimension():
    f = _gaussian()
    with pytest.raises(ValueError, match="components"):
        apply_symmetry(f, SymmetryElement(x0=(1.0, 2.0)))


# -- isometry -----------------------------------------------------------------

def test_every_element_in_the_sweep_is_an_l2_isometry():
    f = _chirped()
    m0 = mass(f)
    dk = math.pi / GRID.half_width
    for theta, h, t0, x0, xi in itertools.product(
        (0.0, 1.3), (1.0, 2.0, 0.5), (0.0, 0.4), (0.0, 3.0 * GRID.dx),
        (0.0, 6.0 * dk),
    ):
        elem = SymmetryElement(theta=theta, h=h, t0=t0, x0=(x0,), xi=(xi,))
        out = apply_symmetry(f, elem)
        assert abs(mass(out) - m0) <= 1e-10 * m0


def test_full_element_in_two_dimensions():
    grid = GridSpec(d=2, n_per_axis=256, half_width=10.0)
    f = field_from_function(grid, lambda x, y: np.exp(-(x**2 + y**2) / 2.0))
    dk = math.pi / grid.half_width
    elem = SymmetryElement(
        theta=0.9, h=2.0, t0=0.2, x0=(4.0 * grid.dx, -3.0 * grid.dx),
        xi=(3.0 * dk, 5.0 * dk),
    )
    out = apply_symmetry(f, elem)
    assert abs(mass(out) - mass(f)) <= 1e-10 * mass(f)


# -- closed-form actions ------------------------------------------------------

def test_dilation_matches_the_closed_form():
    f = _gaussian()
    out = apply_symmetry(f, SymmetryElement(h=2.0))
    want = field_from_function(GRID, lambda x: np.exp(-(x**2) / 4.0) / math.sqrt(2.0))
    assert np.max(np.abs(out.values - want.values)) < 1e-12
    assert gradient_l2_sq(out) == pytest.approx(gradient_l2_sq(f) / 4.0, rel=1e-10)


def test_compression_zeroes_beyond_the_shrunken_box():
    f = _gaussian()
    out = apply_symmetry(f, SymmetryElement(h=0.5))
    want = field_from_function(GRID, lambda x: math.sqrt(2.0) * np.exp(-4.0 * x**2))
    assert np.max(np.abs(out.values - want.values)) < 1e-12
    x = GRID.axis
    outside = (x < -GRID.half_width * 0.5) | (x >= GRID.half_width * 0.5)
    assert np.all(out.values[outside] == 0.0)
    assert gradient_l2_sq(out) == pytest.approx(4.0 * gradient_l2_sq(f), rel=1e-10)


def test_boost_shifts_momentum_by_mass_times_velocity():
    f = _chirped()
    dk = math.pi / GRID.half_width
    xi = 7.0 * dk
    out = apply_symmetry(f, SymmetryElement(xi=(xi,)))
    p0 = momentum(f)[0]
    assert momentum(out)[0] == pytest.approx(p0 + xi * mass(f), rel=1e-12)


def test_boost_shifts_k_by_the_kinetic_offset():
    f = _chirped()
    dk = math.pi / GRID.half_width
    xi = 5.0 * dk
    out = apply_symmetry(f, SymmetryElement(xi=(xi,)))
    shift = action_K_H(out, MP1).k_value - action_K_H(f, MP1).k_value
    want = xi**2 * mass(f) + 2.0 * xi * momentum(f)[0]
    assert abs(shift - want) < 1e-8


@pytest.mark.parametrize("n", [64, 128, 256])
def test_boost_multiplies_the_field_by_the_phase_bitwise(n):
    # the field is the left operand on every grid: numpy's complex product
    # is not bitwise commutative, and from 128^2 on the operator form
    # let numpy elide the phase's temporary and put the phase first
    grid = GridSpec(d=2, n_per_axis=n, half_width=10.0)
    f = field_from_function(
        grid, lambda x, y: np.exp(-(x**2 + 2.0 * y**2) / 4.0) * np.exp(0.3j * x * y))
    dk = math.pi / grid.half_width
    xi = (3.0 * dk, -5.0 * dk)
    out = apply_symmetry(f, SymmetryElement(xi=xi))
    phase = sum(x * c for x, c in zip(grid.coords, xi))
    want = np.multiply(f.values, np.exp(1j * phase))
    assert np.array_equal(out.values.view(np.float64), want.view(np.float64))


def test_phase_and_free_flow_compose_additively():
    f = _chirped()
    a = apply_symmetry(apply_symmetry(f, SymmetryElement(theta=0.7, t0=0.1)),
                       SymmetryElement(theta=0.4, t0=0.25))
    b = apply_symmetry(f, SymmetryElement(theta=1.1, t0=0.35))
    assert np.max(np.abs(a.values - b.values)) < 1e-12


# -- audits -------------------------------------------------------------------

def test_oversized_dilation_is_refused():
    with pytest.raises(ValueError, match="reaches the box edge"):
        apply_symmetry(_gaussian(), SymmetryElement(h=40.0))


def test_under_resolved_compression_is_refused():
    with pytest.raises(ValueError, match="lost L2 mass"):
        apply_symmetry(_gaussian(), SymmetryElement(h=1.0 / 64.0))


# -- off-lattice translation --------------------------------------------------

def test_spectral_translate_matches_roll_on_the_lattice():
    f = _chirped()
    out = spectral_translate(f, 13.0 * GRID.dx)
    assert np.max(np.abs(out.values - np.roll(f.values, 13))) < 1e-12


def test_spectral_translate_is_exact_off_lattice():
    f = _gaussian()
    s = 0.37 * GRID.dx
    out = spectral_translate(f, s)
    want = field_from_function(GRID, lambda x: np.exp(-((x - s) ** 2)))
    assert np.max(np.abs(out.values - want.values)) < 1e-12


# -- Galilean covariance of the nonlinear flow --------------------------------

def test_boosted_data_evolves_to_the_boosted_translated_solution():
    grid = GridSpec(d=1, n_per_axis=512, half_width=20.0)
    u0 = field_from_function(grid, lambda x: 0.5 * np.exp(-(x**2)))
    dk = math.pi / grid.half_width
    xi = 12.0 * dk
    t_final = 0.2
    cfg = StepperConfig(dt=1e-3, t_final=t_final, snapshot_every=50,
                        tail_fraction_max=1.0, edge_mass_max=1.0)

    boosted = apply_symmetry(u0, SymmetryElement(xi=(xi,)))
    lhs = evolve(boosted, MP1, cfg).final_state

    plain = evolve(u0, MP1, cfg).final_state
    moved = spectral_translate(plain, 2.0 * xi * t_final)
    phase = np.exp(1j * (xi * grid.coords[0] - xi**2 * t_final))
    rhs = ComplexField(grid, phase * moved.values)

    defect = np.sqrt(np.sum(np.abs(lhs.values - rhs.values) ** 2) * grid.cell_volume)
    assert defect < 1e-6


# -- concentration-scale profiles ---------------------------------------------

def test_large_scale_profile_filters_then_rescales():
    from nlslab.spectral import apply_multiplier, low_pass_multiplier

    f = _gaussian()
    elem = SymmetryElement(h=0.5)
    out = large_scale_profile(f, elem, theta=0.5)
    cut = apply_multiplier(f, low_pass_multiplier(GRID, 0.5**0.5))
    want = apply_symmetry(cut, elem, edge_tol=1e-3)
    assert np.array_equal(out.values, want.values)
    assert 0.0 < mass(out) < mass(f)


def test_large_scale_profile_rejects_bad_arguments():
    f = _gaussian()
    with pytest.raises(ValueError, match="theta"):
        large_scale_profile(f, SymmetryElement(h=0.5), theta=1.5)
    with pytest.raises(ValueError):
        large_scale_profile(f, SymmetryElement(h=4.0), theta=0.5)
