"""Conserved quantities and the constrained-action bookkeeping.

Closed-form Gaussians pin the integrals; the scaling-derivative check goes
through the symmetry machinery so the two modules certify each other.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from nlslab.functionals import (
    ModelParams,
    action_K_H,
    energy,
    gn_quotient,
    gradient_l2_sq,
    mass,
    momentum,
    snapshot,
    snapshot_csv_header,
    snapshot_csv_row,
)
from nlslab import propagator
from nlslab.classifier import classify, trap_bounds
from nlslab.groundstate import ground_state_field
from nlslab.propagator import StepperConfig, evolve, evolve_stack, strang_step
from nlslab.spectral import ComplexField, GridSpec, field_from_function
from nlslab.symmetry import SymmetryElement, apply_symmetry
from nlslab.virial import VirialWeight, virial_derivatives

MP1 = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
MP2 = ModelParams(d=1, p=7.0, omega=1.0, equation="E2")
TOWNES_MP = ModelParams(d=2, p=4.0, omega=1.0, equation="E2")


def _gaussian(amplitude=1.0, k0=0.0, grid=None):
    g = grid or GridSpec(d=1, n_per_axis=512, half_width=15.0)
    return field_from_function(
        g, lambda x: amplitude * np.exp(-(x**2)) * np.exp(1j * k0 * x)
    )


# -- parameter validation -----------------------------------------------------

def test_exponent_window_is_enforced():
    with pytest.raises(ValueError, match="exceed 1 \\+ 4/d"):
        ModelParams(d=1, p=5.0, omega=1.0)
    with pytest.raises(ValueError, match="below 1 \\+ 4/"):
        ModelParams(d=3, p=6.0, omega=1.0)
    with pytest.raises(ValueError, match="omega"):
        ModelParams(d=1, p=7.0, omega=0.0)
    with pytest.raises(ValueError, match="equation"):
        ModelParams(d=1, p=7.0, omega=1.0, equation="E3")
    with pytest.raises(ValueError, match="d must"):
        ModelParams(d=5, p=7.0, omega=1.0)


@pytest.mark.parametrize(
    "d,p,expect", [(1, 7.0, 0.5 - 1.0 / 3.0), (2, 4.0, 1.0 - 2.0 / 3.0), (1, 9.0, 0.25)]
)
def test_critical_regularity_closed_form(d, p, expect):
    assert ModelParams(d=d, p=p, omega=1.0).s_p == pytest.approx(expect, abs=1e-15)


def test_couplings_flip_between_equations():
    assert MP1.couplings == (1.0, -1.0)
    assert MP2.couplings == (-1.0, 1.0)
    assert MP1.mc_power == pytest.approx(6.0)


# -- integrals against closed forms ------------------------------------------

def test_mass_and_gradient_of_gaussian():
    f = _gaussian()
    root = math.sqrt(math.pi / 2.0)
    assert mass(f) == pytest.approx(root, rel=1e-12)
    assert gradient_l2_sq(f) == pytest.approx(root, rel=1e-11)


def test_power_integrals_of_gaussian():
    a = 0.8
    f = _gaussian(amplitude=a)
    s = snapshot(f, MP1)
    lp1, lmc = s.lp1, s.lmc
    assert lp1 == pytest.approx(a**8 * math.sqrt(math.pi / 8.0), rel=1e-12)
    assert lmc == pytest.approx(a**6 * math.sqrt(math.pi / 6.0), rel=1e-12)


def test_energy_signs_sum_to_kinetic_term():
    f = _gaussian(amplitude=1.1)
    e1, e2 = energy(f, MP1), energy(f, MP2)
    assert e1 + e2 == pytest.approx(gradient_l2_sq(f), rel=1e-12)
    a = 1.1
    lp1 = a**8 * math.sqrt(math.pi / 8.0)
    lmc = a**6 * math.sqrt(math.pi / 6.0)
    expect = 0.5 * gradient_l2_sq(f) - lp1 / 8.0 + lmc / 6.0
    assert e1 == pytest.approx(expect, rel=1e-11)


def test_momentum_of_real_field_is_rounding_level():
    f = _gaussian()
    assert abs(momentum(f)[0]) < 1e-14 * mass(f)


def test_momentum_of_boosted_gaussian_is_carrier_times_mass():
    g = GridSpec(d=1, n_per_axis=512, half_width=15.0)
    k0 = 9 * math.pi / g.half_width
    f = _gaussian(k0=k0, grid=g)
    assert momentum(f)[0] == pytest.approx(k0 * mass(f), rel=1e-12)


def test_momentum_components_in_2d():
    g = GridSpec(d=2, n_per_axis=64, half_width=8.0)
    dk = math.pi / g.half_width
    kx, ky = 3 * dk, -5 * dk
    f = field_from_function(
        g, lambda x, y: np.exp(-(x**2) - y**2) * np.exp(1j * (kx * x + ky * y))
    )
    p = momentum(f)
    m = mass(f)
    assert p[0] == pytest.approx(kx * m, rel=1e-12)
    assert p[1] == pytest.approx(ky * m, rel=1e-12)


# -- action bookkeeping -------------------------------------------------------

def test_action_parts_and_identity():
    f = _gaussian(amplitude=1.3)
    av = action_K_H(f, MP1)
    assert not av.advisory
    assert av.h_omega == pytest.approx(av.s_omega - 0.5 * av.k_value, rel=1e-12)
    m, g2 = mass(f), gradient_l2_sq(f)
    s = snapshot(f, MP1)
    lp1, lmc = s.lp1, s.lmc
    assert av.s_omega == pytest.approx(
        0.5 * g2 - lp1 / 8.0 + lmc / 6.0 + 0.5 * m, rel=1e-12
    )
    assert av.k_value == pytest.approx(g2 - 0.375 * lp1 + lmc / 3.0, rel=1e-12)
    assert av.h_omega == pytest.approx(0.5 * m + lp1 / 16.0, rel=1e-12)


def test_sign_flipped_equation_marks_action_advisory():
    f = _gaussian()
    assert action_K_H(f, MP2).advisory


def test_scaling_derivative_matches_mass_preserving_dilation():
    g = GridSpec(d=1, n_per_axis=1024, half_width=25.0)
    f = field_from_function(
        g,
        lambda x: (0.9 + 0.3j) * np.exp(-(x**2)) + 0.2 * np.exp(-((x - 1.5) ** 2)),
    )
    k_direct = action_K_H(f, MP1).k_value
    eps = 1e-3
    # lambda^{d/2} f(lambda x) is h^{-d/2} f(x/h) at h = 1/lambda
    sp = action_K_H(apply_symmetry(f, SymmetryElement(h=1.0 / (1.0 + eps)), edge_tol=1e-6), MP1).s_omega
    sm = action_K_H(apply_symmetry(f, SymmetryElement(h=1.0 / (1.0 - eps)), edge_tol=1e-6), MP1).s_omega
    assert (sp - sm) / (2.0 * eps) == pytest.approx(k_direct, rel=1e-6)


def test_ground_state_sits_on_the_constraint(double_gs):
    grid = GridSpec(d=1, n_per_axis=2048, half_width=30.0)
    q = ground_state_field(double_gs, grid)
    av = action_K_H(q, MP1)
    assert abs(av.k_value) < 1e-8
    assert av.s_omega == pytest.approx(double_gs.m_omega, rel=1e-8)
    assert av.h_omega == pytest.approx(double_gs.m_omega, rel=1e-8)


# -- interpolation quotient ---------------------------------------------------

def test_interpolation_quotient_peaks_on_critical_soliton(quintic_gs):
    bound = 3.0 / quintic_gs.mass**2
    grid = GridSpec(d=1, n_per_axis=2048, half_width=20.0)
    q = ground_state_field(quintic_gs, grid)
    assert gn_quotient(q) == pytest.approx(bound, rel=1e-8)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        vals *= np.exp(-(grid.axis / 12.0) ** 2)
        f = ComplexField(grid, vals)
        assert gn_quotient(f) <= bound * (1.0 + 1e-6)


def test_interpolation_quotient_rejects_degenerate_input():
    g = GridSpec(d=1, n_per_axis=64, half_width=4.0)
    with pytest.raises(ValueError):
        gn_quotient(ComplexField(g, np.zeros(g.shape, dtype=complex)))
    with pytest.raises(ValueError):
        gn_quotient(ComplexField(g, np.ones(g.shape, dtype=complex)))


# -- snapshots ----------------------------------------------------------------

def test_snapshot_collects_the_individual_functionals():
    f = _gaussian(amplitude=0.9, k0=0.4 * math.pi)
    s = snapshot(f, MP1, t=2.5)
    assert s.t == 2.5
    assert s.mass == pytest.approx(mass(f), rel=1e-14)
    assert s.energy == pytest.approx(energy(f, MP1), rel=1e-14)
    av = action_K_H(f, MP1)
    assert s.action == pytest.approx(av.s_omega, rel=1e-14)
    assert s.scaling_derivative == pytest.approx(av.k_value, rel=1e-14)
    assert s.positive_part == pytest.approx(av.h_omega, rel=1e-14)
    assert s.momentum == tuple(momentum(f))


@pytest.mark.parametrize("d,ncols", [(1, 10), (2, 11)])
def test_snapshot_csv_layout(d, ncols):
    header = snapshot_csv_header(d)
    assert len(header.split(",")) == ncols
    assert header.startswith("t,mass,energy,px")
    if d == 2:
        assert ",py," in header


# a field whose grid is not the model's dimension would be integrated with
# another equation's exponents: every entry point refuses it before a step
ENTRY_POINTS = {
    "snapshot": lambda u, mp, gs: snapshot(u, mp),
    "energy": lambda u, mp, gs: energy(u, mp),
    "action_K_H": lambda u, mp, gs: action_K_H(u, mp),
    "classify": lambda u, mp, gs: classify(u, mp, gs),
    "trap_bounds": lambda u, mp, gs: trap_bounds(u, mp, gs),
    "strang_step": lambda u, mp, gs: strang_step(u, mp, 1e-3),
    "evolve": lambda u, mp, gs: evolve(u, mp, StepperConfig(dt=1e-3, t_final=0.01)),
    "evolve_stack": lambda u, mp, gs: evolve_stack(
        [u, u], mp, [StepperConfig(dt=1e-3, t_final=0.01)] * 2),
    "virial_derivatives": lambda u, mp, gs: virial_derivatives(
        u, mp, VirialWeight(u.grid, 2.0)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_field_off_the_models_dimension_is_refused(entry, townes_gs, double_gs, monkeypatch):
    def no_step(*args):
        raise AssertionError("stepped a field of the wrong dimension")

    monkeypatch.setattr(propagator, "_advance", no_step)
    if entry in ("trap_bounds", "virial_derivatives"):
        # E1 entry points: a 2-D field under the 1-D model
        u = field_from_function(GridSpec(d=2, n_per_axis=32, half_width=8.0),
                                lambda x, y: 0.5 * np.exp(-x**2 - y**2))
        mp, gs, dims = MP1, double_gs, "field is 2-D but the model has d = 1"
    else:
        u = field_from_function(GridSpec(d=1, n_per_axis=256, half_width=15.0),
                                lambda x: 0.5 * np.exp(-(x**2)))
        mp, gs, dims = TOWNES_MP, townes_gs, "field is 1-D but the model has d = 2"
    with pytest.raises(ValueError, match=dims):
        ENTRY_POINTS[entry](u, mp, gs)


def test_snapshot_csv_row_round_trips_through_float():
    f = _gaussian(amplitude=0.7)
    s = snapshot(f, MP1, t=1.0)
    cells = snapshot_csv_row(s).split(",")
    assert len(cells) == len(snapshot_csv_header(1).split(","))
    assert float(cells[1]) == s.mass
    assert float(cells[5]) == s.scaling_derivative


# The E/S/K/H coefficients live in functionals.py's combiners and nowhere
# else: another module that needs E, S, K or H calls those combiners.
COEFFICIENTS = (
    "/ (2.0 * (d + 2.0))",   # E: d/(2(d+2)) |u|_mc^mc
    "(2.0 * (p + 1.0))",     # K: d(p-1)/(2(p+1)) |u|_{p+1}^{p+1}
    "d / (d + 2.0)",         # K: d/(d+2) |u|_mc^mc
    "(4.0 * (p + 1.0))",     # H: (d(p-1)-4)/(4(p+1)) |u|_{p+1}^{p+1}
)


def test_functional_coefficients_are_written_once():
    src = Path(__file__).resolve().parent.parent / "src" / "nlslab"
    texts = {p.name: " ".join(p.read_text().split()) for p in sorted(src.glob("*.py"))}
    for coefficient in COEFFICIENTS:
        found = {name: text.count(coefficient) for name, text in texts.items()
                 if coefficient in text}
        assert found == {"functionals.py": 1}, coefficient
