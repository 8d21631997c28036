"""Localized variance weight tables and the second-derivative identity."""

import numpy as np
import pytest

from nlslab.functionals import ModelParams, action_K_H, gradient_l2_sq, snapshot
from nlslab.propagator import StepperConfig, evolve, strang_step
from nlslab.spectral import GridSpec, _transform, field_from_function
from nlslab.virial import (
    VirialWeight,
    _virial_rows,
    smoothstep_c4,
    smoothstep_c4_prime,
    virial_derivatives,
    virial_value,
    whole_space_virial_e2,
)

MP1 = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
MP2 = ModelParams(d=1, p=7.0, omega=1.0, equation="E2")


# -- the C^4 ramp -------------------------------------------------------------

def test_smoothstep_endpoints_symmetry_monotone():
    t = np.linspace(-0.5, 1.5, 2001)
    s = smoothstep_c4(t)
    assert np.all(s[t <= 0] == 0.0)
    assert np.all(s[t >= 1] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    inside = (t >= 0) & (t <= 1)
    assert np.max(np.abs(s[inside] + smoothstep_c4(1.0 - t[inside]) - 1.0)) < 1e-13
    assert smoothstep_c4_prime(0.0) == 0.0
    assert smoothstep_c4_prime(1.0) == 0.0
    assert smoothstep_c4_prime(0.5) > 0.0


def test_smoothstep_prime_is_the_derivative():
    t = np.linspace(0.01, 0.99, 197)
    h = 1e-6
    fd = (smoothstep_c4(t + h) - smoothstep_c4(t - h)) / (2 * h)
    assert np.max(np.abs(fd - smoothstep_c4_prime(t))) < 1e-7


# -- weight tables ------------------------------------------------------------

@pytest.mark.parametrize("d,n,L,R", [(1, 2048, 20.0, 6.0), (2, 128, 20.0, 6.0)])
def test_weight_is_plain_variance_inside_and_zero_outside(d, n, L, R):
    g = GridSpec(d=d, n_per_axis=n, half_width=L)
    w = VirialWeight(g, R)
    r = g.radius
    inner = r <= R
    assert np.max(np.abs(w.value[inner] - r[inner] ** 2)) <= 1e-12 * R**2
    assert np.max(np.abs(w.laplacian[inner] - 2.0 * d)) <= 1e-12
    outer = r >= 2.0 * R
    for table in (w.value, w.phi1, w.phi2, w.laplacian, w.bilaplacian):
        assert np.all(table[outer] == 0.0)
    assert np.array_equal(w.exterior_positions, np.flatnonzero(r / R >= 1.0))


def test_weight_tables_are_consistent_under_differencing():
    g = GridSpec(d=1, n_per_axis=4096, half_width=20.0)
    w = VirialWeight(g, 6.0)
    dx = g.dx
    s = g.radius / 6.0
    # the ramp is only C^4, so second differences lose order at the two
    # knots; compare strictly inside the smooth pieces
    keep = np.ones(g.shape, dtype=bool)
    keep[:2] = keep[-2:] = False
    keep &= (np.abs(s - 1.0) > 0.05) & (np.abs(s - 2.0) > 0.05)
    val = w.value
    lap_fd = (np.roll(val, -1) - 2 * val + np.roll(val, 1)) / dx**2
    assert np.max(np.abs(lap_fd[keep] - w.laplacian[keep])) < 1e-3
    bil_fd = (np.roll(w.laplacian, -1) - 2 * w.laplacian + np.roll(w.laplacian, 1)) / dx**2
    assert np.max(np.abs(bil_fd[keep] - w.bilaplacian[keep])) < 2e-2


def test_weight_refuses_wrapping_support():
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    with pytest.raises(ValueError, match="half-width"):
        VirialWeight(g, 6.0)
    with pytest.raises(ValueError, match="positive"):
        VirialWeight(g, -1.0)
    VirialWeight(g, 5.0)


# -- values and derivatives ---------------------------------------------------

def test_value_matches_direct_quadrature_for_compact_data():
    g = GridSpec(d=1, n_per_axis=1024, half_width=20.0)
    f = field_from_function(g, lambda x: (1.0 + 0.5j) * np.exp(-(x**2)))
    w = VirialWeight(g, 8.0)
    direct = float(np.sum(g.axis**2 * np.abs(f.values) ** 2) * g.cell_volume)
    assert virial_value(f, w) == pytest.approx(direct, rel=1e-12)


def test_grid_mismatch_is_rejected():
    g1 = GridSpec(d=1, n_per_axis=256, half_width=20.0)
    g2 = GridSpec(d=1, n_per_axis=512, half_width=20.0)
    w = VirialWeight(g1, 8.0)
    f = field_from_function(g2, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match="grids"):
        virial_value(f, w)
    with pytest.raises(ValueError, match="grids"):
        virial_derivatives(f, MP1, w)


def test_sign_convention_gates():
    g = GridSpec(d=1, n_per_axis=256, half_width=20.0)
    f = field_from_function(g, lambda x: np.exp(-(x**2)))
    w = VirialWeight(g, 8.0)
    with pytest.raises(ValueError, match="E1"):
        virial_derivatives(f, MP2, w)
    # the stacked record refuses an E2 model too, at its first record
    with pytest.raises(ValueError, match="E1"):
        evolve(f, MP2, StepperConfig(dt=1e-3, t_final=0.01), virial_weight=w)
    with pytest.raises(ValueError, match="E1"):
        whole_space_virial_e2(f, MP1)


def test_second_derivative_reduces_to_scaling_functional_for_compact_data():
    g = GridSpec(d=1, n_per_axis=1024, half_width=20.0)
    f = field_from_function(g, lambda x: 1.2 * np.exp(-(x**2)) * np.exp(0.3j * x))
    w = VirialWeight(g, 8.0)
    dv = virial_derivatives(f, MP1, w)
    k = action_K_H(f, MP1).k_value
    assert dv.v_double_prime == pytest.approx(8.0 * k, abs=1e-10)
    assert dv.exterior_integral < 1e-12


def test_first_derivative_matches_time_differencing():
    g = GridSpec(d=1, n_per_axis=1024, half_width=20.0)
    u = field_from_function(g, lambda x: 1.1 * np.exp(-(x**2)) * np.exp(0.4j * x**2))
    w = VirialWeight(g, 8.0)
    dt = 2e-4
    states = [u]
    for _ in range(2):
        states.append(strang_step(states[-1], MP1, dt))
    vs = [virial_value(s, w) for s in states]
    mid = virial_derivatives(states[1], MP1, w)
    fd = (vs[2] - vs[0]) / (2 * dt)
    assert fd == pytest.approx(mid.v_prime, rel=1e-6)


def _per_field_reference(f, mp, w):
    """V, V', V'' and the exterior integral of one field by the plain
    per-field formulas: np.fft.ifftn per gradient, np.sum per integral
    and a boolean gather for the exterior."""
    u, dv, d, p = f.values, f.grid.cell_volume, mp.d, mp.p
    absu = np.abs(u)
    dens = absu**2
    spectrum = np.fft.fftn(u)
    grads = [np.fft.ifftn(1j * k * spectrum) for k in f.grid.k_odd]
    radial = sum(xh * du for xh, du in zip(w.unit_radial, grads))
    grad_sq = sum(np.abs(du) ** 2 for du in grads)
    rad_sq = np.abs(radial) ** 2
    pot_mc, pot_p = absu**mp.mc_power, absu ** (p + 1.0)
    value = float(np.sum(w.value * dens) * dv)
    v_prime = 2.0 * w.R * float(np.sum(w.phi1 * np.imag(radial * np.conj(u))) * dv)
    hess = 4.0 * float(np.sum(w.phi2 * rad_sq + w.phi1_over_s * (grad_sq - rad_sq)) * dv)
    bilap = -float(np.sum(w.bilaplacian * dens) * dv)
    term_mc = 4.0 / (d + 2.0) * float(np.sum(w.laplacian * pot_mc) * dv)
    term_p = -2.0 * (p - 1.0) / (p + 1.0) * float(np.sum(w.laplacian * pot_p) * dv)
    outside = f.grid.radius / w.R >= 1.0
    exterior = float(np.sum((grad_sq + dens / w.R**2 + pot_mc + pot_p)[outside]) * dv)
    return value, v_prime, hess + bilap + term_mc + term_p, exterior


@pytest.mark.parametrize("mp, grid, R", [
    (MP1, GridSpec(d=1, n_per_axis=512, half_width=20.0), 3.0),
    (ModelParams(d=2, p=5.0, omega=1.0, equation="E1"),
     GridSpec(d=2, n_per_axis=64, half_width=12.0), 2.5),
], ids=["1d", "2d"])
def test_stacked_virial_rows_are_the_per_field_formulas_bitwise(mp, grid, R):
    # off-centre moving packets, so every table and the exterior band count
    fields = [
        field_from_function(grid, lambda *x, a=a, s=s: a * np.exp(
            -sum((c - s) ** 2 for c in x) / 2.0 + 1j * (0.7 - s) * x[0]))
        for a, s in ((0.8, 0.0), (1.1, 1.5), (1.4, -2.5))
    ]
    w = VirialWeight(grid, R)
    refs = [_per_field_reference(f, mp, w) for f in fields]
    for f, ref in zip(fields, refs):
        dv = virial_derivatives(f, mp, w)
        got = (virial_value(f, w), dv.v_prime, dv.v_double_prime, dv.exterior_integral)
        assert repr(got) == repr(ref)
    assert refs[2][3] > 0.0
    # the record's stack: per-row spectra, |u| and |u|^2 of three fields
    x = np.stack([f.values for f in fields])
    spectrum = _transform(x, np.empty_like(x), grid.d)
    a = np.abs(x)
    rows = _virial_rows(mp, w, x, spectrum, a, a**2)
    assert repr(list(zip(*(v.tolist() for v in rows)))) == repr(refs)


def test_whole_space_identity_matches_time_differencing():
    g = GridSpec(d=1, n_per_axis=512, half_width=20.0)
    u = field_from_function(g, lambda x: 1.1 * np.exp(-(x**2)) * np.exp(0.4j * x**2))
    dt = 2e-4
    x2 = g.axis**2
    states = [u]
    for _ in range(2):
        states.append(strang_step(states[-1], MP2, dt))
    vs = [float(np.sum(x2 * np.abs(s.values) ** 2) * g.cell_volume) for s in states]
    fd2 = (vs[0] - 2 * vs[1] + vs[2]) / dt**2
    assert fd2 == pytest.approx(whole_space_virial_e2(states[1], MP2), rel=1e-6)


def test_whole_space_formula_combines_the_power_integrals():
    g = GridSpec(d=1, n_per_axis=512, half_width=20.0)
    f = field_from_function(g, lambda x: 0.9 * np.exp(-(x**2)))
    s = snapshot(f, MP2)
    lp1, lmc = s.lp1, s.lmc
    expect = 8.0 * (gradient_l2_sq(f) + 0.375 * lp1 - lmc / 3.0)
    assert whole_space_virial_e2(f, MP2) == pytest.approx(expect, rel=1e-12)


def test_trajectory_rows_carry_the_identity():
    g = GridSpec(d=1, n_per_axis=1024, half_width=40.0)
    u = field_from_function(g, lambda x: 1.2 * np.exp(-(x**2)))
    w = VirialWeight(g, 16.0)
    cfg = StepperConfig(dt=1e-4, t_final=0.1, snapshot_every=100,
                        tail_fraction_max=1.0, edge_mass_max=1.0)
    log = evolve(u, MP1, cfg, virial_weight=w)
    assert log.outcome == "completed"
    assert len(log.virial_rows) == len(log.snapshots)
    for row, snap in zip(log.virial_rows, log.snapshots):
        assert row.v_double_prime == pytest.approx(8.0 * snap.scaling_derivative, abs=1e-9)
        assert row.value is not None and row.v_prime is not None
