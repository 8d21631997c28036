"""Grid, transform, and multiplier behavior against closed forms."""

import math

import numpy as np
import pytest

from nlslab.spectral import (
    ComplexField,
    GridSpec,
    derivative_weight_multiplier,
    edge_mass_fraction,
    field_from_function,
    free_evolve,
    gradient_multiplier,
    inner_product,
    k_squared_multiplier,
    low_pass_multiplier,
    lp_norm,
    make_grid,
    multiplier_from_symbol,
    random_smooth_field,
    spectral_tail_fraction,
    transform,
)

GRIDS = [GridSpec(d=1, n_per_axis=256, half_width=10.0),
         GridSpec(d=2, n_per_axis=128, half_width=8.0)]


def _rand(grid, seed=7):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return ComplexField(grid, vals)


# -- lattice bookkeeping ------------------------------------------------------

def test_axis_spans_half_open_box():
    g = GridSpec(d=1, n_per_axis=16, half_width=4.0)
    assert g.axis[0] == -4.0
    assert g.axis[-1] == pytest.approx(4.0 - g.dx)
    assert np.allclose(np.diff(g.axis), g.dx)
    assert g.cell_volume == pytest.approx(g.dx)


def test_grid_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GridSpec(d=3, n_per_axis=64, half_width=1.0)
    with pytest.raises(ValueError):
        GridSpec(d=1, n_per_axis=100, half_width=1.0)
    with pytest.raises(ValueError):
        GridSpec(d=1, n_per_axis=64, half_width=0.0)
    assert make_grid(2, 64, 3.0) == GridSpec(d=2, n_per_axis=64, half_width=3.0)


def test_frequencies_match_box_quantum():
    g = GridSpec(d=1, n_per_axis=64, half_width=5.0)
    dk = math.pi / g.half_width
    assert g.frequencies[1] == pytest.approx(dk)
    assert np.max(np.abs(g.frequencies)) == pytest.approx(dk * g.n_per_axis / 2)


# -- unitarity ----------------------------------------------------------------

@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_parseval(grid):
    f = _rand(grid)
    phys = float(np.sum(np.abs(f.values) ** 2) * grid.cell_volume)
    spec = transform(f)
    freq = float(np.sum(np.abs(spec.values) ** 2) * grid.cell_volume)
    assert abs(phys - freq) <= 1e-12 * phys


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_round_trip(grid):
    f = _rand(grid, seed=11)
    back = transform(transform(f), direction="inverse")
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_inner_product_is_sesquilinear_and_parseval():
    g = GRIDS[0]
    f, h = _rand(g, 1), _rand(g, 2)
    ip = inner_product(f, h)
    assert inner_product(h, f) == pytest.approx(np.conj(ip))
    spec = inner_product(transform(f), transform(h))
    assert spec == pytest.approx(ip, rel=1e-12)


# -- multipliers on plane waves ----------------------------------------------

@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_plane_wave_eigenvalues(grid):
    dk = math.pi / grid.half_width
    modes = (5,) if grid.d == 1 else (5, -3)
    k = np.array([m * dk for m in modes])
    ksq = float(np.sum(k**2))

    def wave(*xs):
        phase = sum(kv * xv for kv, xv in zip(k, xs))
        return np.exp(1j * phase)

    f = field_from_function(grid, wave)
    g1 = ComplexField(grid, np.fft.ifftn(
        k_squared_multiplier(grid).symbol * np.fft.fftn(f.values)))
    assert np.max(np.abs(g1.values - ksq * f.values)) <= 1e-12 * ksq

    for ax in range(grid.d):
        d1 = ComplexField(grid, np.fft.ifftn(
            gradient_multiplier(grid, ax).symbol * np.fft.fftn(f.values)))
        assert np.max(np.abs(d1.values - 1j * k[ax] * f.values)) <= 1e-12 * (abs(k[ax]) + 1)

    t = 0.3
    flowed = free_evolve(f, t)
    assert np.max(np.abs(flowed.values - np.exp(-1j * ksq * t) * f.values)) <= 1e-12


def test_derivative_weight_on_plane_wave():
    g = GRIDS[0]
    dk = math.pi / g.half_width
    k0 = 7 * dk
    f = field_from_function(g, lambda x: np.exp(1j * k0 * x))
    s = 1.0 / 6.0
    out = np.fft.ifftn(derivative_weight_multiplier(g, s).symbol * np.fft.fftn(f.values))
    expect = 1.0 + k0**s
    assert np.max(np.abs(out - expect * f.values)) <= 1e-12 * expect


def test_low_pass_is_a_sharp_projector():
    g = GRIDS[0]
    dk = math.pi / g.half_width
    lo = field_from_function(g, lambda x: np.exp(1j * 3 * dk * x))
    hi = field_from_function(g, lambda x: np.exp(1j * 40 * dk * x))
    m = low_pass_multiplier(g, 10 * dk)
    keep = np.fft.ifftn(m.symbol * np.fft.fftn(lo.values))
    kill = np.fft.ifftn(m.symbol * np.fft.fftn(hi.values))
    assert np.max(np.abs(keep - lo.values)) <= 1e-12
    assert np.max(np.abs(kill)) <= 1e-14


# -- closed-form Gaussian integrals ------------------------------------------

def test_gaussian_norms_match_closed_forms():
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    f = field_from_function(g, lambda x: np.exp(-(x**2)))
    # int e^{-2x^2} = sqrt(pi/2); int |d/dx e^{-x^2}|^2 = 4 int x^2 e^{-2x^2}
    # which collapses to the same value.
    root = math.sqrt(math.pi / 2.0)
    m = float(np.sum(np.abs(f.values) ** 2) * g.cell_volume)
    assert m == pytest.approx(root, rel=1e-12)
    assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(root), rel=1e-12)
    assert lp_norm(f, 4.0) == pytest.approx((math.sqrt(math.pi) / 2.0) ** 0.25, rel=1e-12)
    spec = np.abs(np.fft.fftn(f.values) / math.sqrt(g.size)) ** 2
    grad = float(np.sum(g.k_squared * spec) * g.cell_volume)
    assert grad == pytest.approx(root, rel=1e-11)


def test_free_evolution_of_gaussian_matches_closed_form():
    g = GridSpec(d=1, n_per_axis=512, half_width=20.0)
    f = field_from_function(g, lambda x: np.exp(-(x**2)))
    t = 0.3
    out = free_evolve(f, t)
    z = 1.0 + 4.0j * t
    expect = np.exp(-g.axis**2 / z) / np.sqrt(z)
    assert np.max(np.abs(out.values - expect)) <= 1e-12


def test_free_evolution_composes_and_inverts():
    g = GRIDS[0]
    f = _rand(g, 5)
    ab = free_evolve(free_evolve(f, 0.2), 0.5)
    once = free_evolve(f, 0.7)
    assert np.max(np.abs(ab.values - once.values)) <= 1e-12
    back = free_evolve(free_evolve(f, 0.4), -0.4)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


# -- diagnostics --------------------------------------------------------------

def test_random_smooth_field_is_seed_deterministic():
    g = GRIDS[0]
    a = random_smooth_field(g, seed=42, k_width=1.5)
    b = random_smooth_field(g, seed=42, k_width=1.5)
    c = random_smooth_field(g, seed=43, k_width=1.5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.max(np.abs(a.values)) <= 1.0 + 1e-12


def test_spectral_tail_fraction_separates_smooth_from_gritty():
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    smooth = field_from_function(g, lambda x: np.exp(-(x**2)))
    assert spectral_tail_fraction(smooth) < 1e-12
    dk = math.pi / g.half_width
    k_hi = 120 * dk  # inside the top third of 128 modes
    gritty = field_from_function(g, lambda x: np.exp(1j * k_hi * x))
    assert spectral_tail_fraction(gritty) == pytest.approx(1.0)


def test_edge_mass_fraction_sees_boundary_content():
    g = GridSpec(d=1, n_per_axis=256, half_width=10.0)
    centered = field_from_function(g, lambda x: np.exp(-(x**2)))
    assert edge_mass_fraction(centered) < 1e-30
    shifted = ComplexField(g, np.roll(centered.values, g.n_per_axis // 2))
    assert edge_mass_fraction(shifted) > 0.4


def test_field_rejects_wrong_shape_and_nonfinite():
    g = GridSpec(d=1, n_per_axis=16, half_width=1.0)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros(8, dtype=complex))
    bad = np.zeros(16, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ComplexField(g, bad)
    ComplexField(g, bad, allow_nonfinite=True)


def test_multiplier_from_symbol_evaluates_on_the_lattice():
    g = GridSpec(d=1, n_per_axis=64, half_width=4.0)
    m = multiplier_from_symbol(g, lambda k: np.exp(-(k**2)), "gauss")
    assert m.symbol.shape == g.shape
    assert m.symbol[0] == pytest.approx(1.0)
