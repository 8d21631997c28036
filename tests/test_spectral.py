"""Grid, transform, and multiplier behavior against closed forms."""

import math

import numpy as np
import pytest

from nlslab import spectral
from nlslab.spectral import (
    ComplexField,
    GridSpec,
    derivative_weight_multiplier,
    edge_mass_fraction,
    field_from_function,
    free_evolve,
    gradient_multiplier,
    k_squared_multiplier,
    low_pass_multiplier,
    lp_norm,
    make_grid,
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


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_monitor_masks_are_cached_read_only_and_as_built_per_call(grid):
    # the masks spectral_tail_fraction and edge_mass_fraction built on
    # every call before the grid kept them
    k_edge = np.max(np.abs(grid.frequencies))
    tail = np.zeros(grid.shape, dtype=bool)
    for axis_k in grid.k_coords:
        tail |= np.abs(axis_k) >= (2.0 / 3.0) * k_edge
    assert np.array_equal(grid.tail_mask, tail)
    assert grid.tail_mask is grid.tail_mask
    for cells in (1, 4, 9):
        margin = cells * grid.dx
        edge = np.zeros(grid.shape, dtype=bool)
        for x in grid.coords:
            edge |= (x >= grid.half_width - margin) | (x < -grid.half_width + margin)
        assert np.array_equal(grid.edge_mask(cells), edge)
        assert grid.edge_mask(cells) is grid.edge_mask(cells)
    for mask in (grid.tail_mask, grid.edge_mask(4)):
        with pytest.raises(ValueError):
            mask[(0,) * grid.d] = True
    f = _rand(grid)
    dens = np.abs(f.values) ** 2
    spec = np.abs(np.fft.fftn(f.values)) ** 2
    assert edge_mass_fraction(f, 9) == float(np.sum(dens[edge])) / float(np.sum(dens))
    assert spectral_tail_fraction(f) == float(np.sum(spec[tail])) / float(np.sum(spec))


def test_field_rejects_wrong_shape_and_nonfinite():
    g = GridSpec(d=1, n_per_axis=16, half_width=1.0)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros(8, dtype=complex))
    bad = np.zeros(16, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ComplexField(g, bad)
    ComplexField(g, bad, allow_nonfinite=True)


@pytest.mark.parametrize("d", [1, 2])
def test_odd_symbols_zero_the_nyquist_mode_on_their_own_axis(d):
    grid = GridSpec(d=d, n_per_axis=16, half_width=3.0)
    nyq = grid.n_per_axis // 2
    for ax in range(d):
        expected = np.broadcast_to(grid.k_coords[ax], grid.shape).copy()
        expected[(slice(None),) * ax + (nyq,)] = 0.0
        assert np.array_equal(np.broadcast_to(grid.k_odd[ax], grid.shape), expected)
        assert np.array_equal(gradient_multiplier(grid, ax).symbol, 1j * expected)
        with pytest.raises(ValueError):
            grid.k_odd[ax][0] = 1.0


# the in-place forms are bitwise the plain expressions; a 128^2 field is
# 256 KiB, the size from which numpy elides the temporary of an operator
# product, which the references therefore spell as np.multiply
BITWISE_GRIDS = [GridSpec(d=1, n_per_axis=1024, half_width=30.0),
                 GridSpec(d=2, n_per_axis=64, half_width=8.0),
                 GridSpec(d=2, n_per_axis=128, half_width=8.0)]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("grid", BITWISE_GRIDS, ids=["1d_1024", "2d_64", "2d_128"])
def test_transforms_and_pullbacks_are_the_fftn_expressions_bitwise(grid):
    f = random_smooth_field(grid, seed=5)
    v = f.values
    for t in (0.37, -1.25):
        symbol = np.exp(-1j * t * grid.k_squared)
        want = np.fft.ifftn(np.multiply(symbol, np.fft.fftn(v)))
        assert _same_bits(free_evolve(f, t).values, want)
        sym = np.empty(grid.shape, dtype=np.complex128)
        assert _same_bits(spectral._free_flow_symbol(grid, t, out=sym), symbol)
        out = np.empty_like(v)
        assert spectral._apply_symbol(v, sym, spectral._layout(grid, padded=False), out) is out
        assert _same_bits(out, want)
    n = np.sqrt(v.size)
    assert _same_bits(transform(f).values, np.fft.fftn(v) / n)
    assert _same_bits(transform(f, "inverse").values, np.fft.ifftn(v) * n)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 8.0])
def test_lp_norm_into_a_buffer_is_lp_norm(q):
    f = random_smooth_field(GRIDS[1], seed=3)
    out = np.empty(f.grid.shape)
    assert spectral._lp_norm(f.values, q, f.grid.cell_volume, out=out) == lp_norm(f, q)


# -- the four-step transform of long 1-D lines ---------------------------------

SPLIT_GRIDS = [GridSpec(d=1, n_per_axis=8192, half_width=700.0),
               GridSpec(d=1, n_per_axis=16384, half_width=700.0)]


def _tilted_packet(grid):
    return field_from_function(
        grid, lambda x: np.exp(-((x / 5.0) ** 2)) * (1.0 + 0.3j * np.tanh(x / 2.0))
        * np.exp(2j * x))


def test_only_long_1d_lines_split():
    pad, split_pad = spectral._PAD, spectral._SPLIT_PAD
    # each grid's (padded, unpadded) layouts: a stack's storage, and an
    # array in the grid's shape, which reads a split line as its matrix
    # of pad 0
    table = {
        (1, 4096): [(1, (4096,), 4096, 0, None)] * 2,
        (1, 8192): [(1, (128, 64 + split_pad), 64, split_pad, (128, 64)),
                    (1, (128, 64), 64, 0, (128, 64))],
        (1, 16384): [(1, (128, 128 + split_pad), 128, split_pad, (128, 128)),
                     (1, (128, 128), 128, 0, (128, 128))],
        (2, 64): [(2, (64, 64 + pad), 64, pad, None), (2, (64, 64), 64, 0, None)],
        (2, 256): [(2, (256, 256 + pad), 256, pad, None), (2, (256, 256), 256, 0, None)],
    }
    for (d, n), want in table.items():
        grid = GridSpec(d=d, n_per_axis=n, half_width=300.0)
        layout = spectral._layout(grid)
        assert [layout, spectral._layout(grid, padded=False)] == want

        # a stack's storage holds each field bitwise, its pads 0, and
        # gives it back in the grid's shape, as a view or, for a split
        # line, a copy into a buffer
        fields = [random_smooth_field(grid, seed).values for seed in (1, 2)]
        storage = spectral._lay_out(fields, grid)
        assert storage.shape == (2, *layout.row)
        assert not storage[..., layout.width:].any()
        out = np.empty((2, *grid.shape), dtype=complex)
        for got in (spectral._fields(storage, grid), spectral._fields(storage, grid, out)):
            assert all(_same_bits(a, b) for a, b in zip(got, fields))
        assert all(_same_bits(spectral._fields(row, grid), f) for row, f in zip(storage, fields))


@pytest.mark.parametrize("grid", SPLIT_GRIDS, ids=["8192", "16384"])
def test_split_forward_transform_read_in_natural_order_is_the_fft(grid):
    # pins the twiddles: the forward half alone, mode c + n2 d at [c, d]
    v = _tilted_packet(grid).values
    layout = spectral._layout(grid, padded=False)
    split = layout.split
    # the natural line read as its (n2, n1) matrix, the layout of pad 0
    m = np.empty(split, dtype=complex)
    for run in spectral._split_passes(v.reshape(split), m, layout):
        run()
    natural = np.swapaxes(m, -1, -2).reshape(-1)
    want = np.fft.fft(v)
    assert np.max(np.abs(natural - want)) < 1e-14 * np.max(np.abs(want))
    # and the inverse half brings the spectrum, in that order, back
    back = spectral._storage_order(want, grid).reshape(split)
    for run in spectral._split_passes(back, back, layout, inverse=True):
        run()
    assert np.max(np.abs(back.reshape(-1) - v)) < 1e-14 * np.max(np.abs(v))


@pytest.mark.parametrize("grid", SPLIT_GRIDS, ids=["8192", "16384"])
def test_split_free_flow_tracks_the_plain_composition(grid):
    u = _tilted_packet(grid)
    v = u.values
    scale = np.max(np.abs(v))
    t = 1e-3
    symbol = np.exp(-1j * t * grid.k_squared)
    want = np.fft.ifft(np.multiply(symbol, np.fft.fft(v)))
    assert np.max(np.abs(free_evolve(u, t).values - want)) < 1e-13 * scale
    # a symbol of another kind through apply_multiplier
    grad = gradient_multiplier(grid, 0)
    got = spectral.apply_multiplier(u, grad).values
    assert np.max(np.abs(got - np.fft.ifft(grad.symbol * np.fft.fft(v)))) < 1e-13 * np.max(
        np.abs(got))

    stored = spectral._storage_order(symbol, grid)
    layout = spectral._layout(grid, padded=False)
    split, plain = v.copy(), v.copy()
    for _ in range(1000):
        spectral._apply_symbol(split, stored, layout, split)
        plain = np.fft.ifft(np.multiply(symbol, np.fft.fft(plain)))
    assert np.max(np.abs(split - plain)) < 1e-13 * scale
    # each path's rounding, against the flow over the whole time at once:
    # the split one gathers no more of it than the plain one
    once = np.fft.ifft(np.exp(-1j * 1000 * t * grid.k_squared) * np.fft.fft(v))
    assert np.max(np.abs(split - once)) < 1.5 * np.max(np.abs(plain - once))
