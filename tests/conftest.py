"""Shared fixtures: solved ground states and a reusable field corpus.

The radial solves are the slow part of the suite, so they are session
scoped.  The corpus is a mixed bag of fields rescaled onto the K <= 0
side of the constraint; it backs the variational-minimum and
interpolation-bound sampling tests.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nlslab.functionals import ModelParams, gradient_l2_sq, snapshot
from nlslab.groundstate import ground_state_field, solve_ground_state
from nlslab.spectral import ComplexField, GridSpec, random_smooth_field

DOUBLE_MP = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
CRITICAL_MP = ModelParams(d=1, p=7.0, omega=1.0, equation="E2")
TOWNES_MP = ModelParams(d=2, p=4.0, omega=1.0, equation="E2")

CORPUS_GRID = GridSpec(d=1, n_per_axis=1024, half_width=30.0)


@pytest.fixture(scope="session")
def double_gs():
    return solve_ground_state(DOUBLE_MP, which="double")


@pytest.fixture(scope="session")
def quintic_gs():
    return solve_ground_state(CRITICAL_MP, which="mass_critical")


@pytest.fixture(scope="session")
def townes_gs():
    return solve_ground_state(TOWNES_MP, which="mass_critical")


@pytest.fixture(scope="session")
def soliton_field(double_gs):
    return ground_state_field(double_gs, CORPUS_GRID)


def nonpositive_k_member(f: ComplexField, mp: ModelParams, push: float = 1.0 + 1e-9):
    """Smallest amplitude multiple of f lying on the K <= 0 side.

    Amplitude scaling turns K into a three-term polynomial in c, so the
    first crossing can be bracketed and solved without further FFTs.
    """
    g2 = gradient_l2_sq(f)
    s = snapshot(f, mp)
    lp1, lmc = s.lp1, s.lmc
    d, p = mp.d, mp.p
    a = d * (p - 1.0) / (2.0 * (p + 1.0))
    b = d / (d + 2.0)
    mc = mp.mc_power

    def kv(c):
        return c**2 * g2 - a * c ** (p + 1.0) * lp1 + b * c**mc * lmc

    if kv(1.0) <= 0.0:
        return f
    hi = 2.0
    while kv(hi) > 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise RuntimeError("no constraint crossing along the amplitude ray")
    c = brentq(kv, 1.0, hi, xtol=1e-15, rtol=8.9e-16) * push
    return ComplexField(f.grid, c * f.values)


@pytest.fixture(scope="session")
def corpus(double_gs, soliton_field):
    """At least 200 fields with K <= 0, ground-state family member first."""
    grid = CORPUS_GRID
    x = grid.axis
    dk = math.pi / grid.half_width
    out = [nonpositive_k_member(soliton_field, DOUBLE_MP)]
    for c in (1.05, 1.2, 1.5):
        out.append(
            nonpositive_k_member(ComplexField(grid, c * soliton_field.values), DOUBLE_MP)
        )
    for shift, kmul in ((5.0, 3), (-8.0, 5), (2.5, 8)):
        v = np.roll(soliton_field.values, int(round(shift / grid.dx)))
        v = v * np.exp(1j * kmul * dk * x)
        out.append(nonpositive_k_member(ComplexField(grid, v), DOUBLE_MP))
    for width in (0.5, 1.0, 2.0, 4.0):
        for chirp in (0.0, 0.7):
            v = np.exp(-((x / width) ** 2)) * np.exp(1j * chirp * x)
            out.append(nonpositive_k_member(ComplexField(grid, v), DOUBLE_MP))
    for k_width in (0.8, 1.5, 2.5):
        for seed in range(65):
            f = random_smooth_field(grid, seed=1000 * int(10 * k_width) + seed, k_width=k_width)
            out.append(nonpositive_k_member(f, DOUBLE_MP))
    assert len(out) >= 200
    return out
