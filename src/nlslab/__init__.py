"""Desk-scale numerical lab for Schrodinger flows with two competing
power nonlinearities: spectral grids, conserved-quantity tracking, radial
ground states, split-step evolution, variance (virial) monitoring, and a
threshold classifier with a config-driven experiment runner."""

from .spectral import (
    GridSpec,
    ComplexField,
    FourierMultiplier,
    make_grid,
    transform,
    apply_multiplier,
    lp_norm,
)
from .functionals import (
    ModelParams,
    FunctionalSnapshot,
    mass,
    energy,
    momentum,
    action_K_H,
    gn_quotient,
    snapshot,
)
from .groundstate import (
    GroundStateSolution,
    solve_ground_state,
    ground_state_on_grid,
    ground_state_field,
    pohozaev_check,
)
from .virial import VirialWeight, VirialDerivatives, virial_value, virial_derivatives
from .propagator import (
    StepperConfig,
    TrajectoryLog,
    strang_step,
    evolve,
    evolve_stack,
    detect_blowup,
    scattering_proxy,
)
from .classifier import Verdict, classify, trap_bounds
from .symmetry import SymmetryElement, apply_symmetry, spectral_translate
from .experiment import (
    ExperimentConfig,
    parse_config,
    load_config,
    serialize_config,
    run_experiment,
    run_experiments,
    emit_report,
)

__version__ = "0.1.0"
