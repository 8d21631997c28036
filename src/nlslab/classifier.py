"""Membership tests for the scattering / blow-up dichotomy.

For the competing-sign equation (E1) the decision compares the action
S_omega(u0) against the ground-state threshold and reads the sign of the
scaling derivative K(u0).  For the defocusing-saturated equation (E2) the
decision compares the mass of u0 with the mass of the critical-equation
ground state.  A label is only issued when the deciding margin clears
three times its estimated numerical uncertainty; otherwise the verdict
abstains with ``indeterminate`` and makes no prediction.  Which ground
state sets a model's threshold is decided here alone (_threshold_profile),
and a datum is judged in one place (_judge): trap_bounds reads the margins
of the verdict and the snapshot that verdict was read from.

Verdicts carry all margins, the bound scale for the H1 trapping estimate,
a note on the unverified localization hypotheses behind the blow-up
prediction, and a digest of the ground-state profile used, so a verdict
written to disk can be traced to the exact threshold it was measured
against.  The digest is SHA-256 from CPython's built-in module, not from
hashlib, which would load OpenSSL into the run; each solution computes
it once and keeps it (see groundstate).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .spectral import ComplexField, _scratch, _spectrum, _tail_fractions
from .functionals import (
    ModelParams, _action, _action_values, _energy, _scaling_derivative, _snapshots,
)
from .groundstate import GroundStateSolution

__all__ = [
    "Margin",
    "Verdict",
    "TrapReport",
    "classify",
    "trap_bounds",
    "ground_state_digest",
    "verdict_to_json",
]

SET_LABELS = (
    "A_plus",
    "A_minus",
    "above_threshold",
    "below_mass_threshold",
    "above_mass_threshold",
    "indeterminate",
)
PREDICTIONS = ("global_scattering", "finite_time_blowup", "no_prediction")

# A margin must beat this multiple of its uncertainty before we label.
GATE_FACTOR = 3.0

# Relative quadrature floor for spectral integrals of resolved fields.
_QUAD_EPS = 100.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class Margin:
    """A signed decision quantity with its estimated numerical error."""

    value: float
    uncertainty: float

    @property
    def resolved(self) -> bool:
        return abs(self.value) > GATE_FACTOR * self.uncertainty


@dataclass(frozen=True)
class Verdict:
    equation: str
    set_label: str
    prediction: str
    action_margin: Margin | None
    k_value: Margin | None
    mass_margin: Margin | None
    h1_bound: float | None
    hypotheses: str | None
    ground_state_digest: str

    def __post_init__(self):
        if self.set_label not in SET_LABELS:
            raise ValueError(f"unknown set label {self.set_label!r}")
        if self.prediction not in PREDICTIONS:
            raise ValueError(f"unknown prediction {self.prediction!r}")


def ground_state_digest(gs: GroundStateSolution) -> str:
    """SHA-256 over the solved profile and its defining parameters: the
    header "which:d:p:omega" (p and omega as repr), then the bytes of r
    and of the profile.  Computed once per solution and kept with it."""
    return gs._digest


def _threshold_profile(mp: ModelParams) -> str:
    """The ground state that sets the model's thresholds: the double
    profile for E1, the mass-critical one for E2."""
    return "double" if mp.equation == "E1" else "mass_critical"


def _check_compatible(mp: ModelParams, gs: GroundStateSolution):
    which = _threshold_profile(mp)
    if gs.which != which:
        raise ValueError(
            f"{mp.equation} classification needs the {which!r} ground state, "
            f"got which={gs.which!r}"
        )
    # E2's mass threshold depends on d alone
    keys = ("d", "p", "omega") if mp.equation == "E1" else ("d",)
    solved = dict(zip(keys, (gs.params.d, gs.params.p, gs.omega)))
    data = {key: getattr(mp, key) for key in keys}
    if solved != data:
        raise ValueError(f"ground state solved for {solved} but data uses {data}")


def _blowup_hypotheses_note(mp: ModelParams) -> str:
    # The blow-up half of the dichotomy needs finite variance or, in
    # d >= 2 with a capped exponent, radial symmetry.  Neither property
    # is detectable from a sampled box field, so we record, not enforce.
    if mp.d >= 2:
        cap = 5.0 if mp.d == 2 else min(5.0, 1.0 + 4.0 / (mp.d - 2.0))
        if mp.p <= cap:
            return (
                "assumes finite-variance data, or radial data "
                f"(exponent cap {cap:g} met)"
            )
        return (
            "assumes finite-variance data; radial route unavailable "
            f"(p={mp.p:g} exceeds cap {cap:g})"
        )
    return "assumes finite-variance data; radial route needs d >= 2"


def classify(
    u0: ComplexField,
    mp: ModelParams,
    gs: GroundStateSolution,
) -> Verdict:
    """Decide which dichotomy set (if any) u0 belongs to.

    E1 compares S_omega(u0) with the minimal action and reads sign(K).
    E2 compares M(u0) with the critical ground-state mass.  Margins
    within GATE_FACTOR of their uncertainty yield ``indeterminate`` and
    prediction ``no_prediction``.
    """
    return _judge(u0, mp, gs)[0]


def _judge(u0: ComplexField, mp: ModelParams, gs: GroundStateSolution) -> tuple:
    """(classify's verdict, the snapshot of u0 it was read from)."""
    _check_compatible(mp, gs)

    x = u0.values[np.newaxis]
    scratch = _scratch(x.shape)
    spectrum = _spectrum(x, scratch)
    # Under-resolved fields carry truncation error far above rounding.
    # The top-band power fraction understates the aliasing error of the
    # nonlinear integrands by a small factor (about 2 on coarsely sampled
    # solitons), so pad it.
    rel = _QUAD_EPS + 10.0 * float(_tail_fractions(spectrum, u0.grid, scratch)[0])
    snap = _snapshots(u0.grid, mp, [0.0], x, spectrum, scratch)[0][0]

    mass_unc = rel * snap.mass + _QUAD_EPS * gs.mass
    mass_margin = Margin(snap.mass - gs.mass, mass_unc)
    # E2 judges the mass alone and leaves the E1 fields None
    action_margin = k_margin = h1_bound = hypotheses = None

    if mp.equation == "E2":
        if not mass_margin.resolved:
            label, prediction = "indeterminate", "no_prediction"
        elif mass_margin.value < 0.0:
            label, prediction = "below_mass_threshold", "global_scattering"
        else:
            label, prediction = "above_mass_threshold", "no_prediction"
    else:
        acts = _action_values(mp, snap)
        # Sum of absolute contributions: the cancellation-free scale each
        # functional is assembled at.
        s_terms = _action(mp, _energy(mp, snap.grad_l2_sq, snap.lp1, snap.lmc, (1.0, 1.0)),
                          snap.mass)
        k_terms = _scaling_derivative(mp, snap.grad_l2_sq, snap.lp1, snap.lmc, (1.0, 1.0))
        # The threshold's own error: quadrature floor plus the measured
        # distance of the solved profile from exact criticality.
        m_omega_unc = _QUAD_EPS * gs.m_omega + abs(gs.K_value)

        action_margin = Margin(acts.s_omega - gs.m_omega, rel * s_terms + m_omega_unc)
        k_margin = Margin(acts.k_value, rel * k_terms)

        if not action_margin.resolved:
            label, prediction = "indeterminate", "no_prediction"
        elif action_margin.value >= 0.0:
            label, prediction = "above_threshold", "no_prediction"
        elif not k_margin.resolved:
            label, prediction = "indeterminate", "no_prediction"
        elif k_margin.value >= 0.0:
            label, prediction = "A_plus", "global_scattering"
        else:
            label, prediction = "A_minus", "finite_time_blowup"
        h1_bound = gs.m_omega + gs.m_omega / mp.omega if label == "A_plus" else None
        hypotheses = _blowup_hypotheses_note(mp) if label == "A_minus" else None

    verdict = Verdict(mp.equation, label, prediction, action_margin, k_margin, mass_margin,
                      h1_bound, hypotheses, ground_state_digest(gs))
    return verdict, snap


# -- trapping estimates -------------------------------------------------------

@dataclass(frozen=True)
class TrapReport:
    """Measured trapping inequalities for labeled E1 data.

    For A_plus members: the squared H1 norm against the threshold scale
    m_omega (1 + 1/omega), with the measured ratio, plus the quadratic
    lower-bound branch for K and the implied trapping constant.  For
    A_minus members: the strict upper bound K < -(m_omega - S_omega).
    """

    set_label: str
    holds: bool
    h1_norm_sq: float | None = None
    h1_scale: float | None = None
    h1_ratio: float | None = None
    k_value: float | None = None
    k_quadratic_floor: float | None = None
    action_gap: float | None = None
    implied_delta: float | None = None
    k_upper_bound: float | None = None
    slack: float | None = None


def trap_bounds(
    u0: ComplexField,
    mp: ModelParams,
    gs: GroundStateSolution,
) -> TrapReport:
    """Evaluate the trapping bounds for data classified A_plus or A_minus."""
    if mp.equation != "E1":
        raise ValueError("trapping bounds are specific to the competing-sign equation")
    verdict, snap = _judge(u0, mp, gs)
    if verdict.set_label not in ("A_plus", "A_minus"):
        raise ValueError(
            f"trap_bounds needs labeled data, classification returned "
            f"{verdict.set_label!r}"
        )

    k_value = verdict.k_value.value
    # m_omega - S_omega, exactly: IEEE b - a is -(a - b)
    gap = -verdict.action_margin.value

    if verdict.set_label == "A_minus":
        upper = -gap
        return TrapReport(
            set_label="A_minus",
            holds=bool(k_value < upper),
            k_value=k_value,
            action_gap=gap,
            k_upper_bound=upper,
            slack=upper - k_value,
        )

    h1_sq = snap.grad_l2_sq + snap.mass
    scale = verdict.h1_bound
    # K with its p-term dropped, ||grad u||^2 + d/(d+2) |u|_mc^mc
    dp = mp.d * (mp.p - 1.0)
    quad_floor = (dp - 4.0) / dp * _scaling_derivative(mp, snap.grad_l2_sq, 0.0, snap.lmc)
    # The lower bound is a min over two branches with an unspecified
    # positive constant on the second; K >= quadratic branch certifies
    # it outright, otherwise any positive K certifies it with the
    # implied constant K / (m_omega - S_omega).
    if k_value >= quad_floor:
        holds, delta = True, None
    else:
        holds = k_value > 0.0 and gap > 0.0
        delta = k_value / gap if gap > 0.0 else None
    return TrapReport(
        set_label="A_plus",
        holds=bool(holds),
        h1_norm_sq=h1_sq,
        h1_scale=scale,
        h1_ratio=h1_sq / scale,
        k_value=k_value,
        k_quadratic_floor=quad_floor,
        action_gap=gap,
        implied_delta=delta,
    )


# -- serialization ------------------------------------------------------------

def verdict_to_json(v: Verdict) -> str:
    return json.dumps(asdict(v), sort_keys=True, indent=2, allow_nan=False)

