"""Config-driven experiment runs and aggregate reporting.

A run is described by an INI file with sections [model], [grid],
[stepper], [initial_data], optional [symmetry], and [outputs].  Running
one produces a directory holding the echoed config, a JSON summary
(verdict, outcome, drifts, virial and scattering diagnostics), the
trajectory CSV, the initial and final fields in NLSF form, and the
ground-state profile used for classification.  Runs are deterministic:
random initial data is drawn from a recorded seed and everything else is
a pure function of the config.

emit_report folds many run directories into one CSV plus a markdown
table with a dichotomy-agreement column (prediction versus observed
outcome), skipping unreadable directories but listing them.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .spectral import (
    ComplexField,
    GridSpec,
    make_grid,
    field_from_function,
    random_smooth_field,
)
from .functionals import (
    ModelParams,
    mass,
    snapshot_csv_header,
    snapshot_csv_row,
)
from .groundstate import solve_ground_state, ground_state_field
from .classifier import classify, verdict_to_json
from .propagator import StepperConfig, evolve, scattering_proxy, detect_blowup
from .virial import VirialWeight
from .symmetry import SymmetryElement, apply_symmetry, large_scale_profile
from .fieldio import save_field, load_field

__all__ = [
    "ConfigError",
    "InitialData",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "build_initial_field",
    "run_experiment",
    "emit_report",
]

DATA_KINDS = (
    "gaussian",
    "sech",
    "scaled_ground_state",
    "large_scale",
    "file",
    "random_smooth",
)


class ConfigError(ValueError):
    """Malformed or inadmissible config; message carries section.key."""


@dataclass(frozen=True)
class InitialData:
    """One initial-data recipe; unused fields keep their defaults.

    Zero means unset for mass_target and critical_mass_fraction; when
    either is positive the built field is rescaled to that mass (the
    fraction is relative to the critical-equation ground state).
    """

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    rate: float = 2.0
    exponent: float = 1.0
    wavenumber: float = 0.0
    c: float = 1.0
    which: str = ""
    power: float = 0.0
    path: str = ""
    seed: int = 0
    k_width: float = 2.0
    mass_target: float = 0.0
    critical_mass_fraction: float = 0.0
    theta: float = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelParams
    n_per_axis: int
    half_width: float
    stepper: StepperConfig
    initial: InitialData
    symmetry: SymmetryElement | None = None
    directory: str = ""
    classify_data: bool = True
    virial_radius: float = 0.0
    whole_space_virial: bool = False

    def grid(self) -> GridSpec:
        return make_grid(self.model.d, self.n_per_axis, self.half_width)


# -- parsing ------------------------------------------------------------------

_REQUIRED = object()


def _get(parser, section, key, conv, default=_REQUIRED):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(f"{section}: missing required key '{key}'")
        return default
    try:
        return conv(raw.strip())
    except (ValueError, TypeError):
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _vector(raw: str) -> tuple:
    if not raw:
        return ()
    return tuple(float(part) for part in raw.split(","))


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into a validated ExperimentConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    for section in ("model", "grid", "stepper", "initial_data"):
        if not parser.has_section(section):
            raise ConfigError(f"{section}: section missing")

    try:
        model = ModelParams(
            d=_get(parser, "model", "d", int),
            p=_get(parser, "model", "p", float),
            omega=_get(parser, "model", "omega", float, 1.0),
            equation=_get(parser, "model", "equation", str, "E1"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    n = _get(parser, "grid", "n_per_axis", int)
    hw = _get(parser, "grid", "half_width", float)
    try:
        make_grid(model.d, n, hw)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None

    try:
        stepper = StepperConfig(
            dt=_get(parser, "stepper", "dt", float),
            t_final=_get(parser, "stepper", "t_final", float),
            snapshot_every=_get(parser, "stepper", "snapshot_every", int, 20),
            checkpoint_every=_get(parser, "stepper", "checkpoint_every", int, 0),
            blowup_grad_factor=_get(parser, "stepper", "blowup_grad_factor", float, 1e3),
            tail_fraction_max=_get(parser, "stepper", "tail_fraction_max", float, 1e-6),
            edge_mass_max=_get(parser, "stepper", "edge_mass_max", float, 1e-10),
            edge_cells=_get(parser, "stepper", "edge_cells", int, 4),
        )
    except ValueError as exc:
        raise ConfigError(f"stepper: {exc}") from None

    kind = _get(parser, "initial_data", "kind", str)
    if kind not in DATA_KINDS:
        raise ConfigError(
            f"initial_data.kind: unknown kind {kind!r}, expected one of {DATA_KINDS}"
        )
    initial = InitialData(
        kind=kind,
        amplitude=_get(parser, "initial_data", "amplitude", float, 1.0),
        width=_get(parser, "initial_data", "width", float, 1.0),
        rate=_get(parser, "initial_data", "rate", float, 2.0),
        exponent=_get(parser, "initial_data", "exponent", float, 1.0),
        wavenumber=_get(parser, "initial_data", "wavenumber", float, 0.0),
        c=_get(parser, "initial_data", "c", float, 1.0),
        which=_get(parser, "initial_data", "which", str, ""),
        power=_get(parser, "initial_data", "power", float, 0.0),
        path=_get(parser, "initial_data", "path", str, ""),
        seed=_get(parser, "initial_data", "seed", int, 0),
        k_width=_get(parser, "initial_data", "k_width", float, 2.0),
        mass_target=_get(parser, "initial_data", "mass_target", float, 0.0),
        critical_mass_fraction=_get(
            parser, "initial_data", "critical_mass_fraction", float, 0.0
        ),
        theta=_get(parser, "initial_data", "theta", float, 0.5),
    )
    if initial.width <= 0:
        raise ConfigError(f"initial_data.width: must be positive, got {initial.width}")
    if kind == "file":
        if not initial.path:
            raise ConfigError("initial_data.path: required for kind 'file'")
        if not Path(initial.path).is_file():
            raise ConfigError(f"initial_data.path: no such file {initial.path!r}")
    if initial.mass_target < 0 or initial.critical_mass_fraction < 0:
        raise ConfigError("initial_data: mass targets must be nonnegative")
    if initial.mass_target > 0 and initial.critical_mass_fraction > 0:
        raise ConfigError(
            "initial_data: give mass_target or critical_mass_fraction, not both"
        )

    symmetry = None
    if parser.has_section("symmetry"):
        try:
            symmetry = SymmetryElement(
                theta=_get(parser, "symmetry", "theta", float, 0.0),
                h=_get(parser, "symmetry", "h", float, 1.0),
                t0=_get(parser, "symmetry", "t0", float, 0.0),
                x0=_get(parser, "symmetry", "x0", _vector, ()),
                xi=_get(parser, "symmetry", "xi", _vector, ()),
            )
        except ValueError as exc:
            raise ConfigError(f"symmetry: {exc}") from None
    if kind == "large_scale" and symmetry is None:
        raise ConfigError("symmetry: section required for initial_data kind 'large_scale'")

    directory = _get(parser, "outputs", "directory", str, "") if parser.has_section("outputs") else ""
    classify_data = (
        _get(parser, "outputs", "classify", _bool, True)
        if parser.has_section("outputs")
        else True
    )
    virial_radius = (
        _get(parser, "outputs", "virial_radius", float, 0.0)
        if parser.has_section("outputs")
        else 0.0
    )
    whole_space = (
        _get(parser, "outputs", "whole_space_virial", _bool, False)
        if parser.has_section("outputs")
        else False
    )
    if virial_radius > 0 and model.equation != "E1":
        raise ConfigError(
            "outputs.virial_radius: localized virial tracking needs equation E1"
        )
    if whole_space and model.equation != "E2":
        raise ConfigError(
            "outputs.whole_space_virial: whole-space identity holds for E2 only"
        )
    if virial_radius > 0 and 2.0 * virial_radius > hw:
        raise ConfigError(
            f"outputs.virial_radius: weight support 2R = {2 * virial_radius} "
            f"exceeds half_width {hw}"
        )

    return ExperimentConfig(
        model=model,
        n_per_axis=n,
        half_width=hw,
        stepper=stepper,
        initial=initial,
        symmetry=symmetry,
        directory=directory,
        classify_data=classify_data,
        virial_radius=virial_radius,
        whole_space_virial=whole_space,
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def parse_model(text: str):
    """Parse just [model] plus optional [groundstate] solver overrides.

    Returns (ModelParams, dict of solve_ground_state keyword arguments).
    Lets the ground-state command run from a config that has no grid,
    stepper, or data sections.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    if not parser.has_section("model"):
        raise ConfigError("model: section missing")
    try:
        model = ModelParams(
            d=_get(parser, "model", "d", int),
            p=_get(parser, "model", "p", float),
            omega=_get(parser, "model", "omega", float, 1.0),
            equation=_get(parser, "model", "equation", str, "E1"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    kwargs: dict = {}
    if parser.has_section("groundstate"):
        which = _get(parser, "groundstate", "which", str, "")
        if which:
            kwargs["which"] = which
        power = _get(parser, "groundstate", "power", float, 0.0)
        if power:
            kwargs["power"] = power
        r_max = _get(parser, "groundstate", "r_max", float, 0.0)
        if r_max:
            kwargs["r_max"] = r_max
        step = _get(parser, "groundstate", "step", float, 0.0)
        if step:
            kwargs["step"] = step
    return model, kwargs


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text; parse(serialize(cfg)) == cfg."""
    lines = [
        "[model]",
        f"d = {cfg.model.d}",
        f"p = {cfg.model.p!r}",
        f"omega = {cfg.model.omega!r}",
        f"equation = {cfg.model.equation}",
        "",
        "[grid]",
        f"n_per_axis = {cfg.n_per_axis}",
        f"half_width = {cfg.half_width!r}",
        "",
        "[stepper]",
        f"dt = {cfg.stepper.dt!r}",
        f"t_final = {cfg.stepper.t_final!r}",
        f"snapshot_every = {cfg.stepper.snapshot_every}",
        f"checkpoint_every = {cfg.stepper.checkpoint_every}",
        f"blowup_grad_factor = {cfg.stepper.blowup_grad_factor!r}",
        f"tail_fraction_max = {cfg.stepper.tail_fraction_max!r}",
        f"edge_mass_max = {cfg.stepper.edge_mass_max!r}",
        f"edge_cells = {cfg.stepper.edge_cells}",
        "",
        "[initial_data]",
        f"kind = {cfg.initial.kind}",
        f"amplitude = {cfg.initial.amplitude!r}",
        f"width = {cfg.initial.width!r}",
        f"rate = {cfg.initial.rate!r}",
        f"exponent = {cfg.initial.exponent!r}",
        f"wavenumber = {cfg.initial.wavenumber!r}",
        f"c = {cfg.initial.c!r}",
        f"which = {cfg.initial.which}",
        f"power = {cfg.initial.power!r}",
        f"path = {cfg.initial.path}",
        f"seed = {cfg.initial.seed}",
        f"k_width = {cfg.initial.k_width!r}",
        f"mass_target = {cfg.initial.mass_target!r}",
        f"critical_mass_fraction = {cfg.initial.critical_mass_fraction!r}",
        f"theta = {cfg.initial.theta!r}",
    ]
    if cfg.symmetry is not None:
        e = cfg.symmetry
        lines += [
            "",
            "[symmetry]",
            f"theta = {e.theta!r}",
            f"h = {e.h!r}",
            f"t0 = {e.t0!r}",
            "x0 = " + ", ".join(repr(c) for c in e.x0),
            "xi = " + ", ".join(repr(c) for c in e.xi),
        ]
    lines += [
        "",
        "[outputs]",
        f"directory = {cfg.directory}",
        f"classify = {str(cfg.classify_data).lower()}",
        f"virial_radius = {cfg.virial_radius!r}",
        f"whole_space_virial = {str(cfg.whole_space_virial).lower()}",
        "",
    ]
    return "\n".join(lines)


# -- initial data -------------------------------------------------------------

def _sech(z: np.ndarray) -> np.ndarray:
    # overflow-free: 2 e^{-|z|} / (1 + e^{-2|z|})
    a = np.abs(z)
    return 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a))


def _critical_mass(model: ModelParams) -> float:
    return solve_ground_state(model, which="mass_critical").mass


def build_initial_field(cfg: ExperimentConfig):
    """Construct u0 per the recipe; returns (field, notes dict)."""
    grid = cfg.grid()
    init = cfg.initial
    notes: dict = {"kind": init.kind}
    k0 = init.wavenumber

    if init.kind == "gaussian":
        u0 = field_from_function(
            grid,
            lambda *x: init.amplitude
            * np.exp(-sum(c**2 for c in x) / init.width**2)
            * np.exp(1j * k0 * x[0]),
        )
    elif init.kind == "sech":
        u0 = field_from_function(
            grid,
            lambda *x: init.amplitude
            * _sech(init.rate * np.sqrt(sum(c**2 for c in x))) ** init.exponent
            * np.exp(1j * k0 * x[0]),
        )
    elif init.kind == "scaled_ground_state":
        which = init.which or ("double" if cfg.model.equation == "E1" else "mass_critical")
        kwargs = {"power": init.power} if which == "single_power" else {}
        gs = solve_ground_state(cfg.model, which=which, **kwargs)
        base = ground_state_field(gs, grid)
        u0 = ComplexField(grid, init.c * base.values * np.exp(1j * k0 * grid.coords[0]))
        notes["which"] = which
        notes["ground_state_amplitude"] = gs.amplitude
    elif init.kind == "large_scale":
        base = field_from_function(
            grid,
            lambda *x: init.amplitude
            * np.exp(-sum(c**2 for c in x) / init.width**2)
            * np.exp(1j * k0 * x[0]),
        )
        u0 = large_scale_profile(base, cfg.symmetry, init.theta)
        notes["theta"] = init.theta
    elif init.kind == "file":
        u0 = load_field(init.path)
        if u0.grid != grid:
            raise ConfigError(
                f"initial_data.path: field grid {u0.grid} does not match config grid {grid}"
            )
        notes["path"] = init.path
    elif init.kind == "random_smooth":
        u0 = random_smooth_field(grid, init.seed, k_width=init.k_width, amplitude=init.amplitude)
        notes["seed"] = init.seed
    else:
        raise ConfigError(f"initial_data.kind: unknown kind {init.kind!r}")

    target = 0.0
    if init.critical_mass_fraction > 0:
        target = init.critical_mass_fraction * _critical_mass(cfg.model)
        notes["critical_mass"] = target / init.critical_mass_fraction
    elif init.mass_target > 0:
        target = init.mass_target
    if target > 0:
        m = mass(u0)
        if m == 0.0:
            raise ConfigError("initial_data: cannot rescale a zero field to a mass target")
        factor = float(np.sqrt(target / m))
        u0 = ComplexField(grid, factor * u0.values)
        notes["mass_rescale_factor"] = factor
    notes["mass"] = mass(u0)
    return u0, notes


# -- running ------------------------------------------------------------------

def _drifts(log) -> dict:
    s0 = log.snapshots[0]
    tiny = 1e-300
    mass_drift = max(abs(s.mass - s0.mass) for s in log.snapshots) / max(abs(s0.mass), tiny)
    energy_drift = max(abs(s.energy - s0.energy) for s in log.snapshots) / max(
        abs(s0.energy), tiny
    )
    momentum_drift = max(
        max(abs(pc - p0c) for pc, p0c in zip(s.momentum, s0.momentum))
        for s in log.snapshots
    )
    return {
        "mass_rel": mass_drift,
        "energy_rel": energy_drift,
        "momentum_abs": momentum_drift,
    }


def _virial_summary(cfg: ExperimentConfig, log, critical_mass: float | None) -> dict | None:
    rows = log.virial_rows
    if not rows:
        return None
    if cfg.virial_radius > 0:
        resid = max(
            abs(row.v_double_prime - 8.0 * snap.scaling_derivative)
            for row, snap in zip(rows, log.snapshots)
        )
        return {
            "mode": "localized",
            "radius": cfg.virial_radius,
            "max_identity_residual": resid,
            "max_abs_remainder": max(abs(r.remainder) for r in rows),
        }
    # whole-space second derivative against the sharp interpolation bound
    out = {"mode": "whole_space", "min_v_double_prime": min(r.v_double_prime for r in rows)}
    if critical_mass is not None:
        d = cfg.model.d
        margin = min(
            row.v_double_prime
            - 8.0 * (1.0 - (snap.mass / critical_mass) ** (2.0 / d)) * snap.grad_l2_sq
            for row, snap in zip(rows, log.snapshots)
        )
        out["min_bound_margin"] = margin
    return out


def _write_trajectory(path: Path, cfg: ExperimentConfig, log):
    have_virial = bool(log.virial_rows)
    header = snapshot_csv_header(cfg.model.d) + ",tail_fraction,edge_fraction,scatter_accum"
    if have_virial and cfg.virial_radius > 0:
        header += ",V,V_prime,V_double_prime,remainder,exterior"
    elif have_virial:
        header += ",V_double_prime"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for j, snap in enumerate(log.snapshots):
            row = (
                snapshot_csv_row(snap)
                + f",{log.tail_fractions[j]!r},{log.edge_fractions[j]!r}"
                + f",{log.scatter_series[j]!r}"
            )
            if have_virial:
                vr = log.virial_rows[j]
                if cfg.virial_radius > 0:
                    row += (
                        f",{vr.value!r},{vr.v_prime!r},{vr.v_double_prime!r}"
                        f",{vr.remainder!r},{vr.exterior_integral!r}"
                    )
                else:
                    row += f",{vr.v_double_prime!r}"
            fh.write(row + "\n")


def _write_groundstate(path: Path, gs):
    with path.open("w") as fh:
        fh.write("r,profile,derivative\n")
        for row in zip(gs.r, gs.profile, gs.derivative):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Execute one config; returns the run directory."""
    where = out_dir or cfg.directory
    if not where:
        raise ConfigError("outputs.directory: no output directory given")
    out = Path(where)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    u0, notes = build_initial_field(cfg)
    if cfg.symmetry is not None and cfg.initial.kind != "large_scale":
        u0 = apply_symmetry(u0, cfg.symmetry)

    verdict_obj = None
    gs = None
    critical_mass = None
    if cfg.classify_data:
        which = "double" if cfg.model.equation == "E1" else "mass_critical"
        gs = solve_ground_state(cfg.model, which=which)
        verdict = classify(u0, cfg.model, gs)
        verdict_obj = json.loads(verdict_to_json(verdict))
        if cfg.model.equation == "E2":
            critical_mass = gs.mass

    weight = None
    if cfg.virial_radius > 0:
        weight = VirialWeight(cfg.grid(), cfg.virial_radius)

    log = evolve(
        u0,
        cfg.model,
        cfg.stepper,
        virial_weight=weight,
        whole_space_virial=cfg.whole_space_virial,
    )

    # For an unscaled ground state the modulus should sit still; track
    # the worst relative L2 deviation over stored fields.
    stationarity = None
    if (
        cfg.initial.kind == "scaled_ground_state"
        and abs(cfg.initial.c - 1.0) < 1e-12
        and cfg.symmetry is None
    ):
        ref = np.abs(u0.values)
        ref_norm = float(np.sqrt(np.sum(ref**2)))
        fields = [f for _, f in log.checkpoints]
        if log.final_state is not None and log.outcome == "completed":
            fields.append(log.final_state)
        if ref_norm > 0 and fields:
            stationarity = max(
                float(np.sqrt(np.sum((np.abs(f.values) - ref) ** 2))) / ref_norm
                for f in fields
            )

    proxy = None
    if log.outcome == "completed":
        rep = scattering_proxy(log)
        proxy = {
            "passed": rep.passed,
            "accumulated": rep.accumulated,
            "mean_rate": rep.mean_rate,
            "late_rate": rep.late_rate,
            "decay_factor": rep.decay_factor,
            "cauchy_distance": rep.cauchy_distance,
        }
    blow = detect_blowup(log)

    save_field(out / "u0.nlsf", u0)
    if log.final_state is not None:
        save_field(out / "final.nlsf", log.final_state)
    _write_trajectory(out / "trajectory.csv", cfg, log)
    if gs is not None:
        _write_groundstate(out / "groundstate.csv", gs)
    (out / "config.ini").write_text(serialize_config(cfg))

    summary = {
        "format": 1,
        "model": {
            "d": cfg.model.d,
            "p": cfg.model.p,
            "omega": cfg.model.omega,
            "equation": cfg.model.equation,
        },
        "grid": {"n_per_axis": cfg.n_per_axis, "half_width": cfg.half_width},
        "stepper": {
            "dt": cfg.stepper.dt,
            "dt_used": log.dt_used,
            "n_steps": log.n_steps,
            "t_final": cfg.stepper.t_final,
            "snapshot_every": cfg.stepper.snapshot_every,
            "checkpoint_every": cfg.stepper.checkpoint_every,
            "blowup_grad_factor": cfg.stepper.blowup_grad_factor,
            "tail_fraction_max": cfg.stepper.tail_fraction_max,
            "edge_mass_max": cfg.stepper.edge_mass_max,
            "edge_cells": cfg.stepper.edge_cells,
        },
        "initial_data": notes,
        "verdict": verdict_obj,
        "outcome": log.outcome,
        "abort_time": log.abort_time,
        "abort_detail": log.abort_detail,
        "drifts": _drifts(log),
        "virial": _virial_summary(cfg, log, critical_mass),
        "scattering_proxy": proxy,
        "stationarity_residual": stationarity,
        "blowup": {
            "detected": blow.detected,
            "time": blow.time,
            "diagnosis": blow.diagnosis,
        },
        "snapshots_recorded": len(log.snapshots),
        "timing": {
            "wall_seconds": time.monotonic() - started,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return out


# -- reporting ----------------------------------------------------------------

_REPORT_COLUMNS = (
    "run",
    "equation",
    "d",
    "p",
    "omega",
    "kind",
    "set_label",
    "prediction",
    "outcome",
    "agreement",
    "proxy_pass",
    "detection_time",
    "mass_drift",
    "energy_drift",
    "K_margin",
    "action_margin",
    "mass_margin",
)


def _agreement(summary: dict) -> str:
    verdict = summary.get("verdict")
    if not verdict or verdict["prediction"] == "no_prediction":
        return "n/a"
    outcome = summary["outcome"]
    proxy = summary.get("scattering_proxy")
    if verdict["prediction"] == "global_scattering":
        ok = outcome == "completed" and bool(proxy and proxy["passed"])
    else:
        ok = outcome == "blowup_detected"
    return "yes" if ok else "no"


def _margin_value(verdict, name):
    if not verdict:
        return ""
    m = verdict.get(name)
    if not m:
        return ""
    return repr(m["value"])


def _report_row(run_dir: Path, summary: dict) -> dict:
    verdict = summary.get("verdict")
    proxy = summary.get("scattering_proxy")
    blow = summary.get("blowup") or {}
    return {
        "run": run_dir.name,
        "equation": summary["model"]["equation"],
        "d": str(summary["model"]["d"]),
        "p": repr(summary["model"]["p"]),
        "omega": repr(summary["model"]["omega"]),
        "kind": summary["initial_data"]["kind"],
        "set_label": verdict["set_label"] if verdict else "",
        "prediction": verdict["prediction"] if verdict else "",
        "outcome": summary["outcome"],
        "agreement": _agreement(summary),
        "proxy_pass": "" if proxy is None else str(bool(proxy["passed"])).lower(),
        "detection_time": "" if blow.get("time") is None else repr(blow["time"]),
        "mass_drift": repr(summary["drifts"]["mass_rel"]),
        "energy_drift": repr(summary["drifts"]["energy_rel"]),
        "K_margin": _margin_value(verdict, "k_value"),
        "action_margin": _margin_value(verdict, "action_margin"),
        "mass_margin": _margin_value(verdict, "mass_margin"),
    }


def emit_report(run_dirs, out_dir) -> dict:
    """Aggregate run summaries into report.csv and report.md.

    Unreadable directories are skipped and listed; returns a dict with
    rows, skipped entries, and the two output paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    skipped = []
    for rd in run_dirs:
        rd = Path(rd)
        spath = rd / "summary.json"
        try:
            summary = json.loads(spath.read_text())
            rows.append(_report_row(rd, summary))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            skipped.append({"directory": str(rd), "reason": f"{type(exc).__name__}: {exc}"})

    csv_path = out / "report.csv"
    with csv_path.open("w") as fh:
        fh.write(",".join(_REPORT_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in _REPORT_COLUMNS) + "\n")

    md_path = out / "report.md"
    with md_path.open("w") as fh:
        fh.write("| " + " | ".join(_REPORT_COLUMNS) + " |\n")
        fh.write("|" + "---|" * len(_REPORT_COLUMNS) + "\n")
        for row in rows:
            fh.write("| " + " | ".join(row[c] or "-" for c in _REPORT_COLUMNS) + " |\n")
        if skipped:
            fh.write("\nSkipped directories:\n")
            for s in skipped:
                fh.write(f"- {s['directory']}: {s['reason']}\n")

    return {"rows": rows, "skipped": skipped, "csv": csv_path, "markdown": md_path}
