"""Config-driven experiment runs and aggregate reporting.

A run is described by an INI file with sections [model], [grid],
[stepper], [initial_data], optional [symmetry], and [outputs]; _SCHEMA
states each section's keys once, and keys or sections it does not name
are refused.  Running one produces a directory holding the echoed config, a JSON summary
(verdict, outcome, drifts, virial and scattering diagnostics), the
trajectory CSV, the initial and final fields in NLSF form, and the
ground-state profile used for classification.  Runs are deterministic:
random initial data is drawn from a recorded seed and everything else is
a pure function of the config.  run_experiments marches the configs that
share a model, a grid and a record cadence as one stack
(propagator.evolve_stack), whatever their step sizes, horizons and abort
thresholds, so a threshold sweep's scattering and collapse flights march
together; it writes for each run the bytes it writes alone.

emit_report folds many run directories into one CSV plus a markdown
table with a dichotomy-agreement column (prediction versus observed
outcome), skipping unreadable directories but listing them.
"""

from __future__ import annotations

import configparser
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

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
from .groundstate import _WHICH, ground_state_field, solve_cost, solve_ground_state
from .classifier import classify
from .propagator import (
    StepperConfig,
    _check_initial_data,
    _mate_key,
    _stack_capacity,
    detect_blowup,
    evolve,
    evolve_stack,
    scattering_proxy,
)
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
    "run_experiments",
    "plan_stacks",
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


# -- the config schema --------------------------------------------------------


class _Section(NamedTuple):
    """One INI section: the ExperimentConfig field holding the dataclass it
    builds (attr, cls), or None, None when its keys fill ExperimentConfig
    fields directly; keys are (INI key, dataclasses.Field) in writing order,
    so each key's type and default is its field's own."""

    attr: str | None
    cls: type | None
    keys: tuple


def _keys(cls: type) -> tuple:
    return tuple((f.name, f) for f in fields(cls))


def _built(attr: str, cls: type) -> _Section:
    return _Section(attr, cls, _keys(cls))


def _own(*names) -> _Section:
    # each name is an ExperimentConfig field, or (INI key, field) when they differ
    own = {f.name: f for f in fields(ExperimentConfig)}
    pairs = [name if isinstance(name, tuple) else (name, name) for name in names]
    return _Section(None, None, tuple((key, own[name]) for key, name in pairs))


_SCHEMA = {
    "model": _built("model", ModelParams),
    "grid": _own("n_per_axis", "half_width"),
    "stepper": _built("stepper", StepperConfig),
    "initial_data": _built("initial", InitialData),
    "symmetry": _built("symmetry", SymmetryElement),
    "outputs": _own(
        "directory", ("classify", "classify_data"), "virial_radius", "whole_space_virial"
    ),
}


@dataclass(frozen=True)
class _SolverOverrides:
    """[groundstate], read by parse_model only (parse_config refuses it):
    solve_ground_state keyword arguments; an empty or zero value keeps the
    solver's default, and r_max and step must otherwise be positive."""

    which: str = ""
    power: float = 0.0
    r_max: float = 0.0
    step: float = 0.0


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


# keyed by field annotation, a string under `from __future__ import annotations`
_PARSE = {"int": int, "float": float, "str": str, "bool": _bool, "tuple": _vector}


def _parser(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    return parser


def _read(parser, section: str, keys) -> dict:
    """The section's values by field name; absent keys keep the field default."""
    values = {}
    for key, f in keys:
        raw = parser.get(section, key, fallback=None)
        if raw is None:
            if f.default is MISSING:
                raise ConfigError(f"{section}: missing required key '{key}'")
            continue
        try:
            values[f.name] = _PARSE[f.type](raw.strip())
        except (ValueError, TypeError):
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None
    names = tuple(key for key, _ in keys)
    for key in parser.options(section):
        if key not in names:
            raise ConfigError(f"{section}.{key}: unknown key, expected one of {names}")
    return values


def _build(parser, section: str) -> dict:
    """ExperimentConfig keyword arguments read from one section; none from
    an absent section whose keys all have defaults."""
    attr, cls, keys = _SCHEMA[section]
    if not parser.has_section(section):
        if any(f.default is MISSING for _, f in keys):
            raise ConfigError(f"{section}: section missing")
        return {}
    values = _read(parser, section, keys)
    if cls is None:
        return values
    try:
        return {attr: cls(**values)}
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _refuse_unknown_sections(parser, known: tuple) -> None:
    for section in parser.sections():
        if section == "groundstate" and section not in known:
            raise ConfigError(
                "groundstate: section read only by `nlslab groundstate`; a run "
                "solves its threshold profile with the solver's defaults"
            )
        if section not in known:
            raise ConfigError(f"{section}: unknown section, expected one of {known}")


def _section_values(cfg: ExperimentConfig, section: str) -> dict | None:
    """INI key -> value of one section of cfg; None for an absent [symmetry]."""
    attr, _, keys = _SCHEMA[section]
    owner = cfg if attr is None else getattr(cfg, attr)
    if owner is None:
        return None
    return {key: getattr(owner, f.name) for key, f in keys}


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(repr(c) for c in value)
    return value if isinstance(value, str) else repr(value)


# -- parsing ------------------------------------------------------------------

def _check_profile(section: str, which: str, power: float) -> None:
    """Refuse a ground-state profile the solver would refuse; empty which
    and zero power mean unset."""
    if which and which not in _WHICH:
        raise ConfigError(f"{section}.which: unknown profile {which!r}, expected one of {_WHICH}")
    if power != 0.0 and not power > 1.0:
        raise ConfigError(f"{section}.power: single_power exponent must exceed 1, got {power}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into a validated ExperimentConfig."""
    parser = _parser(text)
    parts: dict = {}
    for section in _SCHEMA:
        parts.update(_build(parser, section))
    _refuse_unknown_sections(parser, tuple(_SCHEMA))
    cfg = ExperimentConfig(**parts)

    try:
        cfg.grid()
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None

    init = cfg.initial
    if init.kind not in DATA_KINDS:
        raise ConfigError(
            f"initial_data.kind: unknown kind {init.kind!r}, expected one of {DATA_KINDS}"
        )
    if init.width <= 0:
        raise ConfigError(f"initial_data.width: must be positive, got {init.width}")
    _check_profile("initial_data", init.which, init.power)
    if not 0.0 < init.theta < 1.0:
        raise ConfigError(f"initial_data.theta: must lie in (0, 1), got {init.theta}")
    if not init.k_width > 0:
        raise ConfigError(f"initial_data.k_width: must be positive, got {init.k_width}")
    if init.kind == "file":
        if not init.path:
            raise ConfigError("initial_data.path: required for kind 'file'")
        if not Path(init.path).is_file():
            raise ConfigError(f"initial_data.path: no such file {init.path!r}")
    if init.mass_target < 0 or init.critical_mass_fraction < 0:
        raise ConfigError("initial_data: mass targets must be nonnegative")
    if init.mass_target > 0 and init.critical_mass_fraction > 0:
        raise ConfigError(
            "initial_data: give mass_target or critical_mass_fraction, not both"
        )
    if init.kind == "large_scale" and cfg.symmetry is None:
        raise ConfigError("symmetry: section required for initial_data kind 'large_scale'")
    for key in ("x0", "xi"):
        n = 0 if cfg.symmetry is None else len(getattr(cfg.symmetry, key))
        if n not in (0, cfg.model.d):
            raise ConfigError(f"symmetry.{key}: {n} components on a {cfg.model.d}-D grid")

    if cfg.virial_radius > 0 and cfg.model.equation != "E1":
        raise ConfigError(
            "outputs.virial_radius: localized virial tracking needs equation E1"
        )
    if cfg.whole_space_virial and cfg.model.equation != "E2":
        raise ConfigError(
            "outputs.whole_space_virial: whole-space identity holds for E2 only"
        )
    if cfg.virial_radius > 0 and 2.0 * cfg.virial_radius > cfg.half_width:
        raise ConfigError(
            f"outputs.virial_radius: weight support 2R = {2 * cfg.virial_radius} "
            f"exceeds half_width {cfg.half_width}"
        )
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def parse_model(text: str):
    """Parse just [model] plus optional [groundstate] solver overrides.

    Returns (ModelParams, dict of solve_ground_state keyword arguments).
    Lets the ground-state command run from a config that has no grid,
    stepper, or data sections.
    """
    parser = _parser(text)
    model = _build(parser, "model")["model"]
    kwargs: dict = {}
    if parser.has_section("groundstate"):
        overrides = _read(parser, "groundstate", _keys(_SolverOverrides))
        _check_profile("groundstate", overrides.get("which", ""), overrides.get("power", 0.0))
        for key in ("r_max", "step"):
            value = overrides.get(key, 0.0)
            if value != 0.0 and not value > 0.0:
                raise ConfigError(f"groundstate.{key}: must be positive, got {value}")
        kwargs = {name: value for name, value in overrides.items() if value}
    _refuse_unknown_sections(parser, (*_SCHEMA, "groundstate"))
    return model, kwargs


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text; parse(serialize(cfg)) == cfg."""
    blocks = []
    for section in _SCHEMA:
        values = _section_values(cfg, section)
        if values is not None:
            body = "".join(f"{key} = {_format(v)}\n" for key, v in values.items())
            blocks.append(f"[{section}]\n{body}")
    return "\n".join(blocks)


# -- initial data -------------------------------------------------------------

def _sech(z: np.ndarray) -> np.ndarray:
    # overflow-free: 2 e^{-|z|} / (1 + e^{-2|z|})
    a = np.abs(z)
    return 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a))


def _threshold_profile(model: ModelParams) -> str:
    """The ground state that sets the model's thresholds: the double
    profile for E1, the mass-critical one for E2."""
    return "double" if model.equation == "E1" else "mass_critical"


def _critical_mass(model: ModelParams) -> float:
    return solve_ground_state(model, which="mass_critical").mass


def build_initial_field(cfg: ExperimentConfig):
    """Construct u0 per the recipe; returns (field, notes dict)."""
    grid = cfg.grid()
    init = cfg.initial
    notes: dict = {"kind": init.kind}
    k0 = init.wavenumber

    if init.kind in ("gaussian", "large_scale"):
        u0 = field_from_function(
            grid,
            lambda *x: init.amplitude
            * np.exp(-sum(c**2 for c in x) / init.width**2)
            * np.exp(1j * k0 * x[0]),
        )
        if init.kind == "large_scale":
            u0 = large_scale_profile(u0, cfg.symmetry, init.theta)
            notes["theta"] = init.theta
    elif init.kind == "sech":
        u0 = field_from_function(
            grid,
            lambda *x: init.amplitude
            * _sech(init.rate * np.sqrt(sum(c**2 for c in x))) ** init.exponent
            * np.exp(1j * k0 * x[0]),
        )
    elif init.kind == "scaled_ground_state":
        which = init.which or _threshold_profile(cfg.model)
        # an unset power (0) is the model's p, as in [groundstate]
        kwargs = {"power": init.power} if which == "single_power" and init.power > 0 else {}
        gs = solve_ground_state(cfg.model, which=which, **kwargs)
        base = ground_state_field(gs, grid)
        u0 = ComplexField(grid, init.c * base.values * np.exp(1j * k0 * grid.coords[0]))
        notes["which"] = which
        notes["ground_state_amplitude"] = gs.amplitude
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


def _initial_state(cfg: ExperimentConfig):
    """build_initial_field with the config's symmetry element applied
    (large_scale data has it built in); returns (field, notes dict)."""
    u0, notes = build_initial_field(cfg)
    if cfg.symmetry is not None and cfg.initial.kind != "large_scale":
        u0 = apply_symmetry(u0, cfg.symmetry)
    return u0, notes


def _is_standing_wave(cfg: ExperimentConfig) -> bool:
    """u0 is the model's own standing wave e^{i omega t} Q: E1 double-profile
    data at c = 1, with no boost, no mass rescale and no symmetry element.
    Only then should the modulus sit still, and only then does a run read
    every checkpoint (for stationarity_residual)."""
    init = cfg.initial
    return (
        cfg.model.equation == "E1"
        and init.kind == "scaled_ground_state"
        and (init.which or _threshold_profile(cfg.model)) == "double"
        and abs(init.c - 1.0) < 1e-12
        and init.wavenumber == 0.0
        and init.mass_target == 0.0
        and init.critical_mass_fraction == 0.0
        and cfg.symmetry is None
    )


def _threshold_verdict(u0: ComplexField, model: ModelParams):
    """(threshold ground state, verdict of u0 against it)."""
    gs = solve_ground_state(model, which=_threshold_profile(model))
    return gs, classify(u0, model, gs)


# -- running ------------------------------------------------------------------

def _drifts(log) -> dict:
    s0 = log.snapshots[0]
    mass_drift = max(abs(s.mass - s0.mass) for s in log.snapshots) / max(abs(s0.mass), 1e-300)
    momentum_drift = max(
        max(abs(pc - p0c) for pc, p0c in zip(s.momentum, s0.momentum))
        for s in log.snapshots
    )
    return {
        "mass_rel": mass_drift,
        "energy_rel": log.energy_drift,
        "momentum_abs": momentum_drift,
    }


def _virial_summary(cfg: ExperimentConfig, log, critical_mass: float | None) -> dict | None:
    rows = log.virial_rows
    if not rows:
        return None
    if cfg.virial_radius > 0:
        # each row's remainder is V'' - 8K with K the snapshot's, so the two
        # keys name one series
        worst = max(abs(r.remainder) for r in rows)
        return {
            "mode": "localized",
            "radius": cfg.virial_radius,
            "max_identity_residual": worst,
            "max_abs_remainder": worst,
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
    # the solution formats its rows once; every later write reuses them
    with path.open("wb") as fh:
        fh.writelines(gs._csv_chunks)


# every file run_experiment may write into a run directory
_ARTIFACTS = ("summary.json", "summary.json.tmp", "u0.nlsf", "final.nlsf",
              "trajectory.csv", "groundstate.csv", "config.ini")


@dataclass
class _Run:
    """A prepared job: what its march and its finish read."""

    cfg: ExperimentConfig
    out: Path
    started: float
    u0: ComplexField
    notes: dict
    gs: object
    verdict: dict | None
    solve_cost: tuple       # (solves, shots, seconds) of the solves it ran


def _stack_key(cfg: ExperimentConfig) -> tuple:
    """Everything of cfg that its stack-mates must share: what its march
    reads apart from the initial state, of [stepper] only its
    propagator._mate_key."""
    return (cfg.model, cfg.n_per_axis, cfg.half_width, _mate_key(cfg.stepper),
            cfg.virial_radius, cfg.whole_space_virial, _is_standing_wave(cfg))


def plan_stacks(cfgs) -> list:
    """The indices of cfgs in stacks that march together: configs that
    share [model], [grid], the record cadence and [outputs] (directory
    aside), whose last steps the cadence observes (else whose [stepper] is
    the same), at most propagator._stack_capacity of them per stack."""
    groups: dict = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_stack_key(cfg), []).append(i)
    stacks = []
    for members in groups.values():
        cap = _stack_capacity(cfgs[members[0]].grid())
        stacks += [members[j:j + cap] for j in range(0, len(members), cap)]
    return stacks


def _prepare(cfg: ExperimentConfig, out_dir) -> _Run:
    """Clear the run directory, build and classify the initial data, and
    check evolve's preconditions on it, so that a job failing them fails
    alone and not its stack."""
    where = out_dir or cfg.directory
    if not where:
        raise ConfigError("outputs.directory: no output directory given")
    out = Path(where)
    out.mkdir(parents=True, exist_ok=True)
    # a rerun must leave nothing of an earlier run: not its summary for
    # report to read if this run fails, nor a file this run does not write
    for name in _ARTIFACTS:
        (out / name).unlink(missing_ok=True)
    started = time.monotonic()
    cost_before = solve_cost()

    u0, notes = _initial_state(cfg)
    gs = verdict = None
    if cfg.classify_data:
        gs, v = _threshold_verdict(u0, cfg.model)
        verdict = asdict(v)
    _check_initial_data(u0, cfg.stepper)
    cost = tuple(b - a for a, b in zip(cost_before, solve_cost()))
    return _Run(cfg, out, started, u0, notes, gs, verdict, cost)


def _march(runs: list) -> list:
    """The trajectory logs of one stack's prepared runs."""
    cfg = runs[0].cfg
    weight = VirialWeight(cfg.grid(), cfg.virial_radius) if cfg.virial_radius > 0 else None
    # a run keeps only the checkpoints it reads: all of them for a standing
    # wave's stationarity, else those of the proxy's Cauchy test
    kwargs = {"virial_weight": weight, "whole_space_virial": cfg.whole_space_virial,
              "bounded_checkpoints": not _is_standing_wave(cfg)}
    if len(runs) == 1:
        # a lone run through evolve, the name perfbench's tracer wraps
        return [evolve(runs[0].u0, cfg.model, cfg.stepper, **kwargs)]
    return evolve_stack([run.u0 for run in runs], cfg.model, [run.cfg.stepper for run in runs],
                        **kwargs)


def _finish(run: _Run, log, flights: int) -> Path:
    """Write a marched run's artifacts, the summary last; flights is the
    size its stack started with."""
    cfg, out, u0, gs = run.cfg, run.out, run.u0, run.gs
    critical_mass = gs.mass if gs is not None and cfg.model.equation == "E2" else None

    # For the model's standing wave the modulus should sit still; track
    # the worst relative L2 deviation over stored fields.
    stationarity = None
    if _is_standing_wave(cfg):
        ref = np.abs(u0.values)
        ref_norm = float(np.sqrt(np.sum(ref**2)))
        # the final state of a completed run is its last checkpoint
        stored = [f for _, f in log.checkpoints]
        if ref_norm > 0 and stored:
            stationarity = max(
                float(np.sqrt(np.sum((np.abs(f.values) - ref) ** 2))) / ref_norm
                for f in stored
            )

    save_field(out / "u0.nlsf", u0)
    if log.final_state is not None:
        save_field(out / "final.nlsf", log.final_state)
    _write_trajectory(out / "trajectory.csv", cfg, log)
    if gs is not None:
        _write_groundstate(out / "groundstate.csv", gs)
    (out / "config.ini").write_text(serialize_config(cfg))
    solves, shots, solve_s = run.solve_cost

    summary = {
        "format": 1,
        "model": _section_values(cfg, "model"),
        "grid": _section_values(cfg, "grid"),
        "stepper": {
            **_section_values(cfg, "stepper"),
            "dt_used": log.dt_used,
            "n_steps": log.n_steps,
        },
        "initial_data": run.notes,
        "verdict": run.verdict,
        "outcome": log.outcome,
        "abort_time": log.abort_time,
        "abort_detail": log.abort_detail,
        "drifts": _drifts(log),
        "virial": _virial_summary(cfg, log, critical_mass),
        "scattering_proxy": (
            asdict(scattering_proxy(log)) if log.outcome == "completed" else None
        ),
        "stationarity_residual": stationarity,
        "blowup": asdict(detect_blowup(log)),
        "snapshots_recorded": len(log.snapshots),
        "timing": {
            "wall_seconds": time.monotonic() - run.started,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "groundstate.solve_s": solve_s,
            "groundstate.solves": solves,
            "groundstate.shots": shots,
            "propagator.stack_flights": flights,
        },
    }
    # written last and renamed into place: a summary means the run finished
    tmp = out / "summary.json.tmp"
    tmp.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, out / "summary.json")
    return out


def run_experiments(jobs) -> list:
    """Execute (config, out_dir or None) jobs; returns, per job in order,
    its run directory or the exception that stopped it.

    The jobs of one plan_stacks stack march together through
    evolve_stack: each is prepared (its directory cleared, its initial
    data built and classified, evolve's preconditions checked), the ones
    that passed march as one stack, and each is finished (artifacts
    written, the summary last).  A job that fails stops alone; a failed
    march stops its stack.  Each summary's timing block counts the
    ground-state solves of its own preparation, and its wall_seconds runs
    from that preparation to its summary, so it covers the march its
    stack shares, with mates of other steppers too;
    propagator.stack_flights gives the flights that march started with.
    """
    results: list = [None] * len(jobs)
    for stack in plan_stacks([cfg for cfg, _ in jobs]):
        # one stack's fields and logs at a time
        _run_stack(jobs, stack, results)
    return results


def _run_stack(jobs, stack, results) -> None:
    """Prepare, march and finish the jobs of one stack, into results."""
    runs = {}
    for i in stack:
        try:
            runs[i] = _prepare(*jobs[i])
        except Exception as exc:
            results[i] = exc
    if not runs:
        return
    try:
        logs = _march(list(runs.values()))
    except Exception as exc:
        for i in runs:
            results[i] = exc
        return
    for (i, run), log in zip(runs.items(), logs):
        try:
            results[i] = _finish(run, log, len(runs))
        except Exception as exc:
            results[i] = exc


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Execute one config; returns the run directory.  run_experiments on
    one job, whose exception, if any, is raised."""
    (result,) = run_experiments([(cfg, out_dir)])
    if isinstance(result, Exception):
        raise result
    return result


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
