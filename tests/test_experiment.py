"""Config parsing, initial-data construction, run artifacts, reporting."""

import configparser
import csv
import json
import math
import random
from dataclasses import asdict, replace

import numpy as np
import pytest

from nlslab.experiment import (
    _SCHEMA,
    DATA_KINDS,
    _write_groundstate,
    ConfigError,
    ExperimentConfig,
    InitialData,
    build_initial_field,
    emit_report,
    load_config,
    parse_config,
    parse_model,
    run_experiment,
    serialize_config,
)
from nlslab import experiment, groundstate
from nlslab.cli import main
from nlslab.fieldio import load_field, save_field
from nlslab.functionals import ModelParams, action_K_H, mass
from nlslab.groundstate import ground_state_field, solve_ground_state
from nlslab.propagator import StepperConfig, evolve, evolve_stack, scattering_proxy
from nlslab.spectral import FourierMultiplier, GridSpec, apply_multiplier, field_from_function
from nlslab.symmetry import SymmetryElement, apply_symmetry, spectral_translate
from nlslab.virial import VirialWeight

BASE = """
[model]
d = 1
p = 7.0
omega = 1.0
equation = E1

[grid]
n_per_axis = 256
half_width = 15.0

[stepper]
dt = 1e-3
t_final = 0.02
snapshot_every = 5

[initial_data]
kind = gaussian
amplitude = 0.8
"""


def _with(text=BASE, **sections):
    """Append extra INI sections or replace lines by crude concatenation."""
    out = text
    for name, body in sections.items():
        out += f"\n[{name}]\n{body}\n"
    return out


# -- parse attribution --------------------------------------------------------

@pytest.mark.parametrize("mutation, pattern", [
    (("p = 7.0", "p = 3.0"), r"model: .*exceed 1 \+ 4/d"),
    (("t_final = 0.02", "no_such = 1"), r"stepper: missing required key 't_final'"),
    (("kind = gaussian", "kind = vortex"), r"initial_data\.kind: unknown kind"),
    (("n_per_axis = 256", "n_per_axis = banana"), r"grid\.n_per_axis: cannot parse"),
    (("amplitude = 0.8", "width = -1.0"), r"initial_data\.width: must be positive"),
    (("[grid]", "[lattice]"), r"grid: section missing"),
    (("snapshot_every = 5", "snapshot_every = 5\nedge_cells = 128"),
     r"stepper\.edge_cells: 128 sites"),
    # config numbers are finite, and so is the step count they imply
    (("half_width = 15.0", "half_width = inf"), r"grid\.half_width: cannot parse"),
    (("t_final = 0.02", "t_final = inf"), r"stepper\.t_final: cannot parse"),
    (("dt = 1e-3", "dt = 1e-320"), r"stepper: t_final / dt must be finite"),
    (("amplitude = 0.8", "amplitude = nan"), r"initial_data\.amplitude: cannot parse"),
    (("amplitude = 0.8", "amplitude = inf"), r"initial_data\.amplitude: cannot parse"),
    # a negative radius would turn localized tracking off, as 0 does
    (("amplitude = 0.8", "amplitude = 0.8\n[outputs]\nvirial_radius = -3.0"),
     r"outputs\.virial_radius: must be nonnegative"),
    # the sech recipe's rate and exponent: a nonpositive exponent or rate
    # leaves no decaying profile, and a negative rate is its absolute value
    (("kind = gaussian", "kind = sech\nrate = 0"), r"initial_data\.rate: must be positive"),
    (("kind = gaussian", "kind = sech\nrate = -2"), r"initial_data\.rate: must be positive"),
    (("kind = gaussian", "kind = sech\nexponent = 0"),
     r"initial_data\.exponent: must be positive"),
    (("kind = gaussian", "kind = sech\nexponent = -1"),
     r"initial_data\.exponent: must be positive"),
])
def test_errors_name_the_offending_key(mutation, pattern):
    old, new = mutation
    text = BASE.replace(old, new)
    with pytest.raises(ConfigError, match=pattern):
        parse_config(text)
    if "cannot parse" in pattern or "missing" in pattern:
        return  # no value reaches a dataclass
    # the same values set on a parsed config in Python meet the same rules;
    # ModelParams and StepperConfig refuse theirs with a ValueError that
    # parsing prefixes with the section
    section, _, message = pattern.partition(": ")
    expected, pattern = (ConfigError, pattern) if "." in section else (ValueError, message)
    with pytest.raises(expected, match=pattern):
        _replaced(parse_config(BASE), text)


def _replaced(cfg: ExperimentConfig, text: str) -> ExperimentConfig:
    """cfg with each value that text sets, and BASE does not, set through
    dataclasses.replace, section by section."""
    base, parser = configparser.ConfigParser(), configparser.ConfigParser()
    base.read_string(BASE)
    parser.read_string(text)
    top = {}
    for section in parser.sections():
        attr, _, keys = _SCHEMA[section]
        values = {f.name: experiment._PARSE[f.type](parser[section][key])
                  for key, f in keys
                  if key in parser[section]
                  and parser[section][key] != base.get(section, key, fallback=None)}
        if attr is None:
            top.update(values)
        else:
            top[attr] = replace(getattr(cfg, attr), **values)
    return replace(cfg, **top)


@pytest.mark.parametrize("text, pattern", [
    (BASE.replace("snapshot_every = 5", "snapshot_evry = 5"),
     r"stepper\.snapshot_evry: unknown key"),
    (BASE + "ampltude = 0.5\n", r"initial_data\.ampltude: unknown key"),
    (_with(output="directory = runs/x"), r"output: unknown section"),
    (_with(symmetry="theta = 0.3\nx1 = 1.0"), r"symmetry\.x1: unknown key"),
    (_with(groundstate="stpe = 1"), r"groundstate: section read only by `nlslab groundstate`"),
], ids=["stepper", "initial_data", "section", "symmetry", "groundstate"])
def test_unknown_keys_and_sections_are_refused(text, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_config(text)


def test_missing_data_file_is_reported(tmp_path):
    text = BASE.replace("kind = gaussian", f"kind = file\npath = {tmp_path}/nope.nlsf")
    with pytest.raises(ConfigError, match="no such file"):
        parse_config(text)


def test_large_scale_requires_a_symmetry_section():
    with pytest.raises(ConfigError, match="symmetry: section required"):
        parse_config(BASE.replace("kind = gaussian", "kind = large_scale"))


def test_virial_radius_is_tied_to_the_competing_sign_equation():
    text = _with(BASE.replace("equation = E1", "equation = E2"),
                 outputs="virial_radius = 4.0")
    with pytest.raises(ConfigError, match="needs equation E1"):
        parse_config(text)
    e2 = parse_config(BASE.replace("equation = E1", "equation = E2"))
    with pytest.raises(ConfigError, match=r"outputs\.virial_radius: .*needs equation E1"):
        replace(e2, virial_radius=4.0)


def test_whole_space_virial_is_tied_to_the_single_sign_equation():
    with pytest.raises(ConfigError, match="E2 only"):
        parse_config(_with(outputs="whole_space_virial = yes"))


def test_weight_support_must_fit_in_the_box():
    with pytest.raises(ConfigError, match="exceeds half_width"):
        parse_config(_with(outputs="virial_radius = 9.0"))
    with pytest.raises(ConfigError, match=r"outputs\.virial_radius: .*exceeds half_width 15"):
        replace(parse_config(BASE), virial_radius=10.0)


def test_conflicting_mass_targets_are_refused():
    text = BASE + "mass_target = 1.0\ncritical_mass_fraction = 0.5\n"
    with pytest.raises(ConfigError, match="not both"):
        parse_config(text)


def test_parse_model_reads_solver_overrides():
    model, kwargs = parse_model(
        "[model]\nd = 1\np = 7.0\n\n[groundstate]\nwhich = double\nstep = 0.001\n"
    )
    assert model == ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
    assert kwargs == {"which": "double", "step": 0.001}
    with pytest.raises(ConfigError, match="model: section missing"):
        parse_model("[groundstate]\nwhich = double\n")
    with pytest.raises(ConfigError, match=r"groundstate\.stpe: unknown key"):
        parse_model("[model]\nd = 1\np = 7.0\n\n[groundstate]\nstpe = 0.001\n")
    with pytest.raises(ConfigError, match="groundstat: unknown section"):
        parse_model("[model]\nd = 1\np = 7.0\n\n[groundstat]\nstep = 0.001\n")


# -- serialization round trip -------------------------------------------------

def test_serialize_then_parse_is_the_identity():
    text = _with(symmetry="theta = 0.3\nxi = 0.2094395102393195\n",
                 outputs="directory = runs/demo\nvirial_radius = 6.0")
    cfg = parse_config(text)
    canon = serialize_config(cfg)
    again = parse_config(canon)
    assert again == cfg
    assert serialize_config(again) == canon


def _draw_vector(rng, d):
    return () if rng.random() < 0.3 else tuple(rng.uniform(-5.0, 5.0) for _ in range(d))


def _draw_config(rng, data_file) -> ExperimentConfig:
    """One admissible config with every field drawn."""
    d = rng.choice((1, 2))
    equation = rng.choice(("E1", "E2"))
    model = ModelParams(d=d, p=1.0 + 4.0 / d + rng.uniform(1e-3, 5.0),
                        omega=rng.uniform(0.1, 3.0), equation=equation)
    half_width = rng.uniform(5.0, 60.0)
    stepper = StepperConfig(
        dt=10 ** rng.uniform(-6, -2),
        t_final=rng.uniform(1e-3, 10.0),
        snapshot_every=rng.randint(1, 500),
        checkpoint_every=rng.randint(0, 500),
        blowup_grad_factor=rng.uniform(1.5, 1e4),
        tail_fraction_max=10 ** rng.uniform(-12, -1),
        edge_mass_max=10 ** rng.uniform(-12, -1),
        edge_cells=rng.randint(1, 16),
    )
    kind = rng.choice(DATA_KINDS)
    target = rng.choice(("none", "mass_target", "critical_mass_fraction"))
    initial = InitialData(
        kind=kind,
        amplitude=rng.uniform(-3.0, 3.0),
        width=rng.uniform(0.05, 5.0),
        rate=rng.uniform(0.1, 5.0),
        exponent=rng.uniform(0.1, 3.0),
        wavenumber=rng.uniform(-4.0, 4.0),
        c=rng.uniform(0.0, 2.0),
        which=rng.choice(("", "double", "mass_critical", "single_power")),
        power=rng.choice((0.0, rng.uniform(2.0, 9.0))),
        path=str(data_file) if kind == "file" else rng.choice(("", "elsewhere/u0.nlsf")),
        seed=rng.randint(0, 2**40),
        k_width=rng.uniform(0.1, 5.0),
        mass_target=rng.uniform(0.1, 9.0) if target == "mass_target" else 0.0,
        critical_mass_fraction=(
            rng.uniform(0.1, 2.0) if target == "critical_mass_fraction" else 0.0
        ),
        theta=rng.uniform(0.0, 1.0),
    )
    if equation == "E2" and initial.which == "double":
        # E2 has no double profile: that draw stands for the unset one
        initial = replace(initial, which="")
    symmetry = None
    if kind == "large_scale" or rng.random() < 0.5:
        symmetry = SymmetryElement(theta=rng.uniform(-7.0, 7.0), h=rng.uniform(0.1, 4.0),
                                   t0=rng.uniform(-1.0, 1.0), x0=_draw_vector(rng, d),
                                   xi=_draw_vector(rng, d))
    localized = equation == "E1" and rng.random() < 0.5
    n = rng.choice((8, 64, 256, 1024, 8192))
    return ExperimentConfig(
        model=model,
        n_per_axis=n,
        half_width=half_width,
        # the edge band at both ends must leave an interior
        stepper=replace(stepper, edge_cells=min(stepper.edge_cells, n // 2 - 1)),
        initial=initial,
        symmetry=symmetry,
        directory=rng.choice(("", "runs/a", "runs/with space")),
        classify_data=rng.random() < 0.5,
        virial_radius=rng.uniform(0.1, half_width / 2.0) if localized else 0.0,
        whole_space_virial=equation == "E2" and rng.random() < 0.5,
    )


def test_serialize_round_trips_drawn_configs(tmp_path):
    data_file = tmp_path / "u0.nlsf"
    data_file.write_bytes(b"")
    rng = random.Random(20191)
    seen = set()
    for _ in range(240):
        cfg = _draw_config(rng, data_file)
        canon = serialize_config(cfg)
        again = parse_config(canon)
        assert again == cfg, canon
        assert serialize_config(again) == canon
        seen |= {("kind", cfg.initial.kind), ("symmetry", cfg.symmetry is not None),
                 ("classify", cfg.classify_data), ("localized", cfg.virial_radius > 0),
                 ("whole_space", cfg.whole_space_virial), ("directory", cfg.directory),
                 ("which", cfg.initial.which)}
        if cfg.symmetry is not None:
            seen |= {("x0", len(cfg.symmetry.x0)), ("xi", len(cfg.symmetry.xi))}
    flags = ("symmetry", "classify", "localized", "whole_space")
    assert {("kind", kind) for kind in DATA_KINDS} <= seen
    assert {(flag, value) for flag in flags for value in (True, False)} <= seen
    assert {("directory", ""), ("which", ""), ("x0", 0), ("xi", 0), ("x0", 2)} <= seen


def _fit(cfg: ExperimentConfig, data_file) -> ExperimentConfig:
    """A drawn cfg on a box that holds its initial data and a lattice that
    holds its spectrum, marching at most 200 steps; a file datum, a unit
    Gaussian, is written onto that box."""
    init, sym, omega = cfg.initial, cfg.symmetry, cfg.model.omega
    # about where the datum falls below 1e-16 of its peak, and the
    # wavenumber where its spectrum does
    extent, top = {
        "gaussian": (6.0 * init.width, 12.0 / init.width),
        "large_scale": (6.0 * init.width, 12.0 / init.width),
        "sech": (37.0 / (init.rate * init.exponent), 24.0 * init.rate),
        "scaled_ground_state": (37.0 / math.sqrt(omega), 24.0 * math.sqrt(omega)),
        "random_smooth": (20.0 / init.k_width, 9.0 * init.k_width),
        "file": (6.0, 12.0),
    }[init.kind]
    if init.kind not in ("random_smooth", "file"):
        top += abs(init.wavenumber)
    if sym is not None:
        # the datum is built on the box, then scaled, moved and boosted
        moved = sym.h * extent + 2.0 * abs(sym.t0) * top / sym.h
        extent = max(extent, moved + max(map(abs, sym.x0), default=0.0))
        top = max(top, top / sym.h + max(map(abs, sym.xi), default=0.0))
    # the edge band, at most 1/64 of an axis, lies outside the datum
    half_width = 1.25 * extent / (1.0 - 1.0 / 32.0)
    # the spectral tail is the top third of each axis's wavenumbers
    n = 2 ** math.ceil(math.log2(max(3.0 * half_width * top / math.pi, 64.0)))
    n = min(n, 2048 if cfg.model.d == 1 else 128)
    stepper = replace(cfg.stepper, t_final=min(cfg.stepper.t_final, 200 * cfg.stepper.dt),
                      edge_cells=min(cfg.stepper.edge_cells, n // 64))
    fitted = replace(cfg, n_per_axis=n, half_width=half_width, stepper=stepper,
                     virial_radius=cfg.virial_radius * half_width / cfg.half_width)
    if init.kind == "file":
        save_field(data_file, field_from_function(
            fitted.grid(), lambda *x: np.exp(-sum(c**2 for c in x)) + 0j))
    return fitted


def _strict(text):
    """json.loads refusing NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _files(run_dir) -> dict:
    """Every file of a run directory; a summary parsed, without its timing."""
    files = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    if "summary.json" in files:
        files["summary.json"] = _strict(files["summary.json"])
        del files["summary.json"]["timing"]
    return files


def test_drawn_configs_run_end_to_end(tmp_path, capsys):
    data_file = tmp_path / "u0.nlsf"
    data_file.write_bytes(b"")
    rng = random.Random(1)
    stale = b"left by an earlier run"
    draws, marched = 16, 0
    for i in range(draws):
        cfg = _fit(_draw_config(rng, data_file), data_file)
        path = tmp_path / f"{i}.ini"
        path.write_text(serialize_config(cfg))
        out = tmp_path / f"run{i}"
        out.mkdir()
        for name in experiment._ARTIFACTS:
            (out / name).write_bytes(stale)
        runs = []
        for _ in range(2):
            code = main(["evolve", "--config", str(path), "--out", str(out)])
            runs.append((code, capsys.readouterr().out, _files(out)))
        # a rerun over the first run writes its bytes again, timing aside
        assert runs[1] == runs[0], i
        code, line, files = runs[0]
        assert stale not in files.values(), i
        assert line.startswith(f"{out}: ") and line.count("\n") == 1, line
        cause = line.removeprefix(f"{out}: ").strip()
        if "summary.json" in files:
            marched += 1
            assert cause == files["summary.json"]["outcome"]
            assert code == (0 if cause == "completed" else 3)
        else:
            # stopped before its march, by a named error
            assert (code, cause.split(": ")[0]) in ((2, "config error"), (3, "error")), line
            assert len(cause.split(": ")) >= 3, line
    assert 2 * marched >= draws, marched


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE)
    assert load_config(path) == parse_config(BASE)


# -- initial data kinds -------------------------------------------------------

def test_gaussian_recipe_matches_the_closed_form():
    cfg = parse_config(BASE.replace("amplitude = 0.8",
                                    "amplitude = 0.8\nwidth = 2.0\nwavenumber = 1.2"))
    u0, notes = build_initial_field(cfg)
    grid = cfg.grid()
    want = field_from_function(
        grid, lambda x: 0.8 * np.exp(-(x**2) / 4.0) * np.exp(1.2j * x)
    )
    assert np.max(np.abs(u0.values - want.values)) < 1e-15
    assert notes["kind"] == "gaussian"
    assert notes["mass"] == pytest.approx(mass(u0))


def test_sech_recipe_matches_the_closed_form():
    text = BASE.replace(
        "kind = gaussian\namplitude = 0.8",
        "kind = sech\namplitude = 1.3\nrate = 3.0\nexponent = 0.5",
    )
    cfg = parse_config(text)
    u0, _ = build_initial_field(cfg)
    x = cfg.grid().axis
    want = 1.3 / np.cosh(3.0 * np.abs(x)) ** 0.5
    assert np.max(np.abs(u0.values - want)) < 1e-12


def test_scaled_ground_state_defaults_to_the_double_profile(double_gs):
    text = BASE.replace("kind = gaussian\namplitude = 0.8",
                        "kind = scaled_ground_state\nc = 0.5")
    cfg = parse_config(text)
    u0, notes = build_initial_field(cfg)
    assert notes["which"] == "double"
    assert notes["ground_state_amplitude"] == pytest.approx(double_gs.amplitude)
    assert np.max(np.abs(u0.values)) == pytest.approx(0.5 * double_gs.amplitude,
                                                      rel=1e-9)


def test_single_power_data_without_power_uses_the_models_p():
    text = BASE.replace("kind = gaussian\namplitude = 0.8",
                        "kind = scaled_ground_state\nwhich = single_power\nc = 0.5")
    cfg = parse_config(text)
    u0, notes = build_initial_field(cfg)
    gs = solve_ground_state(cfg.model, which="single_power")
    assert notes["ground_state_amplitude"] == gs.amplitude
    assert np.max(np.abs(u0.values)) == pytest.approx(0.5 * gs.amplitude, rel=1e-9)


def test_random_smooth_is_seed_deterministic():
    text = BASE.replace("kind = gaussian\namplitude = 0.8",
                        "kind = random_smooth\nseed = 42\nk_width = 1.5")
    u0, notes = build_initial_field(parse_config(text))
    again, _ = build_initial_field(parse_config(text))
    assert np.array_equal(u0.values, again.values)
    assert notes["seed"] == 42


def test_file_recipe_round_trips_and_checks_the_grid(tmp_path):
    grid = GridSpec(d=1, n_per_axis=256, half_width=15.0)
    f = field_from_function(grid, lambda x: np.exp(-(x**2)) * np.exp(0.3j * x))
    path = tmp_path / "u0.nlsf"
    save_field(path, f)

    text = BASE.replace("kind = gaussian\namplitude = 0.8",
                        f"kind = file\npath = {path}")
    u0, _ = build_initial_field(parse_config(text))
    assert np.array_equal(u0.values, f.values)

    wrong = text.replace("n_per_axis = 256", "n_per_axis = 512")
    with pytest.raises(ConfigError, match="does not match config grid"):
        build_initial_field(parse_config(wrong))


def test_mass_target_rescales_exactly():
    cfg = parse_config(BASE + "mass_target = 2.0\n")
    u0, notes = build_initial_field(cfg)
    assert mass(u0) == pytest.approx(2.0, rel=1e-12)
    assert "mass_rescale_factor" in notes


def test_critical_mass_fraction_uses_the_critical_ground_state(quintic_gs):
    text = BASE.replace("equation = E1", "equation = E2").replace(
        "p = 7.0", "p = 7.0"
    ) + "critical_mass_fraction = 0.8\n"
    cfg = parse_config(text)
    u0, notes = build_initial_field(cfg)
    assert mass(u0) == pytest.approx(0.8 * quintic_gs.mass, rel=1e-9)
    assert notes["critical_mass"] == pytest.approx(quintic_gs.mass, rel=1e-9)


def test_build_initial_field_excludes_the_symmetry_element():
    from nlslab.functionals import momentum

    text = _with(symmetry="xi = 0.4188790204786391\n")
    u0, _ = build_initial_field(parse_config(text))
    assert abs(momentum(u0)[0]) < 1e-12



def _grid_arrays(grid):
    """Every array a grid holds in its instance dict, tuples and dicts opened."""
    for v in vars(grid).values():
        for item in v if isinstance(v, tuple) else v.values() if isinstance(v, dict) else (v,):
            if isinstance(item, np.ndarray):
                yield item


@pytest.mark.parametrize("n", [64, 128])
def test_coordinate_consumers_on_axis_vectors_match_meshes_bitwise(n, townes_gs):
    # each datum and table the grid's broadcast axis vectors feed equals,
    # bit for bit, its expression on full np.meshgrid meshes; at 128^2 a
    # complex field is 256 KiB, where numpy starts to elide temporaries
    model = ModelParams(d=2, p=4.0, omega=1.0, equation="E2")
    stepper = StepperConfig(dt=1e-3, t_final=0.01)
    grid = GridSpec(d=2, n_per_axis=n, half_width=12.0)
    x, y = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    kx, ky = np.meshgrid(grid.frequencies, grid.frequencies, indexing="ij")
    assert [c.shape for c in grid.coords] == [c.shape for c in grid.k_coords] == [(n, 1), (n,)]
    grids = [grid]

    def built(**initial):
        u0, _ = build_initial_field(ExperimentConfig(
            model, n, 12.0, stepper, InitialData(**initial)))
        grids.append(u0.grid)
        return u0.values.tobytes()

    mesh_r = np.sqrt(sum(c**2 for c in (x, y)))
    assert built(kind="gaussian", amplitude=0.8, width=2.0, wavenumber=1.2) == np.asarray(
        0.8 * np.exp(-sum(c**2 for c in (x, y)) / 2.0**2) * np.exp(1.2j * x),
        dtype=np.complex128).tobytes()
    assert built(kind="sech", amplitude=1.3, rate=3.0, exponent=0.5, wavenumber=-0.7) == np.asarray(
        1.3 * experiment._sech(3.0 * mesh_r) ** 0.5 * np.exp(-0.7j * x),
        dtype=np.complex128).tobytes()
    base = ground_state_field(townes_gs, grid).values
    for c, k0 in ((-1.3, 0.6), (-1.3, 0.0), (0.9, 0.5)):
        want = c * base * np.exp(1j * k0 * x)
        assert built(kind="scaled_ground_state", c=c, wavenumber=k0) == want.tobytes()

    f = field_from_function(grid, lambda x, y: np.exp(-(x**2 + 2.0 * y**2) / 4.0))
    # fn of x alone is broadcast along y
    assert np.array_equal(field_from_function(grid, lambda x, y: x).values, x)
    dk = math.pi / grid.half_width
    xi = (3.0 * dk, -5.0 * dk)
    phase = sum(m * c for m, c in zip((x, y), xi))
    assert (apply_symmetry(f, SymmetryElement(xi=xi)).values.tobytes()
            == np.multiply(f.values, np.exp(1j * phase)).tobytes())
    shift = (0.37, -1.1)
    sym = np.exp(-1j * sum(k * c for k, c in zip((kx, ky), shift)))
    assert (spectral_translate(f, shift).values.tobytes()
            == apply_multiplier(f, FourierMultiplier(grid, sym)).values.tobytes())
    w = VirialWeight(grid, 4.0)
    safe = np.where(grid.radius > 0, grid.radius, 1.0)
    for got, mesh in zip(w.unit_radial, (x, y)):
        assert got.tobytes() == np.where(grid.radius > 0, mesh / safe, 0.0).tobytes()

    # no grid keeps a coordinate mesh
    for g in grids:
        for arr in _grid_arrays(g):
            assert not any(arr.shape == m.shape and np.array_equal(arr, m)
                           for m in (x, y, kx, ky))


# -- running ------------------------------------------------------------------

def _quick_cfg(tmp_path, extra_outputs="", initial=None, stepper=None):
    text = BASE
    if initial is not None:
        text = text.replace("kind = gaussian\namplitude = 0.8", initial)
    if stepper is not None:
        text = text.replace("dt = 1e-3\nt_final = 0.02\nsnapshot_every = 5", stepper)
    text = _with(text, outputs=f"directory = {tmp_path}/run\n{extra_outputs}")
    return parse_config(text)


def test_run_directory_layout_and_summary(tmp_path):
    cfg = _quick_cfg(tmp_path, extra_outputs="virial_radius = 6.0")
    out = run_experiment(cfg)
    for name in ("u0.nlsf", "final.nlsf", "trajectory.csv", "groundstate.csv",
                 "config.ini", "summary.json"):
        assert (out / name).is_file()

    summary = json.loads((out / "summary.json").read_text())
    assert summary["format"] == 1
    assert summary["outcome"] == "completed"
    assert summary["model"]["equation"] == "E1"
    assert summary["verdict"]["set_label"] in (
        "A_plus", "A_minus", "above_threshold", "indeterminate"
    )
    assert summary["virial"]["mode"] == "localized"
    assert summary["virial"]["max_identity_residual"] < 1e-8
    assert summary["snapshots_recorded"] >= 2
    assert summary["scattering_proxy"] is not None

    header = (out / "trajectory.csv").read_text().splitlines()[0]
    for col in ("t", "mass", "tail_fraction", "V_double_prime", "remainder"):
        assert col in header
    gs_header = (out / "groundstate.csv").read_text().splitlines()[0]
    assert gs_header == "r,profile,derivative"
    assert parse_config((out / "config.ini").read_text()) == cfg


def test_summary_records_the_nudged_dt_and_the_step_count(tmp_path):
    cfg = _quick_cfg(tmp_path, extra_outputs="classify = false",
                     stepper="dt = 3e-3\nt_final = 0.01\nsnapshot_every = 1")
    stepper = json.loads((run_experiment(cfg) / "summary.json").read_text())["stepper"]
    assert stepper["dt"] == 3e-3
    assert stepper["n_steps"] == 3
    assert stepper["dt_used"] == 0.01 / 3


def test_summary_echoes_the_schema_sections(tmp_path):
    cfg = _quick_cfg(tmp_path, extra_outputs="classify = false")
    summary = json.loads((run_experiment(cfg) / "summary.json").read_text())
    for section, extra in (("model", set()), ("grid", set()),
                           ("stepper", {"dt_used", "n_steps"})):
        keys = {key for key, _ in _SCHEMA[section].keys}
        assert set(summary[section]) == keys | extra


def test_summary_timing_counts_the_runs_own_solves(tmp_path):
    groundstate._solve_cached.cache_clear()
    try:
        initial = "kind = scaled_ground_state\nc = 0.5"
        timings = []
        for name in ("cold", "warm"):
            out = run_experiment(_quick_cfg(tmp_path / name, initial=initial))
            timings.append(json.loads((out / "summary.json").read_text())["timing"])
        gs = solve_ground_state(ModelParams(d=1, p=7.0, omega=1.0, equation="E1"))
    finally:
        groundstate._solve_cached.cache_clear()
    cold, warm = timings
    # the initial data and the verdict share one solve; the rerun hits the cache
    assert (cold["groundstate.solves"], cold["groundstate.shots"]) == (1, gs.shots)
    assert 0.0 < cold["groundstate.solve_s"] < cold["wall_seconds"]
    assert (warm["groundstate.solves"], warm["groundstate.shots"]) == (0, 0)
    assert warm["groundstate.solve_s"] == 0.0


def _reference_groundstate_csv(gs) -> bytes:
    # reference: every row formatted in one pass, no chunks and no cache
    rows = zip(gs.r.tolist(), gs.profile.tolist(), gs.derivative.tolist())
    text = "r,profile,derivative\n" + "".join(f"{r!r},{q!r},{v!r}\n" for r, q, v in rows)
    return text.encode()


@pytest.mark.parametrize("mp, which", [
    (ModelParams(d=1, p=7.0, omega=1.0, equation="E1"), "double"),
    (ModelParams(d=2, p=4.0, omega=1.0, equation="E2"), "mass_critical"),
], ids=["1d_double", "2d_mass_critical"])
def test_groundstate_csv_bytes_match_the_row_by_row_writer(tmp_path, mp, which):
    gs = solve_ground_state(mp, which=which)
    want = _reference_groundstate_csv(gs)
    chunks = gs._csv_chunks
    assert chunks is gs._csv_chunks
    assert len(chunks) == 1 + -(-len(gs.r) // groundstate._CSV_ROWS)
    assert b"".join(chunks) == want
    _write_groundstate(tmp_path / "groundstate.csv", gs)
    assert (tmp_path / "groundstate.csv").read_bytes() == want


def test_runs_sharing_a_solution_format_its_csv_once(tmp_path, monkeypatch):
    formatted = []
    format_rows = groundstate._csv_rows

    def counting(*args):
        formatted.append(len(args[0]))
        return format_rows(*args)

    monkeypatch.setattr(groundstate, "_csv_rows", counting)
    groundstate._solve_cached.cache_clear()
    try:
        first = run_experiment(_quick_cfg(tmp_path / "first"))
        after_first = len(formatted)
        second = run_experiment(_quick_cfg(tmp_path / "second"))
        gs = solve_ground_state(ModelParams(d=1, p=7.0, omega=1.0, equation="E1"))
    finally:
        groundstate._solve_cached.cache_clear()
    # the first run formats every row once; the second writes the kept bytes
    assert sum(formatted) == len(gs.r) and len(formatted) == after_first
    text = (first / "groundstate.csv").read_bytes()
    assert text == (second / "groundstate.csv").read_bytes()
    assert text == _reference_groundstate_csv(gs)


def test_runs_are_deterministic_apart_from_timing(tmp_path):
    initial = "kind = random_smooth\nseed = 9\nk_width = 1.2\namplitude = 0.3"
    cfg_a = _quick_cfg(tmp_path / "a", extra_outputs="classify = false",
                       initial=initial)
    cfg_b = _quick_cfg(tmp_path / "b", extra_outputs="classify = false",
                       initial=initial)
    out_a = run_experiment(cfg_a)
    out_b = run_experiment(cfg_b)

    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("timing"), sb.pop("timing")
    assert sa == sb
    assert (out_a / "u0.nlsf").read_bytes() == (out_b / "u0.nlsf").read_bytes()
    assert (out_a / "final.nlsf").read_bytes() == (out_b / "final.nlsf").read_bytes()
    assert (out_a / "trajectory.csv").read_text() == (out_b / "trajectory.csv").read_text()


def test_unscaled_standing_wave_reports_its_stationarity(tmp_path):
    cfg = _quick_cfg(
        tmp_path,
        extra_outputs="classify = false",
        initial="kind = scaled_ground_state\nc = 1.0",
        stepper="dt = 1e-4\nt_final = 0.05\nsnapshot_every = 100\ncheckpoint_every = 100",
    )
    cfg = parse_config(serialize_config(cfg).replace("n_per_axis = 256",
                                                     "n_per_axis = 512"))
    out = run_experiment(cfg, tmp_path / "standing")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stationarity_residual"] is not None
    assert summary["stationarity_residual"] < 1e-6


def test_scaled_runs_do_not_report_stationarity(tmp_path):
    cfg = _quick_cfg(tmp_path, extra_outputs="classify = false",
                     initial="kind = scaled_ground_state\nc = 0.5")
    summary = json.loads((run_experiment(cfg) / "summary.json").read_text())
    assert summary["stationarity_residual"] is None


@pytest.mark.parametrize("model, initial", [
    ("E1", "kind = scaled_ground_state\nc = 1.0\nwavenumber = 2.0"),
    ("E1", "kind = scaled_ground_state\nc = 1.0\nmass_target = 3.0"),
    ("E2", "kind = scaled_ground_state\nc = 1.0"),
], ids=["boosted", "mass_rescaled", "e2_mass_critical_profile"])
def test_data_that_is_not_the_models_standing_wave_reports_no_stationarity(
        tmp_path, model, initial):
    cfg = _quick_cfg(
        tmp_path,
        extra_outputs="classify = false",
        initial=initial,
        stepper="dt = 1e-4\nt_final = 0.05\nsnapshot_every = 100\ncheckpoint_every = 100",
    )
    text = serialize_config(cfg).replace("n_per_axis = 256", "n_per_axis = 1024")
    cfg = parse_config(text.replace("equation = E1", f"equation = {model}"))
    summary = json.loads((run_experiment(cfg) / "summary.json").read_text())
    assert summary["outcome"] == "completed"
    assert summary["stationarity_residual"] is None


_TOWNES_64 = """
[model]
d = 2
p = 4.0
omega = 1.0
equation = E2

[grid]
n_per_axis = 64
half_width = 12.0

[stepper]
dt = 1e-3
t_final = 0.06
snapshot_every = 4
checkpoint_every = 5
tail_fraction_max = 1e-3
edge_mass_max = 1e-6

[initial_data]
kind = scaled_ground_state
c = 0.9
"""


def test_a_run_holds_only_the_fields_it_reads(tmp_path, monkeypatch):
    logs = []

    def keeping(u0s, *args, **kwargs):
        stack = evolve_stack(u0s, *args, **kwargs)
        logs.extend(zip(u0s, stack))
        return stack

    monkeypatch.setattr(experiment, "evolve_stack", keeping)
    cfg = parse_config(_with(_TOWNES_64, outputs=f"directory = {tmp_path}/run\n"
                                                 "whole_space_virial = true"))
    summary = json.loads((run_experiment(cfg) / "summary.json").read_text())
    (u0, log), = logs
    full = evolve(u0, cfg.model, cfg.stepper)
    assert full.outcome == log.outcome == "completed"

    # u0 itself, the checkpoints from step 45 (t >= 0.045) on, and the final state
    steps = [round(t / full.dt_used) for t, _ in log.checkpoints]
    assert steps == [0, 45, 50, 55, 60]
    assert log.checkpoints[0][1] is u0
    assert len(full.checkpoints) == 13
    kept = dict(full.checkpoints)
    for t, f in log.checkpoints:
        assert np.array_equal(f.values, kept[t].values)
    assert summary["scattering_proxy"] == asdict(scattering_proxy(full))
    assert summary["scattering_proxy"]["cauchy_distance"] is not None


def test_rerun_without_classify_leaves_no_groundstate_behind(tmp_path):
    first = run_experiment(_quick_cfg(tmp_path))
    assert (first / "groundstate.csv").is_file()
    again = run_experiment(_quick_cfg(tmp_path, extra_outputs="classify = false"))
    assert again == first
    assert json.loads((again / "summary.json").read_text())["verdict"] is None
    assert not (again / "groundstate.csv").exists()


def test_failed_rerun_leaves_no_earlier_artifacts(tmp_path):
    out = run_experiment(_quick_cfg(tmp_path))
    wide = _quick_cfg(tmp_path, initial="kind = gaussian\namplitude = 0.8\nwidth = 10.0")
    with pytest.raises(ValueError, match="edge-decay precondition"):
        run_experiment(wide)
    assert sorted(path.name for path in out.iterdir()) == []


def test_a_job_claiming_an_earlier_jobs_directory_is_refused_alone(tmp_path):
    first = _quick_cfg(tmp_path, extra_outputs="classify = false")
    second = _quick_cfg(tmp_path, initial="kind = gaussian\namplitude = 0.6",
                        extra_outputs="classify = false")
    out, again = tmp_path / "X", tmp_path / "sub" / ".." / "X"
    # the same directory spelled another way is the same claim
    ran, refused = experiment.run_experiments([(first, out), (second, again)])
    assert ran == out
    assert isinstance(refused, ConfigError)
    assert str(refused) == f"job 0 and job 1 both write to {again}"
    assert (out / "config.ini").read_text() == serialize_config(first)
    with pytest.raises(ConfigError, match="job 0: outputs.directory: no output directory"):
        run_experiment(replace(first, directory=""))


def test_saved_initial_field_reflects_the_symmetry_element(tmp_path):
    text = _with(BASE.replace("t_final = 0.02", "t_final = 0.004"),
                 symmetry="xi = 0.4188790204786391\n",
                 outputs=f"directory = {tmp_path}/boosted\nclassify = false")
    cfg = parse_config(text)
    out = run_experiment(cfg)
    from nlslab.functionals import momentum

    u0 = load_field(out / "u0.nlsf")
    assert momentum(u0)[0] == pytest.approx(0.4188790204786391 * mass(u0), rel=1e-9)


def test_amplitude_sweep_crosses_k_zero_exactly_once(double_gs):
    signs = []
    mp = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
    for c in (0.6, 0.8, 0.95, 1.05, 1.2, 1.4):
        text = BASE.replace("kind = gaussian\namplitude = 0.8",
                            f"kind = scaled_ground_state\nc = {c}")
        u0, _ = build_initial_field(parse_config(text))
        signs.append(action_K_H(u0, mp).k_value > 0)
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert signs[0] and not signs[-1]
    assert flips == 1


# -- reporting ----------------------------------------------------------------

def test_report_aggregates_and_lists_skips(tmp_path):
    cfg = _quick_cfg(tmp_path / "good",
                     initial="kind = scaled_ground_state\nc = 0.5")
    good = run_experiment(cfg)
    bogus = tmp_path / "bogus"
    bogus.mkdir()
    # valid JSON but not a run summary, and a summary that is not UTF-8
    foreign = []
    for name, data in (("list", b"[]\n"), ("null_model", b'{"model": null}\n'),
                       ("not_utf8", b"\xff\xfe{")):
        foreign.append(tmp_path / name)
        foreign[-1].mkdir()
        (foreign[-1] / "summary.json").write_bytes(data)

    rep = emit_report([good, bogus, *foreign], tmp_path / "report")
    assert len(rep["rows"]) == 1
    assert [s["directory"] for s in rep["skipped"]] == [str(d) for d in (bogus, *foreign)]

    row = rep["rows"][0]
    assert row["set_label"] == "A_plus"
    assert row["prediction"] == "global_scattering"
    assert row["outcome"] == "completed"
    assert row["agreement"] in ("yes", "no")

    csv_lines = rep["csv"].read_text().splitlines()
    assert csv_lines[0].startswith("run,equation,d,p,omega,kind,set_label")
    assert len(csv_lines) == 2
    md = rep["markdown"].read_text()
    assert "Skipped directories" in md
    assert all(str(d) in md for d in (bogus, *foreign))


def test_report_csv_keeps_a_comma_in_a_run_name_in_its_cell(tmp_path):
    run = run_experiment(_quick_cfg(tmp_path, extra_outputs="classify = false"),
                         tmp_path / "a,b")
    rep = emit_report([run], tmp_path / "report")
    with rep["csv"].open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [len(row) for row in rows] == [len(header)] == [17]
    cells = dict(zip(header, rows[0]))
    assert (cells["run"], cells["outcome"]) == ("a,b", "completed")


def test_report_with_no_runs_is_just_a_header(tmp_path):
    rep = emit_report([], tmp_path / "empty")
    assert rep["rows"] == [] and rep["skipped"] == []
    assert len(rep["csv"].read_text().splitlines()) == 1
