"""Config parsing, initial-data construction, run artifacts, reporting."""

import json
import math

import numpy as np
import pytest

from nlslab.experiment import (
    ConfigError,
    build_initial_field,
    emit_report,
    load_config,
    parse_config,
    parse_model,
    run_experiment,
    serialize_config,
)
from nlslab.fieldio import load_field, save_field
from nlslab.functionals import ModelParams, action_K_H, mass
from nlslab.groundstate import solve_ground_state
from nlslab.spectral import GridSpec, field_from_function

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
])
def test_errors_name_the_offending_key(mutation, pattern):
    old, new = mutation
    with pytest.raises(ConfigError, match=pattern):
        parse_config(BASE.replace(old, new))


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


def test_whole_space_virial_is_tied_to_the_single_sign_equation():
    with pytest.raises(ConfigError, match="E2 only"):
        parse_config(_with(outputs="whole_space_virial = yes"))


def test_weight_support_must_fit_in_the_box():
    with pytest.raises(ConfigError, match="exceeds half_width"):
        parse_config(_with(outputs="virial_radius = 9.0"))


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


# -- serialization round trip -------------------------------------------------

def test_serialize_then_parse_is_the_identity():
    text = _with(symmetry="theta = 0.3\nxi = 0.2094395102393195\n",
                 outputs="directory = runs/demo\nvirial_radius = 6.0")
    cfg = parse_config(text)
    canon = serialize_config(cfg)
    again = parse_config(canon)
    assert again == cfg
    assert serialize_config(again) == canon


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

    rep = emit_report([good, bogus], tmp_path / "report")
    assert len(rep["rows"]) == 1
    assert len(rep["skipped"]) == 1
    assert rep["skipped"][0]["directory"] == str(bogus)

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
    assert str(bogus) in md


def test_report_with_no_runs_is_just_a_header(tmp_path):
    rep = emit_report([], tmp_path / "empty")
    assert rep["rows"] == [] and rep["skipped"] == []
    assert len(rep["csv"].read_text().splitlines()) == 1
