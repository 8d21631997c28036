"""Command-line behavior: artifacts, exit codes, thread plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab.cli import main
from nlslab.experiment import load_config, plan_stacks

MODEL = """
[model]
d = 1
p = 7.0
omega = 1.0
equation = E1
"""

QUICK = MODEL + """
[grid]
n_per_axis = 256
half_width = 15.0

[stepper]
dt = 1e-3
t_final = 0.004
snapshot_every = 2

[initial_data]
kind = gaussian
amplitude = 0.8

[outputs]
classify = false
"""

BLOWUP = MODEL + """
[grid]
n_per_axis = 1024
half_width = 15.0

[stepper]
dt = 1e-5
t_final = 0.05
snapshot_every = 25
blowup_grad_factor = 10.0
tail_fraction_max = 1e-3
edge_mass_max = 1e-8

[initial_data]
kind = scaled_ground_state
c = 1.3

[outputs]
classify = false
"""

# a Gaussian this wide breaks evolve's edge-decay precondition on the QUICK box
WIDE = "amplitude = 0.8\nwidth = 10.0"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 6
    assert "FAIL" not in out


def test_groundstate_writes_profile_and_metadata(tmp_path, capsys, double_gs):
    cfg = _write(tmp_path, "model.ini",
                 MODEL + "\n[groundstate]\nwhich = double\n")
    assert main(["groundstate", "--config", cfg, "--out", str(tmp_path / "gs")]) == 0
    assert "amplitude" in capsys.readouterr().out

    csv = tmp_path / "gs" / "model.groundstate.csv"
    meta = json.loads((tmp_path / "gs" / "model.groundstate.json").read_text())
    header, *rows = csv.read_text().splitlines()
    assert header == "r,profile,derivative"
    cols = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert cols.shape == (len(double_gs.r), 3)
    assert np.array_equal(cols[:, 0], double_gs.r)
    assert np.array_equal(cols[:, 1], double_gs.profile)
    assert np.array_equal(cols[:, 2], double_gs.derivative)
    assert meta["which"] == "double"
    assert meta["amplitude"] == pytest.approx(double_gs.amplitude, rel=1e-12)
    assert meta["m_omega"] == pytest.approx(double_gs.m_omega, rel=1e-12)
    assert len(meta["digest"]) == 64


_E2_2D_RUN = """
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
t_final = 0.002
snapshot_every = 1
edge_mass_max = 1e-6
tail_fraction_max = 1e-3

[initial_data]
kind = scaled_ground_state
c = 0.9
"""


@pytest.mark.parametrize("text, which", [
    (QUICK.replace("classify = false", "classify = true"), "double"),
    (_E2_2D_RUN, "mass_critical"),
], ids=["e1", "e2"])
def test_groundstate_writes_the_profile_a_run_classifies_against(tmp_path, text, which):
    cfg = _write(tmp_path, "model.ini", text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["groundstate", "--config", cfg, "--out", str(tmp_path / "gs")]) == 0
    meta = json.loads((tmp_path / "gs" / "model.groundstate.json").read_text())
    assert meta["which"] == which
    written = (tmp_path / "gs" / "model.groundstate.csv").read_bytes()
    assert written == (tmp_path / "run" / "groundstate.csv").read_bytes()


def test_classify_prints_and_writes_the_verdict(tmp_path, capsys):
    cfg = _write(tmp_path, "small.ini",
                 QUICK.replace("kind = gaussian\namplitude = 0.8",
                               "kind = scaled_ground_state\nc = 0.5"))
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads((tmp_path / "v" / "small.verdict.json").read_text())
    assert printed == saved
    assert saved["set_label"] == "A_plus"
    assert saved["prediction"] == "global_scattering"


def test_evolve_single_config_uses_out_directly(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", QUICK)
    out = tmp_path / "single"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "summary.json").is_file()
    assert "completed" in capsys.readouterr().out


def test_evolve_many_configs_get_stem_subdirectories(tmp_path):
    a = _write(tmp_path, "a.ini", QUICK)
    b = _write(tmp_path, "b.ini",
               QUICK.replace("amplitude = 0.8", "amplitude = 0.6"))
    out = tmp_path / "sweep"
    assert main(["evolve", "--config", a, "--config", b, "--out", str(out)]) == 0
    for stem in ("a", "b"):
        assert (out / stem / "summary.json").is_file()


def test_evolve_reports_an_aborted_run_with_exit_three(tmp_path, capsys):
    cfg = _write(tmp_path, "burst.ini", BLOWUP)
    out = tmp_path / "burst"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    assert "blowup_detected" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outcome"] == "blowup_detected"
    assert summary["abort_time"] == pytest.approx(0.02225, abs=1e-3)


def test_invalid_config_exits_two_with_attribution(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", QUICK.replace("p = 7.0", "p = 3.0"))
    assert main(["evolve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "model" in err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "typo.ini", QUICK.replace("snapshot_every", "snapshot_evry"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "typo")]) == 2
    assert "stepper.snapshot_evry: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()


GAUSSIAN = "kind = gaussian\namplitude = 0.8"


@pytest.mark.parametrize("command, text, key", [
    ("evolve", QUICK.replace(GAUSSIAN, "kind = scaled_ground_state\nwhich = doubel"),
     "initial_data.which"),
    ("evolve", QUICK.replace(GAUSSIAN, "kind = scaled_ground_state\n"
                                       "which = single_power\npower = 0.5"),
     "initial_data.power"),
    ("evolve", QUICK.replace(GAUSSIAN, "kind = large_scale\ntheta = 1.5")
     + "\n[symmetry]\nh = 0.5\n", "initial_data.theta"),
    ("evolve", QUICK.replace(GAUSSIAN, "kind = random_smooth\nk_width = 0"),
     "initial_data.k_width"),
    ("evolve", QUICK + "\n[symmetry]\nx0 = 1.0, 2.0\n", "symmetry.x0"),
    ("groundstate", MODEL + "\n[groundstate]\nwhich = doubel\n", "groundstate.which"),
    ("groundstate", MODEL + "\n[groundstate]\nstep = -0.001\n", "groundstate.step"),
    ("groundstate", MODEL + "\n[groundstate]\nr_max = -30\n", "groundstate.r_max"),
], ids=["which", "power", "theta", "k_width", "x0", "groundstate_which", "groundstate_step",
        "groundstate_r_max"])
def test_values_a_run_would_reject_exit_two_at_parse_time(tmp_path, capsys, command, text,
                                                          key):
    cfg = _write(tmp_path, "bad.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_failed_rerun_leaves_no_summary_to_report(tmp_path, capsys):
    good = _write(tmp_path, "run.ini", QUICK)
    wide = _write(tmp_path, "wide.ini", QUICK.replace("amplitude = 0.8", WIDE))
    rdir = tmp_path / "D"
    assert main(["evolve", "--config", good, "--out", str(rdir)]) == 0
    assert main(["evolve", "--config", wide, "--out", str(rdir)]) == 3
    captured = capsys.readouterr()
    assert "edge-decay precondition" in captured.out + captured.err
    assert main(["report", str(rdir), "--out", str(tmp_path / "rep")]) == 0
    assert "0 runs, 1 skipped" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_evolve_reports_every_job_when_one_fails(tmp_path, capsys, threads):
    stems = {"a": QUICK, "b": QUICK.replace("amplitude = 0.8", WIDE), "c": QUICK}
    argv = ["evolve", "--out", str(tmp_path / "X"), "--threads", threads]
    for stem, text in stems.items():
        argv += ["--config", _write(tmp_path, f"{stem}.ini", text)]
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{tmp_path / 'X' / 'a'}: completed"
    assert lines[1].startswith(f"{tmp_path / 'X' / 'b'}: error: ValueError: initial data "
                               "violates the edge-decay precondition")
    assert lines[2] == f"{tmp_path / 'X' / 'c'}: completed"
    assert (tmp_path / "X" / "c" / "summary.json").is_file()
    assert not (tmp_path / "X" / "b" / "summary.json").exists()


def _artifacts(run_dir: Path) -> dict:
    """Every file of a run directory, the summary without its timing block."""
    out = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            del summary["timing"]
            data = json.dumps(summary, sort_keys=True).encode()
        out[path.name] = data
    return out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stacked_runs_write_what_lone_runs_write(tmp_path, capsys, threads):
    # a0/a1/d share a grid and a stepper, so do b0/b1; c is alone on its grid
    stems = {
        "a0": QUICK,
        "b0": BLOWUP,
        "c": QUICK.replace("n_per_axis = 256", "n_per_axis = 512"),
        "d": QUICK.replace("amplitude = 0.8", WIDE),
        "b1": BLOWUP.replace("c = 1.3", "c = 1.4"),
        "a1": QUICK.replace("amplitude = 0.8", "amplitude = 0.7"),
    }
    paths = {stem: _write(tmp_path, f"{stem}.ini", text) for stem, text in stems.items()}
    assert plan_stacks([load_config(path) for path in paths.values()]) == [
        [0, 3, 5], [1, 4], [2]]
    together = tmp_path / "together"
    argv = ["evolve", "--out", str(together), "--threads", threads]
    for path in paths.values():
        argv += ["--config", path]
    capsys.readouterr()
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()

    expected = []
    for stem, path in paths.items():
        alone = tmp_path / "alone" / stem
        code = main(["evolve", "--config", path, "--out", str(alone)])
        line = capsys.readouterr().out.strip()
        expected.append((line.replace(str(alone), str(together / stem)), code))
        if stem == "d":
            assert code == 3 and "edge-decay precondition" in line
            assert not (together / stem / "summary.json").exists()
            continue
        assert _artifacts(together / stem) == _artifacts(alone)
    assert lines == [line for line, _ in expected]
    assert [code for _, code in expected] == [0, 3, 0, 3, 3, 0]

    aborts = [json.loads((together / stem / "summary.json").read_text())["abort_time"]
              for stem in ("b0", "b1")]
    assert None not in aborts and aborts[0] != aborts[1]


# gate 08's scattering side on BLOWUP's grid and cadence, 10x coarser steps
SCATTER = BLOWUP.replace("dt = 1e-5\nt_final = 0.05", "dt = 1e-4\nt_final = 0.1").replace(
    "blowup_grad_factor = 10.0\ntail_fraction_max = 1e-3\nedge_mass_max = 1e-8",
    "tail_fraction_max = 1e-5\nedge_mass_max = 1e-5").replace("c = 1.3", "c = 0.7")


def test_a_threshold_sweep_stacks_across_step_sizes(tmp_path, capsys):
    stems = {
        "plus": SCATTER,
        "minus0": BLOWUP,
        # perfbench's collapse-sweep threshold: stack-mates keep their own
        "minus1": BLOWUP.replace("c = 1.3", "c = 1.4").replace("= 1e-3", "= 3e-3"),
        # 1001 steps, off the 25-step cadence: it keeps its own stack
        "off": SCATTER.replace("t_final = 0.1", "t_final = 0.1001"),
    }
    paths = {stem: _write(tmp_path, f"{stem}.ini", text) for stem, text in stems.items()}
    cfgs = [load_config(path) for path in paths.values()]
    assert cfgs[0].stepper.dt != cfgs[1].stepper.dt
    assert plan_stacks(cfgs) == [[0, 1, 2], [3]]
    together = tmp_path / "together"
    argv = ["evolve", "--out", str(together)]
    for path in paths.values():
        argv += ["--config", path]
    capsys.readouterr()
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()

    expected = []
    for stem, path in paths.items():
        alone = tmp_path / "alone" / stem
        main(["evolve", "--config", path, "--out", str(alone)])
        expected.append(capsys.readouterr().out.strip().replace(str(alone), str(together / stem)))
        assert _artifacts(together / stem) == _artifacts(alone)
        timing = json.loads((alone / "summary.json").read_text())["timing"]
        assert timing["propagator.stack_flights"] == 1
    assert lines == expected
    assert [line.split(": ")[-1] for line in lines] == [
        "completed", "blowup_detected", "blowup_detected", "completed"]
    flights = [json.loads((together / stem / "summary.json").read_text())["timing"]
               ["propagator.stack_flights"] for stem in stems]
    assert flights == [3, 3, 3, 1]


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "ghost.ini")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_no_config_at_all_exits_two(capsys):
    assert main(["classify"]) == 2
    assert "at least one --config" in capsys.readouterr().err


def test_report_aggregates_and_flags_skips(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", QUICK)
    rdir = tmp_path / "done"
    main(["evolve", "--config", cfg, "--out", str(rdir)])
    bogus = tmp_path / "bogus"
    bogus.mkdir()
    capsys.readouterr()

    code = main(["report", str(rdir), str(bogus), "--out", str(tmp_path / "rep")])
    captured = capsys.readouterr()
    assert code == 0
    assert "1 runs, 1 skipped" in captured.out
    assert "bogus" in captured.err
    assert (tmp_path / "rep" / "report.csv").is_file()
    assert (tmp_path / "rep" / "report.md").is_file()


def test_threads_env_fallback_is_parsed(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "run.ini", QUICK)
    monkeypatch.setenv("NLS_LAB_THREADS", "2")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "env")]) == 0


def test_threads_env_garbage_exits_two(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, "run.ini", QUICK)
    monkeypatch.setenv("NLS_LAB_THREADS", "banana")
    assert main(["evolve", "--config", cfg]) == 2
    assert "NLS_LAB_THREADS" in capsys.readouterr().err


def test_nonpositive_threads_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", QUICK)
    assert main(["evolve", "--config", cfg, "--threads", "-3"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_threads_is_an_evolve_option_only(capsys):
    for argv in (["report", "--threads", "2"], ["selftest", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_evolve_refuses_configs_sharing_a_stem_under_out(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _write(tmp_path, "a/run.ini", QUICK)
    b = _write(tmp_path, "b/run.ini", QUICK.replace("amplitude = 0.8", "amplitude = 0.6"))
    out = tmp_path / "X"
    assert main(["evolve", "--config", a, "--config", b, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert a in err and b in err
    assert not out.exists()


def test_evolve_refuses_configs_sharing_outputs_directory(tmp_path, capsys):
    shared = QUICK + f"directory = {tmp_path / 'shared'}\n"
    a = _write(tmp_path, "a.ini", shared)
    b = _write(tmp_path, "b.ini", shared.replace("amplitude = 0.8", "amplitude = 0.6"))
    assert main(["evolve", "--config", a, "--config", b]) == 2
    err = capsys.readouterr().err
    assert a in err and b in err
    assert not (tmp_path / "shared").exists()


SCIPY_FREE_RUN = """
import sys
import nlslab.cli
from nlslab.experiment import load_config, run_experiment

# only evolve --threads above 1 imports the process pool
assert "concurrent.futures.process" not in sys.modules

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert loaded() == [], loaded()
run_experiment(load_config(sys.argv[1]))
assert loaded() == [], loaded()
"""


def test_a_run_never_imports_scipy(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already
    text = QUICK.replace("kind = gaussian\namplitude = 0.8",
                         "kind = scaled_ground_state\nc = 0.5")
    text = text.replace("classify = false", f"classify = true\ndirectory = {tmp_path / 'run'}")
    config = _write(tmp_path, "gs.ini", text)
    env = dict(os.environ, PYTHONPATH=str(Path(nlslab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, config], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["verdict"]["set_label"] == "A_plus"


OPENSSL_FREE_RUN = """
import sys
import nlslab.cli
from nlslab.experiment import load_config, run_experiment

def loaded():
    return sorted(m for m in ("_hashlib", "ssl") if m in sys.modules)

assert loaded() == [], loaded()
run_experiment(load_config(sys.argv[1]))
assert loaded() == [], loaded()
"""


def test_a_classify_run_never_loads_openssl(tmp_path):
    # the digest takes CPython's built-in SHA-256; hashlib would load OpenSSL
    text = QUICK.replace("kind = gaussian\namplitude = 0.8",
                         "kind = scaled_ground_state\nc = 0.5")
    text = text.replace("classify = false", f"classify = true\ndirectory = {tmp_path / 'run'}")
    config = _write(tmp_path, "gs.ini", text)
    env = dict(os.environ, PYTHONPATH=str(Path(nlslab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", OPENSSL_FREE_RUN, config], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert len(summary["verdict"]["ground_state_digest"]) == 64
