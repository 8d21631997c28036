"""Workload inputs for the nlslab benchmark.

Each workload is a list of configs that one ``nlslab evolve`` call runs.
The seed only draws each config's amplitude ``c`` (or, in 2-D, the mass
fraction) from a fixed interval on its side of the threshold; everything
else is fixed here.  The intervals are narrow so that run length, and
with it wall time, varies little from seed to seed.

Run as a script, this module is the benchmark's set-up step: a fresh
interpreter imports nlslab, writes the workload's inputs for a seed and
loads every config back through ``load_config``.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

NAMES = ("demo_flight", "collapse_sweep", "townes_2d")


@dataclass(frozen=True)
class Case:
    """One config of a workload and the outputs it must produce."""

    stem: str
    ini: str
    label: str             # expected verdict set_label
    outcome: str           # expected summary outcome
    n: int = 0             # grid points per axis, for cross-resolution checks
    c: float = 0.0


def _ini(model, grid, stepper, initial, outputs) -> str:
    sections = (
        ("model", model),
        ("grid", grid),
        ("stepper", stepper),
        ("initial_data", initial),
        ("outputs", outputs),
    )
    lines = []
    for name, body in sections:
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in body.items()]
        lines.append("")
    return "\n".join(lines)


_E1_P7 = {"d": 1, "p": 7.0, "omega": 1.0, "equation": "E1"}
_E2_2D = {"d": 2, "p": 4.0, "omega": 1.0, "equation": "E2"}

# Kernel micro-cases per workload: (d, n per axis, half width, dt, model).
KERNEL_CASES = {
    "demo_flight": (1, 8192, 700.0, 1e-3, _E1_P7),
    "collapse_sweep": (1, 1024, 15.0, 1e-4, _E1_P7),
    "townes_2d": (2, 256, 20.0, 1e-3, _E2_2D),
}


def _demo_flight(rng) -> list:
    # The README demo, shortened in t_final only.
    c = round(rng.uniform(0.699, 0.701), 6)
    ini = _ini(
        _E1_P7,
        {"n_per_axis": 8192, "half_width": 700.0},
        {
            "dt": 1e-3,
            "t_final": 3.0,
            "snapshot_every": 200,
            "checkpoint_every": 2000,
            "tail_fraction_max": 1e-5,
            "edge_mass_max": 1e-5,
        },
        {"kind": "scaled_ground_state", "c": c},
        {"virial_radius": 12.0},
    )
    return [Case("demo", ini, "A_plus", "completed", 8192, c)]


def _collapse_sweep(rng) -> list:
    cases = []
    for j, (lo, hi) in enumerate(((0.515, 0.52), (0.772, 0.776))):
        c = round(rng.uniform(lo, hi), 6)
        ini = _ini(
            _E1_P7,
            {"n_per_axis": 1024, "half_width": 15.0},
            {
                "dt": 1e-4,
                "t_final": 0.25,
                "snapshot_every": 25,
                "tail_fraction_max": 1e-5,
                "edge_mass_max": 1e-5,
            },
            {"kind": "scaled_ground_state", "c": c},
            {},
        )
        cases.append(Case(f"plus{j}", ini, "A_plus", "completed", 1024, c))
    # Gate 08's blow-up flights, each amplitude at two resolutions.  The
    # tail threshold is 3e-3, not gate 08's 1e-3: at n = 1024 and 1e-3 the
    # outcome flips between blowup_detected and resolution_lost every
    # 0.001 in c (c = 1.301, 1.303, 1.306, 1.308 lose resolution), while
    # at 3e-3 every amplitude drawn here is detected at both resolutions.
    for j, (lo, hi) in enumerate(((1.305, 1.31), (1.405, 1.41))):
        c = round(rng.uniform(lo, hi), 6)
        for n in (1024, 2048):
            ini = _ini(
                _E1_P7,
                {"n_per_axis": n, "half_width": 15.0},
                {
                    "dt": 1e-5,
                    "t_final": 1.5,
                    "snapshot_every": 25,
                    "blowup_grad_factor": 10.0,
                    "tail_fraction_max": 3e-3,
                    "edge_mass_max": 1e-8,
                },
                {"kind": "scaled_ground_state", "c": c},
                {},
            )
            cases.append(Case(f"minus{j}_n{n}", ini, "A_minus", "blowup_detected", n, c))
    return cases


def _townes_2d(rng, townes_path: str) -> list:
    frac = rng.uniform(0.818, 0.822)
    ini = _ini(
        _E2_2D,
        {"n_per_axis": 256, "half_width": 20.0},
        {
            "dt": 1e-3,
            "t_final": 0.5,
            "snapshot_every": 10,
            "checkpoint_every": 50,
            "tail_fraction_max": 1e-5,
            "edge_mass_max": 1e-8,
        },
        {"kind": "file", "path": townes_path},
        {"whole_space_virial": "true"},
    )
    return [Case("townes", ini, "below_mass_threshold", "completed", 256,
                 round(math.sqrt(frac), 6))]


def cases(name: str, seed: int, input_dir) -> list:
    """The workload's configs for this seed; writes nothing."""
    rng = random.Random(f"{name}:{seed}")
    if name == "demo_flight":
        return _demo_flight(rng)
    if name == "collapse_sweep":
        return _collapse_sweep(rng)
    if name == "townes_2d":
        return _townes_2d(rng, str(Path(input_dir) / "townes.nlsf"))
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(name: str, seed: int, input_dir) -> list:
    """Write the workload's .ini (and .nlsf) inputs; returns the config paths."""
    # imported here: run.py imports this module before it knows src exists
    from nlslab import ModelParams, load_config, make_grid, solve_ground_state
    from nlslab.fieldio import save_field
    from nlslab.groundstate import ground_state_field
    from nlslab.spectral import ComplexField

    out = Path(input_dir)
    out.mkdir(parents=True, exist_ok=True)
    todo = cases(name, seed, out)
    if name == "townes_2d":
        # c * Q_Townes, the critical-equation ground state, as file input
        gs = solve_ground_state(ModelParams(**_E2_2D), which="mass_critical")
        q = ground_state_field(gs, make_grid(2, 256, 20.0))
        save_field(out / "townes.nlsf", ComplexField(q.grid, todo[0].c * q.values))
    paths = []
    for case in todo:
        path = out / f"{case.stem}.ini"
        path.write_text(case.ini)
        load_config(path)
        paths.append(str(path))
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    write_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
