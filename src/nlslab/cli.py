"""Command-line front end.

Subcommands: groundstate (solve and write the stationary profile: the
one a run classifies against, unless [groundstate] which names another),
classify (label initial data and print the verdict JSON), evolve (run
one or more experiment configs, optionally in a process pool), report
(aggregate run directories), selftest (quick internal consistency
checks, among them that the installed numpy marches and records a
stack's flights bitwise as it marches and records each alone, and that
the four-step transform of a long 1-D line tracks the plain one).

Exit codes: 0 on success, 2 on config or validation failure, 3 when a
run aborted at runtime or a selftest check failed.  groundstate,
classify and evolve load every config and place every output
(experiment._place) before any work, and refuse, naming both configs,
two that would write to the same path.  evolve marches the configs that
share a model, a grid and a record cadence as one stack
(experiment.plan_stacks); --threads (default 1) sizes the pool that
takes those stacks.  It prints one line per run in config order, the
outcome or the error, even when some fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .experiment import (
    ConfigError,
    _initial_state,
    _place,
    _run_stack,
    _threshold_verdict,
    _write_groundstate,
    parse_config,
    parse_model,
    plan_stacks,
    emit_report,
)
from .classifier import _threshold_profile, ground_state_digest, verdict_to_json
from .groundstate import solve_ground_state


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlslab",
        description="Spectral toolbox for the two-nonlinearity Schrodinger models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            action="append",
            default=[],
            metavar="PATH",
            help="config file; repeatable",
        )
        p.add_argument(
            "--out",
            default="",
            metavar="DIR",
            help="output directory (evolve: overrides the config's outputs.directory)",
        )

    common(sub.add_parser("groundstate", help="solve the model's stationary profile"))
    common(sub.add_parser("classify", help="label initial data against the thresholds"))
    ev = sub.add_parser("evolve", help="run experiment configs")
    common(ev)
    ev.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="work pool size (default: 1)",
    )

    rp = sub.add_parser("report", help="aggregate run directories into CSV + markdown")
    rp.add_argument("runs", nargs="*", metavar="RUN_DIR")
    rp.add_argument("--out", default=".", metavar="DIR")

    sub.add_parser("selftest", help="fast internal consistency checks")
    return ap


def _admit(args, parse, output) -> list:
    """(parsed config, output path) of each --config in order: every one
    parsed by parse(text), then placed at output(path, parsed) by
    experiment._place, before any command does work."""
    if not args.config:
        raise ConfigError(f"{args.command}: at least one --config is required")
    loaded = []
    for path in args.config:
        if not Path(path).is_file():
            raise ConfigError(f"--config: no such file {path!r}")
        loaded.append(parse(Path(path).read_text()))
    placed = _place((path, output(path, cfg)) for path, cfg in zip(args.config, loaded))
    for where in placed:
        if isinstance(where, ConfigError):
            raise where
    return list(zip(loaded, placed))


def _cmd_groundstate(args) -> int:
    admitted = _admit(args, parse_model,
                      lambda path, _: Path(args.out) / f"{Path(path).stem}.groundstate.json")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    for path, ((model, kwargs), where) in zip(args.config, admitted):
        # without [groundstate] which, the profile a run classifies against
        kwargs.setdefault("which", _threshold_profile(model))
        gs = solve_ground_state(model, **kwargs)
        _write_groundstate(where.with_suffix(".csv"), gs)
        meta = {
            "which": gs.which,
            "d": model.d,
            "p": model.p,
            "omega": gs.omega,
            "amplitude": gs.amplitude,
            "mass": gs.mass,
            "grad_l2_sq": gs.grad_l2_sq,
            "m_omega": gs.m_omega,
            "K_value": gs.K_value,
            "residual": gs.residual,
            "digest": ground_state_digest(gs),
        }
        where.write_text(json.dumps(meta, sort_keys=True, indent=2, allow_nan=False) + "\n")
        print(f"{Path(path).stem}: amplitude {gs.amplitude:.12g}, mass {gs.mass:.12g}")
    return 0


def _cmd_classify(args) -> int:
    admitted = _admit(args, parse_config,
                      lambda path, _: Path(args.out) / f"{Path(path).stem}.verdict.json")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    for cfg, where in admitted:
        _, verdict = _threshold_verdict(_initial_state(cfg)[0], cfg.model)
        text = verdict_to_json(verdict)
        print(text)
        where.write_text(text + "\n")
    return 0


def _report_line(out_dir, result) -> tuple:
    """(report line, exit code) of one job from its run directory or the
    exception that stopped it."""
    if isinstance(result, ConfigError):
        return f"{out_dir}: config error: {result}", 2
    if isinstance(result, Exception):
        return f"{out_dir}: error: {type(result).__name__}: {result}", 3
    outcome = json.loads((result / "summary.json").read_text())["outcome"]
    return f"{result}: {outcome}", 0 if outcome == "completed" else 3


def _evolve_worker(stack):
    """(report line, exit code) of each job of one planned stack, run as
    it is; a job that raises must not hide the outcomes of the others."""
    results = [None] * len(stack)
    _run_stack(stack, range(len(stack)), results)
    return [_report_line(out_dir, result) for (_, out_dir), result in zip(stack, results)]


def _cmd_evolve(args) -> int:
    threads = args.threads
    if threads < 1:
        raise ConfigError(f"threads: must be at least 1, got {threads}")
    # --out is the run directory of one config, the parent of several
    one = len(args.config) == 1
    jobs = _admit(args, parse_config, lambda path, cfg: cfg.directory if not args.out
                  else args.out if one else Path(args.out) / Path(path).stem)

    # configs that differ only in their initial data march as one stack;
    # the pool takes stacks, and the lines come back in config order
    stacks = plan_stacks([cfg for cfg, _ in jobs])
    work = [[jobs[i] for i in stack] for stack in stacks]
    if threads > 1 and len(work) > 1:
        # imported here: a one-process run should not pay for the import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(work))) as pool:
            done = list(pool.map(_evolve_worker, work))
    else:
        done = [_evolve_worker(stack) for stack in work]

    results = [None] * len(jobs)
    for stack, lines in zip(stacks, done):
        for i, line in zip(stack, lines):
            results[i] = line
    for line, _ in results:
        print(line)
    return max(code for _, code in results)


def _cmd_report(args) -> int:
    result = emit_report(args.runs, args.out)
    print(
        f"report: {len(result['rows'])} runs, {len(result['skipped'])} skipped "
        f"-> {result['csv']}"
    )
    for entry in result["skipped"]:
        print(f"  skipped {entry['directory']}: {entry['reason']}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    from .spectral import (
        _fft_pass, _lay_out, _layout,
        make_grid,
        field_from_function,
        random_smooth_field,
        transform,
        free_evolve,
    )
    from .functionals import ModelParams, mass
    from .propagator import StepperConfig, evolve, evolve_stack, strang_step
    from .virial import VirialWeight
    from .symmetry import SymmetryElement, apply_symmetry as apply_elem
    from .classifier import classify as classify_field
    from .groundstate import ground_state_field

    checks = []
    g = make_grid(1, 256, 20.0)
    f = random_smooth_field(g, seed=7)

    fhat = transform(f)
    err = abs(
        float(np.sum(np.abs(f.values) ** 2)) - float(np.sum(np.abs(fhat.values) ** 2))
    ) / float(np.sum(np.abs(f.values) ** 2))
    checks.append(("parseval", err < 1e-12, err))

    k0 = 2.0 * np.pi / 40.0 * 5
    wave = field_from_function(g, lambda x: np.exp(1j * k0 * x))
    moved = free_evolve(wave, 0.3)
    err = float(np.max(np.abs(moved.values - np.exp(-1j * 0.3 * k0**2) * wave.values)))
    checks.append(("plane_wave_flow", err < 1e-12, err))

    mp5 = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
    q5 = solve_ground_state(mp5, which="mass_critical")
    err = abs(q5.amplitude - 3.0**0.25)
    checks.append(("critical_soliton_amplitude", err < 1e-6, err))

    cfg = StepperConfig(dt=1e-3, t_final=0.2, snapshot_every=40)
    u0 = field_from_function(g, lambda x: 0.5 * np.exp(-(x**2)) + 0j)
    log = evolve(u0, mp5, cfg)
    drift = max(abs(s.mass - log.snapshots[0].mass) for s in log.snapshots)
    checks.append(("strang_mass", log.outcome == "completed" and drift < 1e-11, drift))

    # stacking rests on numpy's multi-line FFT and per-row sums giving each
    # line the bits that line gets alone; a sweep's stack shape: two step
    # sizes, n = 1024, with localized virial rows; and a 2-D stack in
    # padded rows whose first flight leaves it halfway
    g_stack = make_grid(1, 1024, 15.0)
    weight = VirialWeight(g_stack, 4.0)
    u0s = [field_from_function(g_stack, lambda x, a=a: a * np.exp(-(x**2)) + 0j)
           for a in (0.6, 0.8, 1.0, 1.2)]
    cfgs = [StepperConfig(dt=dt, t_final=5e-3, snapshot_every=25) for dt in (1e-4, 1e-5) * 2]
    g_2d = make_grid(2, 32, 10.0)
    mp_2d = ModelParams(d=2, p=4.0, omega=1.0, equation="E2")
    u0s_2d = [field_from_function(g_2d, lambda x, y, a=a: a * np.exp(-(x**2 + y**2) / 4) + 0j)
              for a in (0.6, 0.9)]
    cfgs_2d = [StepperConfig(dt=1e-3, t_final=t, snapshot_every=5) for t in (0.01, 0.02)]
    marches = [(u0s, mp5, cfgs, weight), (u0s_2d, mp_2d, cfgs_2d, None)]
    # each flight's record series, by repr (every float's bits), and its
    # final state
    series = ("times", "snapshots", "tail_fractions", "edge_fractions", "scatter_series",
              "virial_rows")

    def differing(marches):
        differ = flights = 0
        for fields, mp, steppers, w in marches:
            stacked = evolve_stack(fields, mp, steppers, virial_weight=w)
            for s, u, c in zip(stacked, fields, steppers):
                alone = evolve(u, mp, c, virial_weight=w)
                flights += 1
                differ += (
                    any(repr(getattr(s, name)) != repr(getattr(alone, name)) for name in series)
                    or s.final_state.values.tobytes() != alone.final_state.values.tobytes())
        return differ, flights

    differ, flights = differing(marches)
    checks.append(("stack_bitwise", differ == 0, f"{differ} of {flights} flights differ"))

    # a 1-D line of 8192 points takes the four-step transform: its free
    # flow against the plain numpy composition; a step with no coupling,
    # the kernel on the line's matrix in padded rows, against free_evolve,
    # the same transform on its natural line; a two-flight stack of such
    # lines, whose column transforms run along axis -2, against each
    # flight alone; and the bound FFT passes, numpy's pocketfft gufuncs
    # called directly, against np.fft.fft and np.fft.ifft on the line, on
    # its padded matrix and on a padded 2-D field, along each axis
    g_split = make_grid(1, 8192, 300.0)
    u0s_split = [field_from_function(g_split, lambda x, a=a: a * np.exp(-(x**2) + 2j * x))
                 for a in (0.6, 0.9)]
    v = u0s_split[0].values
    plain = np.fft.ifft(np.multiply(np.exp(-0.3j * g_split.k_squared), np.fft.fft(v)))
    err = float(np.max(np.abs(free_evolve(u0s_split[0], 0.3).values - plain)) / np.max(np.abs(v)))
    free = strang_step(u0s_split[0], mp5, 1e-3, couplings=(0.0, 0.0)).values
    padded = free.tobytes() == free_evolve(u0s_split[0], 1e-3).values.tobytes()
    cfgs_split = [StepperConfig(dt=dt, t_final=0.02, snapshot_every=10) for dt in (1e-3, 5e-4)]
    differ, flights = differing([(u0s_split, mp5, cfgs_split, None)])
    views = [(v, 0)] + [(_lay_out([f.values], f.grid)[..., :_layout(f.grid).width], axis)
                        for f in (u0s_split[0], u0s_2d[0]) for axis in (1, 2)]
    passes = [_fft_pass(a, np.empty_like(a), axis, inverse)().tobytes()
              != fn(a, axis=axis).tobytes()
              for a, axis in views for inverse, fn in ((False, np.fft.fft), (True, np.fft.ifft))]
    checks.append(("split_transform", err < 1e-13 and padded and differ == 0 and not any(passes),
                   f"{err:.3e}; padded step {'bitwise' if padded else 'differs'}; "
                   f"{differ} of {flights} flights differ; "
                   f"{sum(passes)} of {len(passes)} gufunc passes differ from numpy.fft"))

    bump = field_from_function(g, lambda x: np.exp(-(x**2)) * (1.0 + 0.5j))
    elem = SymmetryElement(theta=0.7, h=1.3, t0=0.2, x0=(1.5,), xi=(0.9,))
    fe = apply_elem(bump, elem)
    err = abs(mass(fe) - mass(bump)) / mass(bump)
    checks.append(("symmetry_isometry", err < 1e-10, err))

    gs = solve_ground_state(mp5)
    q = ground_state_field(gs, g)
    verdict = classify_field(q, mp5, gs)
    checks.append(
        ("boundary_refusal", verdict.set_label == "indeterminate", verdict.set_label)
    )

    failed = 0
    for name, ok, value in checks:
        tag = "ok" if ok else "FAIL"
        val = f"{value:.3e}" if isinstance(value, float) else str(value)
        print(f"selftest {name}: {tag} ({val})")
        failed += not ok
    return 0 if failed == 0 else 3


_COMMANDS = {
    "groundstate": _cmd_groundstate,
    "classify": _cmd_classify,
    "evolve": _cmd_evolve,
    "report": _cmd_report,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # CLI boundary: report, do not traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
