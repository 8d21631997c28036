"""Command-line front end.

Subcommands: groundstate (solve and write the stationary profile: the
one a run classifies against, unless [groundstate] which names another),
classify (label initial data and print the verdict JSON), evolve (run
one or more experiment configs, optionally in a process pool), report
(aggregate run directories), selftest (quick internal consistency
checks, among them that the installed numpy marches and records a
stack's flights bitwise as it marches and records each alone).

Exit codes: 0 on success, 2 on config or validation failure, 3 when a
run aborted at runtime or a selftest check failed.  evolve marches the
configs that share a model, a grid and a record cadence as one stack
(experiment.plan_stacks); --threads sizes the pool that takes those
stacks, with NLS_LAB_THREADS as fallback.  evolve refuses, before any
run starts, configs that would write to the same directory, and prints
one line per run in config order, the outcome or the error, even when
some runs fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .experiment import (
    ConfigError,
    _initial_state,
    _threshold_profile,
    _threshold_verdict,
    _write_groundstate,
    load_config,
    parse_model,
    plan_stacks,
    run_experiment,
    run_experiments,
    emit_report,
)
from .classifier import ground_state_digest, verdict_to_json
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
        default=0,
        metavar="N",
        help="work pool size (default: NLS_LAB_THREADS or 1)",
    )

    rp = sub.add_parser("report", help="aggregate run directories into CSV + markdown")
    rp.add_argument("runs", nargs="*", metavar="RUN_DIR")
    rp.add_argument("--out", default=".", metavar="DIR")

    sub.add_parser("selftest", help="fast internal consistency checks")
    return ap


def _resolve_threads(args) -> int:
    n = args.threads
    if n == 0:
        raw = os.environ.get("NLS_LAB_THREADS", "1")
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(f"NLS_LAB_THREADS: cannot parse {raw!r}") from None
    if n < 1:
        raise ConfigError(f"threads: must be at least 1, got {n}")
    return n


def _require_configs(args) -> list:
    if not args.config:
        raise ConfigError(f"{args.command}: at least one --config is required")
    for path in args.config:
        if not Path(path).is_file():
            raise ConfigError(f"--config: no such file {path!r}")
    return args.config


def _cmd_groundstate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path in _require_configs(args):
        model, kwargs = parse_model(Path(path).read_text())
        # without [groundstate] which, the profile a run classifies against
        kwargs.setdefault("which", _threshold_profile(model))
        gs = solve_ground_state(model, **kwargs)
        stem = Path(path).stem
        _write_groundstate(out / f"{stem}.groundstate.csv", gs)
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
        (out / f"{stem}.groundstate.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n"
        )
        print(f"{stem}: amplitude {gs.amplitude:.12g}, mass {gs.mass:.12g}")
    return 0


def _cmd_classify(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path in _require_configs(args):
        cfg = load_config(path)
        _, verdict = _threshold_verdict(_initial_state(cfg)[0], cfg.model)
        text = verdict_to_json(verdict)
        print(text)
        (out / f"{Path(path).stem}.verdict.json").write_text(text + "\n")
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
    """(report line, exit code) of each job of one stack; a job that raises
    must not hide the outcomes of the others."""
    if len(stack) > 1:
        results = run_experiments(stack)
    else:
        # a lone job through run_experiment, the name perfbench's tracer wraps
        try:
            results = [run_experiment(*stack[0])]
        except Exception as exc:
            results = [exc]
    return [_report_line(out_dir, result) for (_, out_dir), result in zip(stack, results)]


def _cmd_evolve(args) -> int:
    paths = _require_configs(args)
    threads = _resolve_threads(args)
    # validate every config and place every run before any run starts
    jobs, owner = [], {}
    for path in paths:
        cfg = load_config(path)
        if not args.out:
            where = cfg.directory
        elif len(paths) == 1:
            where = args.out
        else:
            where = str(Path(args.out) / Path(path).stem)
        if not where:
            raise ConfigError(f"{path}: outputs.directory: no output directory given")
        key = Path(where).resolve()
        if key in owner:
            raise ConfigError(f"{owner[key]} and {path} both write to {where}")
        owner[key] = path
        jobs.append((cfg, where))

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
        make_grid,
        field_from_function,
        random_smooth_field,
        transform,
        free_evolve,
    )
    from .functionals import ModelParams, mass
    from .propagator import StepperConfig, evolve, evolve_stack
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
    # sizes, n = 1024
    g_stack = make_grid(1, 1024, 15.0)
    u0s = [field_from_function(g_stack, lambda x, a=a: a * np.exp(-(x**2)) + 0j)
           for a in (0.6, 0.8, 1.0, 1.2)]
    cfgs = [StepperConfig(dt=dt, t_final=5e-3, snapshot_every=25) for dt in (1e-4, 1e-5) * 2]
    stacked = evolve_stack(u0s, mp5, cfgs)
    # each flight's record series, by repr (every float's bits), and its
    # final state
    series = ("times", "snapshots", "tail_fractions", "edge_fractions", "scatter_series")
    differ = 0
    for s, u, c in zip(stacked, u0s, cfgs):
        alone = evolve(u, mp5, c)
        differ += (any(repr(getattr(s, name)) != repr(getattr(alone, name)) for name in series)
                   or s.final_state.values.tobytes() != alone.final_state.values.tobytes())
    checks.append(("stack_bitwise", differ == 0, f"{differ} of 4 flights differ"))

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
