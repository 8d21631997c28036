"""nlslab benchmark: end-to-end runs of ``nlslab evolve`` and a traced
per-layer breakdown.

    python3 perfbench/run.py --workload demo_flight --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every evolve call is a fresh
``python -m nlslab.cli evolve --threads 1`` process with ``src`` on the
path, ``NLS_LAB_THREADS`` unset and its own output directory; calls run
one after another (closed loop, one client) until the next one would
end past ``--seconds``.

Times are reported at a reference CPU speed.  The host is shared and
its speed drifts by up to 2x within minutes, and CPU time drifts with
it.  So in --trace 0 runs hostspeed.py runs beside every child on the
same CPU, time-sliced with it, doing fixed numpy work and counting how
much of it it gets done per CPU second.  A child's figure is its own CPU
time (user + system) times the probe's speed over the child's lifetime,
divided by REF_SPEED: on a CPU as fast as the reference it is the CPU
time, on one half as fast the doubled CPU time is halved back.  The probe
runs no nlslab code, so a change to nlslab moves these figures as it
moves CPU time; the children run single-threaded, and alone their CPU
time is 2-10 % below their wall time.  Raw wall and CPU
times and the probe's speed are printed too.

--trace 0 reports the end-to-end metrics from untraced calls:
evolve_ref_s, steps_per_ref_s, setup_s, peak_rss_mb, ok_frac,
energy_drift.  --trace 1 runs without the probe: it alternates untraced
and traced calls (see tracer.py) and runs the kernel micro-cases (see
kernels.py); it reports the per-layer metrics, in wall time.

Every call's outputs are checked (see checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
# Probe blocks per probe CPU second that count as the reference speed:
# about what the probe gets done on a quiet 2-core Xeon guest while an
# evolve call shares its CPU.
REF_SPEED = 300.0

END_TO_END_UNITS = {
    "evolve_ref_s": "s",
    "steps_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "energy_drift": "rel",
}


# -- child processes ----------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NLS_LAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list, log_path: Path) -> tuple:
    """Run argv to completion; returns ((start, end) monotonic seconds,
    CPU seconds, peak RSS MB, exit code).

    The child is spawned and reaped directly so that its own rusage, not
    the running maximum over all children, gives the CPU time and peak RSS.
    """
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
    t0 = time.monotonic()
    try:
        pid = os.posix_spawnp(argv[0], argv, _child_env(), file_actions=actions)
    finally:
        os.close(fd)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    span = (t0, time.monotonic())
    cpu = usage.ru_utime + usage.ru_stime
    return span, cpu, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


class HostSpeed:
    """The hostspeed.py probe, sharing one CPU with every child started
    while it runs; ``scale`` puts a child's CPU time at REF_SPEED."""

    def __init__(self, work: Path):
        cpu = sorted(os.sched_getaffinity(0))[-1]
        # children inherit this process's affinity
        os.sched_setaffinity(0, {cpu})
        self.path = work / "hostspeed.txt"
        self.log = open(work / "hostspeed.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostspeed.py"), str(self.path), str(cpu)],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.stamps = None
        deadline = time.monotonic() + 30.0
        while self._blocks() < 3:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"host-speed probe did not start: see {work / 'hostspeed.log'}")
            time.sleep(0.05)

    def _blocks(self) -> int:
        return len(hostspeed.read_stamps(self.path)) if self.path.is_file() else 0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.log.close()
        if self.stamps is None and self.path.is_file():
            self.stamps = hostspeed.read_stamps(self.path)

    def speed(self, span: tuple) -> float:
        return hostspeed.speed(self.stamps, *span)

    def scale(self, span: tuple, cpu: float) -> float:
        """CPU seconds of a child that ran over span, at REF_SPEED."""
        return cpu * self.speed(span) / REF_SPEED


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.cases = workloads.cases(workload, seed, self.inputs)
        self.calls = 0

    def setup(self) -> tuple:
        """One fresh-interpreter set-up: import, input generation, load_config.
        Returns its span, wall and CPU seconds."""
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--dir", str(self.inputs)]
        span, cpu, _, code = run_child(argv, self.work / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up exited {code}: see {self.work / 'setup.log'}")
        return {"span": span, "wall": span[1] - span[0], "cpu": cpu}

    def evolve(self, traced: bool) -> dict:
        """One evolve call into a fresh output directory."""
        self.calls += 1
        out = self.work / f"call{self.calls}"
        spans = self.work / f"spans{self.calls}.json"
        configs = []
        for case in self.cases:
            configs += ["--config", str(self.inputs / f"{case.stem}.ini")]
        cli = ["evolve", "--threads", "1", *configs, "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *cli]
        else:
            argv = [sys.executable, "-m", "nlslab.cli", *cli]
        span, cpu, rss, _ = run_child(argv, self.work / f"call{self.calls}.log")
        if len(self.cases) == 1:
            dirs = {self.cases[0].stem: out}
        else:
            dirs = {case.stem: out / case.stem for case in self.cases}
        call = {"span": span, "wall": span[1] - span[0], "cpu": cpu, "rss": rss,
                "dirs": dirs}
        if traced:
            call["trace"] = json.loads(spans.read_text()) if spans.is_file() else None
        return call


# -- statistics ---------------------------------------------------------------

def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def high_percentile(values: list):
    """Highest of p99/p90 with at least ten samples beyond it, or None."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100.0 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def describe(name: str, values: list, unit: str) -> str:
    q1, med, q3 = quartiles(values)
    text = f"  {name:<14} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"
    hp = high_percentile(values)
    if hp:
        text += f"  p{hp[0]} {hp[1]:.6g}"
    return text + "  [" + " ".join(f"{v:.4g}" for v in values) + "]"


# -- the two modes ------------------------------------------------------------

def timed_loop(bench: Bench, seconds: float, traced_too: bool) -> list:
    """Closed loop of calls until the next one would end past the deadline.

    Each round is one untraced call, followed by one traced call when
    traced_too is set.  At least one round always runs.
    """
    deadline = time.monotonic() + seconds
    rounds = []
    while True:
        t0 = time.monotonic()
        rnd = [bench.evolve(traced=False)]
        if traced_too:
            rnd.append(bench.evolve(traced=True))
        rounds.append(rnd)
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            return rounds


def end_to_end(bench: Bench, seconds: float, checker, host: HostSpeed) -> dict:
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    calls = [rnd[0] for rnd in timed_loop(bench, seconds, traced_too=False)]
    host.stop()
    results = [checker.check_call(call) for call in calls]
    times = [host.scale(c["span"], c["cpu"]) for c in calls]
    samples = {
        "evolve_ref_s": times,
        "steps_per_ref_s": [r["steps"] / t for r, t in zip(results, times)],
        "setup_s": [host.scale(s["span"], s["cpu"]) for s in setups],
        "peak_rss_mb": [c["rss"] for c in calls],
    }
    print(f"{bench.workload}: {len(calls)} untraced evolve calls, "
          f"{results[0]['steps']} steps each")
    print(describe("raw wall_s", [c["wall"] for c in calls], "s (CPU shared with the probe)"))
    print(describe("raw cpu_s", [c["cpu"] for c in calls], "s"))
    print(describe("raw setup cpu_s", [s["cpu"] for s in setups], "s"))
    print(describe("probe speed", [host.speed(c["span"]) for c in calls],
                   f"1/s (reference {REF_SPEED:g})"))
    for name, values in samples.items():
        print(describe(name, values, END_TO_END_UNITS[name]))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["ok_frac"] = checker.ok_frac()
    metrics["energy_drift"] = max(r["energy_drift"] for r in results)
    print(f"  ok_frac        {metrics['ok_frac']:.6g} of {checker.attempted} configs")
    print(f"  energy_drift   {metrics['energy_drift']:.6g} rel (worst completed run)")
    return metrics


def per_layer(bench: Bench, seconds: float, checker) -> dict:
    bench.setup()
    kernel_log = bench.work / "kernels.log"
    _, _, _, code = run_child(
        [sys.executable, str(HERE / "kernels.py"), bench.workload], kernel_log)
    if code != 0:
        raise RuntimeError(f"kernel micro-cases exited {code}: see {kernel_log}")
    kern = json.loads(kernel_log.read_text().strip().splitlines()[-1])
    print("machine: " + json.dumps(kern.pop("machine"), sort_keys=True))

    rounds = timed_loop(bench, seconds, traced_too=True)
    plain = [rnd[0] for rnd in rounds]
    traced = [rnd[1] for rnd in rounds]
    results = [checker.check_call(call) for rnd in rounds for call in rnd]
    breakdowns = [layers.breakdown(call, results[2 * i + 1])
                  for i, call in enumerate(traced)]
    checker.check_counts_repeat(breakdowns)

    metrics = layers.median_metrics(breakdowns)
    in_runs = metrics["groundstate.failures"]
    metrics.update(kern)
    metrics["groundstate.failures"] += in_runs
    untraced_wall = statistics.median(c["wall"] for c in plain)
    traced_wall = statistics.median(c["wall"] for c in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    layers.report(bench.workload, metrics, breakdowns, untraced_wall, traced_wall)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nlslab benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nlslab" / "cli.py").is_file():
        print(f"perfbench: no nlslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = None
    try:
        bench = Bench(args.workload, args.seed, work)
        checker = checks.Checker(args.workload, bench.cases)
        if args.trace:
            metrics, units = per_layer(bench, args.seconds, checker), layers.UNITS
        else:
            host = HostSpeed(work)
            metrics, units = end_to_end(bench, args.seconds, checker, host), END_TO_END_UNITS
    finally:
        if host is not None:
            host.stop()
        shutil.rmtree(work, ignore_errors=True)
    checker.print_failures()
    result = {
        "correct": checker.correct(),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
