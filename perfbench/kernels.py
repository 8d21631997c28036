"""Kernel micro-cases on a workload's grid, the machine they ran on, and
the known-defect ground-state probe.

    python perfbench/kernels.py WORKLOAD

Prints one JSON object.  Every case calls public nlslab functions only.
Working sets (one complex128 field, 128 KiB to 1 MiB) fit in cache, so
bytes are reported as computed and no bandwidth figure is claimed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from nlslab import ModelParams, make_grid, snapshot, solve_ground_state, strang_step, transform
from nlslab.groundstate import ConvergenceError
from nlslab.spectral import field_from_function
from workloads import KERNEL_CASES

BATCHES = 7
MIN_BATCH_S = 0.01


def per_call_us(fn) -> float:
    """Median per-call time over BATCHES batches of at least MIN_BATCH_S."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        reps *= 2
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def kernel_metrics(workload: str) -> dict:
    d, n, half_width, dt, model = KERNEL_CASES[workload]
    mp = ModelParams(**model)
    grid = make_grid(d, n, half_width)
    u = field_from_function(grid, lambda *x: np.exp(-sum(c**2 for c in x)) + 0j)
    step = per_call_us(lambda: strang_step(u, mp, dt))
    free = per_call_us(lambda: strang_step(u, mp, dt, couplings=(0.0, 0.0)))
    return {
        "kernel.step_us": step,
        "kernel.free_step_us": free,
        "kernel.phase_us": step - free,
        "kernel.fft_pair_us": per_call_us(lambda: transform(transform(u), "inverse")),
        "kernel.snapshot_us": per_call_us(lambda: snapshot(u, mp, 0.0)),
        "kernel.working_set_bytes": u.values.nbytes,
    }


def ground_state_failures() -> int:
    """Known defect: the 2-D E1 double-nonlinearity solve misses its
    residual gate.  A fix shows as 0."""
    failures = 0
    for p in (4.0, 5.0, 7.0):
        try:
            solve_ground_state(ModelParams(2, p, 1.0, "E1"), which="double")
        except ConvergenceError:
            failures += 1
    return failures


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine() -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    cgroup = _read("/sys/fs/cgroup/cpu.max") or _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "cgroup_cpu_max": cgroup or "unreadable",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    workload = sys.argv[1]
    out = kernel_metrics(workload)
    out["groundstate.failures"] = ground_state_failures()
    out["machine"] = machine()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
