"""Host-speed probe that shares one CPU with the measured process.

The benchmark's host is shared: neighbours on the same hardware change
how much work a CPU does per second, by up to 2x within minutes, and a
process's CPU time tracks its wall time, so no per-process clock removes
it.  Another CPU of the same guest is no reference either: its speed
drifts independently.  So this probe runs on the same CPU as the measured
process, time-sliced with it by the kernel, and both see the same
hardware at the same moments.  It repeats a fixed numpy workload (the FFT
pair and phase multiply of a split-step, n = 8192: the same kind of work
as an nlslab step, but none of its code) and after each block writes a
line ``<CLOCK_MONOTONIC> <own CPU seconds>``.  Its blocks per CPU second
over an interval (see ``speed``) are the CPU's speed over that interval,
whatever share of the CPU the scheduler gave it.

    python3 perfbench/hostspeed.py STAMPS_FILE CPU

It pins itself to CPU, and exits when its parent goes away or after
MAX_LIFE_S, whichever comes first, so it cannot outlive a run.
"""

from __future__ import annotations

import os
import sys
import time

BLOCK = 5           # split-step loops between two stamps (about 3 ms of CPU)
N = 8192
MAX_LIFE_S = 175.0


def main(argv: list) -> int:
    stamps, cpu = argv[0], int(argv[1])
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    rng = np.random.default_rng(0)
    psi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    kinetic = np.exp(-1j * np.linspace(0.0, 1.0, N))
    parent = os.getppid()
    end = time.monotonic() + MAX_LIFE_S
    with open(stamps, "w", buffering=1) as out:
        while time.monotonic() < end and os.getppid() == parent:
            for _ in range(BLOCK):
                work = np.fft.ifft(kinetic * np.fft.fft(psi))
                work *= np.exp(1e-3j * (work.real ** 2 + work.imag ** 2))
            out.write(f"{time.monotonic():.9f} {time.process_time():.9f}\n")
    return 0


def read_stamps(path) -> list:
    """(monotonic, probe CPU seconds) pairs, complete lines only."""
    with open(path) as f:
        return [tuple(map(float, line.split())) for line in f if line.endswith("\n")]


def speed(stamps: list, t0: float, t1: float) -> float:
    """Probe blocks per probe CPU second between monotonic times t0 and t1."""
    inside = [cpu for mono, cpu in stamps if t0 <= mono <= t1]
    if len(inside) < 3 or inside[-1] <= inside[0]:
        raise RuntimeError(f"host-speed probe made {len(inside)} blocks in "
                           f"{t1 - t0:.3f} s; it needs 3")
    return (len(inside) - 1) / (inside[-1] - inside[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
