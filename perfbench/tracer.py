"""Traced ``nlslab`` command: spans around the public layer functions.

    python perfbench/tracer.py SPANS.json evolve --threads 1 --config ...

Before calling ``nlslab.cli.main(argv)`` once, this wraps each function
in TARGETS at the name its caller looks up, so the program runs
unchanged apart from the wrappers.  Each call records a span (name,
start, end, parent span) in memory; the spans, a few counters and the
list of names that no longer exist are written to SPANS.json at exit.
A missing name is recorded, not fatal, so that the trace survives
refactors of the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute looked up by the caller, span name); the span name's
# prefix is the layer the time is booked to.
TARGETS = (
    ("nlslab.cli", "run_experiment", "experiment.run"),
    ("nlslab.experiment", "evolve", "propagator.evolve"),
    ("nlslab.experiment", "scattering_proxy", "propagator.proxy"),
    ("nlslab.propagator", "snapshot", "functionals.snapshot"),
    ("nlslab.propagator", "spectral_tail_fraction", "spectral.tail"),
    ("nlslab.propagator", "edge_mass_fraction", "spectral.edge"),
    ("nlslab.propagator", "virial_value", "virial.value"),
    ("nlslab.propagator", "virial_derivatives", "virial.derivatives"),
    ("nlslab.propagator", "whole_space_virial_e2", "virial.whole_space"),
    ("nlslab.experiment", "solve_ground_state", "groundstate.solve"),
    ("nlslab.experiment", "classify", "classifier.classify"),
    ("nlslab.experiment", "save_field", "fieldio.save"),
    ("nlslab.experiment", "load_field", "fieldio.load"),
)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {"fieldio.bytes_written": 0, "fieldio.bytes_read": 0,
                         "groundstate.failures": 0}
        self.missing = []

    def wrap(self, fn, name):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "fieldio.load":
                counters["fieldio.bytes_read"] += os.stat(args[0]).st_size
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "groundstate.solve":
                    counters["groundstate.failures"] += 1
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if name == "fieldio.save":
                counters["fieldio.bytes_written"] += os.stat(args[0]).st_size
            return result

        return traced

    def install(self, targets=TARGETS):
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append([f"{module_name}.{attr}", name])
                continue
            setattr(module, attr, self.wrap(fn, name))

    def dump(self, path, exit_code):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "missing": self.missing, "exit_code": exit_code}, fh)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import nlslab.cli

    code = 3
    try:
        code = nlslab.cli.main(argv)
    finally:
        tracer.dump(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
