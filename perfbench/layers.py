"""Per-layer metrics from a traced evolve call (see tracer.py).

A span's self time is its duration minus its direct children's.  Layers
are named after the nlslab modules; ``cli.startup_s`` is the traced
process wall time outside every ``run_experiment`` span, so the layer
self times add up to the traced wall time exactly.  Per-call times are
in us, totals in ms or s.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

UNITS = {
    "propagator.steps": "count",
    "propagator.records": "count",
    "propagator.self_s": "s",
    "propagator.us_per_step": "us",
    "propagator.record_us": "us",
    "propagator.proxy_ms": "ms",
    "spectral.tail_us": "us",
    "spectral.tail_calls": "count",
    "spectral.edge_us": "us",
    "spectral.edge_calls": "count",
    "functionals.snapshot_us": "us",
    "functionals.snapshot_calls": "count",
    "virial.row_us": "us",
    "virial.rows": "count",
    "groundstate.solves": "count",
    "groundstate.solve_s": "s",
    "groundstate.failures": "count",
    "classifier.calls": "count",
    "classifier.classify_ms": "ms",
    "fieldio.saves": "count",
    "fieldio.loads": "count",
    "fieldio.bytes_written": "B",
    "fieldio.bytes_read": "B",
    "fieldio.save_ms": "ms",
    "fieldio.load_ms": "ms",
    "experiment.runs": "count",
    "experiment.self_s": "s",
    "cli.startup_s": "s",
    "kernel.step_us": "us",
    "kernel.free_step_us": "us",
    "kernel.phase_us": "us",
    "kernel.fft_pair_us": "us",
    "kernel.snapshot_us": "us",
    "kernel.working_set_bytes": "B",
    "trace.overhead_frac": "frac",
    "trace.missing_names": "count",
}

LAYERS = ("cli", "experiment", "propagator", "spectral", "functionals", "virial",
          "groundstate", "classifier", "fieldio")


def _per_call(total_s: float, calls: int, scale: float) -> float:
    return total_s / calls * scale if calls else 0.0


def breakdown(call: dict, result: dict) -> dict:
    """Per-layer metrics of one traced call; result holds the steps and
    records counted from the call's summaries."""
    trace = call["trace"]
    if trace is None:
        raise RuntimeError("traced call wrote no spans")
    spans = trace["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    count, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    record_s = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        count[name] += 1
        total[name] += dur[i]
        own[name] += dur[i] - child[i]
        if parent >= 0 and spans[parent][0] == "propagator.evolve":
            record_s += dur[i]

    steps, records = result["steps"], result["records"]
    rows = count["virial.derivatives"] + count["virial.whole_space"]
    virial_s = total["virial.value"] + total["virial.derivatives"] + total["virial.whole_space"]
    startup = call["wall"] - total["experiment.run"]
    m = {
        "propagator.steps": steps,
        "propagator.records": records,
        "propagator.self_s": own["propagator.evolve"],
        "propagator.us_per_step": _per_call(own["propagator.evolve"], steps, 1e6),
        "propagator.record_us": _per_call(record_s, records, 1e6),
        "propagator.proxy_ms": total["propagator.proxy"] * 1e3,
        "spectral.tail_us": _per_call(total["spectral.tail"], count["spectral.tail"], 1e6),
        "spectral.tail_calls": count["spectral.tail"],
        "spectral.edge_us": _per_call(total["spectral.edge"], count["spectral.edge"], 1e6),
        "spectral.edge_calls": count["spectral.edge"],
        "functionals.snapshot_us": _per_call(
            total["functionals.snapshot"], count["functionals.snapshot"], 1e6),
        "functionals.snapshot_calls": count["functionals.snapshot"],
        "virial.row_us": _per_call(virial_s, rows, 1e6),
        "virial.rows": rows,
        "groundstate.solves": count["groundstate.solve"],
        "groundstate.solve_s": total["groundstate.solve"],
        "groundstate.failures": trace["counters"]["groundstate.failures"],
        "classifier.calls": count["classifier.classify"],
        "classifier.classify_ms": total["classifier.classify"] * 1e3,
        "fieldio.saves": count["fieldio.save"],
        "fieldio.loads": count["fieldio.load"],
        "fieldio.bytes_written": trace["counters"]["fieldio.bytes_written"],
        "fieldio.bytes_read": trace["counters"]["fieldio.bytes_read"],
        "fieldio.save_ms": total["fieldio.save"] * 1e3,
        "fieldio.load_ms": total["fieldio.load"] * 1e3,
        "experiment.runs": count["experiment.run"],
        "experiment.self_s": own["experiment.run"],
        "cli.startup_s": startup,
        "trace.missing_names": len(trace["missing"]),
    }
    layer_self = defaultdict(float)
    layer_spans = defaultdict(int)
    for name in count:
        layer = name.split(".")[0]
        layer_self[layer] += own[name]
        layer_spans[layer] += count[name]
    layer_self["cli"] = startup
    layer_spans["cli"] = 1
    m["_layer_self"] = dict(layer_self)
    m["_layer_spans"] = dict(layer_spans)
    m["_missing"] = list(trace["missing"])
    return m


def median_metrics(breakdowns: list) -> dict:
    return {name: statistics.median(b[name] for b in breakdowns)
            for name in breakdowns[0] if not name.startswith("_")}


def report(workload: str, metrics: dict, breakdowns: list,
           untraced_wall: float, traced_wall: float):
    """Print the layer breakdown, the accounting against the untraced wall
    time, and every per-layer metric by name with its unit."""
    first = breakdowns[0]
    print(f"{workload}: {len(breakdowns)} traced evolve calls; "
          f"untraced wall {untraced_wall:.4f} s, traced wall {traced_wall:.4f} s")
    for layer in LAYERS:
        if not first["_layer_spans"].get(layer):
            gone = [qual for qual, name in first["_missing"] if name.startswith(layer + ".")]
            why = f" (missing names: {', '.join(gone)})" if gone else ""
            print(f"  layer {layer:<12} not observed{why}")
            continue
        own = statistics.median(b["_layer_self"].get(layer, 0.0) for b in breakdowns)
        print(f"  layer {layer:<12} self {own:9.4f} s  {100 * own / traced_wall:5.1f} % of traced wall")
    total_self = statistics.median(sum(b["_layer_self"].values()) for b in breakdowns)
    print(f"  layer self times sum to {total_self:.4f} s, the traced wall; they exceed the "
          f"untraced wall time by trace.overhead_frac = {metrics['trace.overhead_frac']:+.2%}")
    for name, unit in UNITS.items():
        print(f"  {name:<28} {metrics[name]:.6g} {unit}")
