"""Output checks behind ok_frac and ``correct``.

Checks read each run's ``summary.json`` and artifacts, never exit codes:
``nlslab evolve`` exits 3 whenever a run blows up, and in collapse_sweep
that is the expected outcome.  Per config:

- the verdict label and the outcome are the expected ones;
- ``final.nlsf`` loads through ``load_field`` and its mass matches the
  last trajectory row;
- townes_2d: the whole-space V'' bound margin is at least -1e-8;
- collapse_sweep: each amplitude's blow-up times at n = 1024 and 2048
  agree within 10 %, as acceptance gate 08 requires;
- every artifact except the summary's ``timing`` block is byte-identical
  to the same config's first call in this benchmark run.
"""

from __future__ import annotations

import json
from pathlib import Path

from nlslab.fieldio import load_field
from nlslab.functionals import mass

MASS_RTOL = 1e-12
MARGIN_FLOOR = -1e-8
DETECTION_RTOL = 0.10


def run_steps(summary: dict) -> int:
    """Time steps advanced, from the outcome and abort time (evolve nudges
    dt so that a whole number of steps lands on t_final)."""
    st = summary["stepper"]
    n = max(int(round(st["t_final"] / st["dt"])), 1)
    if summary["outcome"] == "completed" or summary["abort_time"] is None:
        return n
    return int(round(summary["abort_time"] / (st["t_final"] / n)))


def _artifacts(run_dir: Path) -> dict:
    out = {}
    for path in sorted(run_dir.iterdir()):
        if path.name == "summary.json":
            summary = json.loads(path.read_text())
            summary.pop("timing", None)
            out[path.name] = json.dumps(summary, sort_keys=True).encode()
        else:
            out[path.name] = path.read_bytes()
    return out


def _last_row_mass(trajectory: Path) -> float:
    lines = trajectory.read_text().splitlines()
    col = lines[0].split(",").index("mass")
    return float(lines[-1].split(",")[col])


class Checker:
    def __init__(self, workload: str, cases: list):
        self.workload = workload
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.failures = []        # (config stem or "-", reason)
        self.reference = {}       # stem -> first call's artifacts

    def _check_config(self, case, run_dir: Path):
        """Returns (summary or None, list of failed checks)."""
        try:
            summary = json.loads((run_dir / "summary.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return None, [f"summary.json unreadable: {exc}"]
        bad = []
        label = (summary.get("verdict") or {}).get("set_label")
        if label != case.label:
            bad.append(f"verdict {label!r}, expected {case.label!r}")
        if summary.get("outcome") != case.outcome:
            bad.append(f"outcome {summary.get('outcome')!r}, expected {case.outcome!r}")
        try:
            final = load_field(run_dir / "final.nlsf")
            m_final, m_row = mass(final), _last_row_mass(run_dir / "trajectory.csv")
            if not abs(m_final - m_row) <= MASS_RTOL * abs(m_row):
                bad.append(f"final.nlsf mass {m_final!r} != last trajectory row {m_row!r}")
        except (OSError, ValueError) as exc:
            bad.append(f"final field or trajectory unreadable: {exc}")
        if self.workload == "townes_2d":
            margin = (summary.get("virial") or {}).get("min_bound_margin")
            if margin is None or not margin >= MARGIN_FLOOR:
                bad.append(f"whole-space V'' bound margin {margin!r} < {MARGIN_FLOOR}")
        artifacts = _artifacts(run_dir)
        ref = self.reference.setdefault(case.stem, artifacts)
        if artifacts != ref:
            differ = sorted(k for k in set(ref) | set(artifacts)
                            if ref.get(k) != artifacts.get(k))
            bad.append(f"artifacts differ from the first call: {', '.join(differ)}")
        return summary, bad

    def _detection_agreement(self, summaries: dict) -> dict:
        """collapse_sweep: blow-up time at n = 1024 against n = 2048."""
        bad = {}
        for case in self.cases:
            if case.outcome != "blowup_detected" or case.n != 1024:
                continue
            twin = case.stem.replace("_n1024", "_n2048")
            a, b = summaries.get(case.stem), summaries.get(twin)
            ta = a and a["blowup"]["time"]
            tb = b and b["blowup"]["time"]
            if ta is None or tb is None or abs(ta - tb) > DETECTION_RTOL * tb:
                reason = f"detection times {ta!r} (n=1024) and {tb!r} (n=2048) differ > 10%"
                bad[case.stem] = bad[twin] = reason
        return bad

    def check_call(self, call: dict) -> dict:
        """Check one evolve call; returns its steps, records and worst
        energy drift over completed runs."""
        summaries, bad = {}, {}
        for case in self.cases:
            summary, reasons = self._check_config(case, call["dirs"][case.stem])
            if summary is not None:
                summaries[case.stem] = summary
            if reasons:
                bad[case.stem] = "; ".join(reasons)
        for stem, reason in self._detection_agreement(summaries).items():
            bad[stem] = f"{bad[stem]}; {reason}" if stem in bad else reason
        self.attempted += len(self.cases)
        self.failed += len(bad)
        self.failures += sorted(bad.items())
        done = [s for s in summaries.values() if s["outcome"] == "completed"]
        return {
            "steps": sum(run_steps(s) for s in summaries.values()),
            "records": sum(s["snapshots_recorded"] for s in summaries.values()),
            "energy_drift": max((s["drifts"]["energy_rel"] for s in done), default=0.0),
        }

    def check_counts_repeat(self, breakdowns: list):
        """Exact counts of traced calls of one workload must repeat exactly."""
        for key in ("propagator.steps", "groundstate.solves", "fieldio.bytes_written"):
            seen = {b[key] for b in breakdowns}
            if len(seen) > 1:
                self.failures.append(("-", f"{key} differs between traced calls: {sorted(seen)}"))

    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    def correct(self) -> bool:
        return not self.failures

    def print_failures(self):
        for stem, reason in self.failures:
            print(f"check failed [{stem}]: {reason}")
