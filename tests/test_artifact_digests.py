"""Golden digests: the files a run writes, checked bit for bit against a
committed manifest.

Three short fixed configs run through `nlslab evolve`: a shortened README
demo (1-D E1 p = 7, n = 8192, localized virial rows), gate 08's A_minus
collapse flights at n = 1024 and 2048 in one call, and a 2-D E2 p = 4
flight of c Q_Townes read from an .nlsf file, with the whole-space
virial.  Each artifact is hashed with SHA-256; summary.json is hashed
without its timing block, dumped with sorted keys.

The bits of a run depend on numpy's FFT and ufunc code paths and on the
C library's pow, so the manifest is keyed by a platform fingerprint:
numpy's version, the machine, and a digest of a few fixed computations
whose bits the platform sets.  On a fingerprint the manifest lacks, the
test skips and names the fingerprint.  A change that moves bits on
purpose records the manifest in the same commit:

    python tests/test_artifact_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

MANIFEST = Path(__file__).with_name("artifact_digests.json")
RECORD = "python tests/test_artifact_digests.py --record"

_E1_P7 = "[model]\nd = 1\np = 7.0\nomega = 1.0\nequation = E1\n"

DEMO = _E1_P7 + """
[grid]
n_per_axis = 8192
half_width = 700.0

[stepper]
dt = 1e-3
t_final = 0.3
snapshot_every = 50
checkpoint_every = 100
tail_fraction_max = 1e-5
edge_mass_max = 1e-5

[initial_data]
kind = scaled_ground_state
c = 0.7

[outputs]
virial_radius = 12.0
"""

MINUS = _E1_P7 + """
[grid]
n_per_axis = {n}
half_width = 15.0

[stepper]
dt = 1e-5
t_final = 1.5
snapshot_every = 25
blowup_grad_factor = 10.0
tail_fraction_max = 3e-3
edge_mass_max = 1e-8

[initial_data]
kind = scaled_ground_state
c = 1.41
"""

TOWNES = """
[model]
d = 2
p = 4.0
omega = 1.0
equation = E2

[grid]
n_per_axis = 128
half_width = 16.0

[stepper]
dt = 1e-3
t_final = 0.1
snapshot_every = 10
checkpoint_every = 50
tail_fraction_max = 1e-5
edge_mass_max = 1e-8

[initial_data]
kind = file
path = townes.nlsf

[outputs]
whole_space_virial = true
"""

# each nlslab evolve call: its name and its configs, by file stem
CALLS = {
    "demo": {"demo": DEMO},
    "collapse": {f"minus_n{n}": MINUS.format(n=n) for n in (1024, 2048)},
    "townes": {"townes": TOWNES},
}


def fingerprint() -> str:
    """numpy's version, the machine, and the first 16 hex digits of the
    SHA-256 of fixed computations whose bits the platform sets: a
    pocketfft transform, np.cos, np.sin, np.power, a complex exp, product
    and modulus (numpy's SIMD loops), and Python's float ** (the C
    library's pow)."""
    x = np.linspace(-40.0, 40.0, 4099)
    z = x * np.exp(-0.01 * x * x) + 1j * np.sin(0.3 * x)
    h = hashlib.sha256()
    for a in (np.fft.fft(z), np.fft.ifft(z[:1000]), np.cos(x), np.sin(x),
              np.power(np.abs(x), 3.7), np.exp(1j * x), z * z[::-1], np.abs(z)):
        h.update(a.tobytes())
    h.update(struct.pack("<64d", *((1.0 + k / 97.0) ** (2.7 + k / 31.0) for k in range(64))))
    return f"numpy-{np.__version__}-{platform.machine()}-{h.hexdigest()[:16]}"


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        del summary["timing"]
        data = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_digests(workdir: Path) -> dict:
    """Run every call in workdir and return {relative path: SHA-256} of
    every file the runs wrote."""
    from nlslab.cli import main
    from nlslab.fieldio import save_field
    from nlslab.functionals import ModelParams
    from nlslab.groundstate import ground_state_field, solve_ground_state
    from nlslab.spectral import ComplexField, make_grid

    workdir = Path(workdir)
    gs = solve_ground_state(ModelParams(d=2, p=4.0, omega=1.0, equation="E2"),
                            which="mass_critical")
    q = ground_state_field(gs, make_grid(2, 128, 16.0))
    save_field(workdir / "townes.nlsf", ComplexField(q.grid, 0.82**0.5 * q.values))
    here = os.getcwd()
    # the configs name their inputs and outputs relative to workdir
    os.chdir(workdir)
    try:
        for call, configs in CALLS.items():
            args = ["evolve", "--threads", "1", "--out", f"runs/{call}"]
            for stem, text in configs.items():
                Path(f"{stem}.ini").write_text(text)
                args += ["--config", f"{stem}.ini"]
            # 3: the collapse flights abort, as their summaries record
            assert main(args) in (0, 3)
    finally:
        os.chdir(here)
    runs = workdir / "runs"
    return {p.relative_to(runs).as_posix(): _digest(p)
            for p in sorted(runs.rglob("*")) if p.is_file()}


def test_artifacts_match_the_recorded_digests(tmp_path):
    key = fingerprint()
    recorded = json.loads(MANIFEST.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"no artifact digests recorded for platform fingerprint {key}; "
                    f"record them with: {RECORD}")
    got = run_digests(tmp_path)
    assert sorted(got) == sorted(recorded)
    moved = [name for name in recorded if got[name] != recorded[name]]
    assert not moved, f"artifacts whose bits moved: {moved}"


def _record() -> int:
    import tempfile

    key = fingerprint()
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest[key] = run_digests(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(manifest[key])} digests for {key}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(_record())
