"""Binary field snapshots: round trips and malformed-input refusals."""

import struct
import tracemalloc

import numpy as np
import pytest

from nlslab.fieldio import MAGIC, VERSION, load_field, save_field
from nlslab.spectral import ComplexField, GridSpec


def _sample(d):
    n = 32 if d == 1 else 16
    g = GridSpec(d=d, n_per_axis=n, half_width=3.5)
    rng = np.random.default_rng(d)
    return ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))


@pytest.mark.parametrize("d", [1, 2])
def test_round_trip_is_bitwise(tmp_path, d):
    f = _sample(d)
    path = save_field(tmp_path / "f.nlsf", f)
    back = load_field(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_header_layout_is_stable(tmp_path):
    f = _sample(1)
    raw = save_field(tmp_path / "f.nlsf", f).read_bytes()
    magic, version, d, n, half = struct.unpack_from("<4sIIId", raw, 0)
    assert magic == MAGIC == b"NLSF"
    assert version == VERSION == 1
    assert (d, n, half) == (1, 32, 3.5)
    assert len(raw) == struct.calcsize("<4sIIId") + 16 * 32


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "f.nlsf"
    save_field(p, _sample(1))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        load_field(p)


def test_unsupported_version_rejected(tmp_path):
    p = tmp_path / "f.nlsf"
    save_field(p, _sample(1))
    raw = bytearray(p.read_bytes())
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_field(p)


def test_truncation_rejected(tmp_path):
    p = tmp_path / "f.nlsf"
    save_field(p, _sample(1))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(ValueError, match="bytes"):
        load_field(p)
    p.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_field(p)


def test_nonfinite_payload_loads_for_postmortem(tmp_path):
    g = GridSpec(d=1, n_per_axis=16, half_width=1.0)
    vals = np.ones(16, dtype=complex)
    vals[5] = np.inf
    f = ComplexField(g, vals, allow_nonfinite=True)
    back = load_field(save_field(tmp_path / "f.nlsf", f))
    assert np.isinf(back.values[5].real)


def test_save_writes_the_samples_own_buffer_and_load_holds_one_copy(tmp_path):
    g = GridSpec(d=2, n_per_axis=128, half_width=3.5)
    rng = np.random.default_rng(0)
    f = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    path = tmp_path / "f.nlsf"
    save_field(path, f)
    tracemalloc.start()
    try:
        save_field(path, f)
        saved = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_field(path)
        loaded = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header = struct.pack("<4sIIId", MAGIC, VERSION, 2, 128, 3.5)
    assert path.read_bytes() == header + f.values.tobytes()
    assert back.values.tobytes() == f.values.tobytes()
    # a bytes copy of the 256 KiB payload, or a joined one, would show here
    assert saved < f.values.nbytes // 8
    assert loaded < 1.5 * f.values.nbytes
