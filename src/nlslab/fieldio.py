"""Binary snapshot format for complex fields.

Layout (little-endian throughout):

    bytes 0-3    magic "NLSF"
    bytes 4-7    format version, u32 (currently 1)
    bytes 8-11   dimension d, u32
    bytes 12-15  points per axis n, u32
    bytes 16-23  half_width, f64
    bytes 24-    n^d samples, row-major, interleaved (re, im) f64 pairs
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .spectral import ComplexField, GridSpec

MAGIC = b"NLSF"
VERSION = 1
_HEADER = struct.Struct("<4sIIId")

__all__ = ["MAGIC", "VERSION", "save_field", "load_field"]


def save_field(path, f: ComplexField) -> Path:
    path = Path(path)
    g = f.grid
    with path.open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.d, g.n_per_axis, g.half_width))
        # the samples' own buffer: no bytes copy of the payload
        fh.write(np.ascontiguousarray(f.values, dtype="<c16"))
    return path


def load_field(path) -> ComplexField:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, d, n, half_width = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        grid = GridSpec(d, n, half_width)
        expected = _HEADER.size + 16 * grid.size
        found = Path(path).stat().st_size
        if found != expected:
            raise ValueError(f"{path}: expected {expected} bytes, found {found}")
        vals = np.fromfile(fh, dtype="<c16", count=grid.size).astype(np.complex128, copy=False)
    return ComplexField._adopt(grid, vals.reshape(grid.shape), allow_nonfinite=True)
