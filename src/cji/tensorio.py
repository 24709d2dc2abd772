"""Bit-exact tensor file format.

ASCII header line ``CJI f64 <ndim> <dim1> ... <dimk>\n`` followed by the
row-major little-endian IEEE-754 64-bit payload.  Trivial to read from any
language; round-trips exactly.
"""

from __future__ import annotations

import math

import numpy as np

MAGIC = "CJI"
DTYPE = np.dtype("<f8")
HEADER_BYTES = 4096


def write_tensor(path, array) -> None:
    array = np.ascontiguousarray(np.asarray(array, dtype=float))
    header = " ".join([MAGIC, "f64", str(array.ndim), *map(str, array.shape)])
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        fh.write(array.astype(DTYPE, copy=False).tobytes())


def read_tensor(path) -> np.ndarray:
    """The tensor in the file at path.  A header that is not one line of at
    most HEADER_BYTES bytes, a dimension that is not a non-negative integer,
    and a payload that is not exactly the header's size are each a
    ValueError naming the path."""
    with open(path, "rb") as fh:
        line = fh.readline(HEADER_BYTES)
        if not line.endswith(b"\n"):
            raise ValueError(f"{path}: no header line in the first {HEADER_BYTES} bytes")
        fields = line.decode("ascii", "replace").split()
        if len(fields) < 3 or fields[0] != MAGIC or fields[1] != "f64":
            raise ValueError(f"{path}: not a {MAGIC} f64 tensor file")
        bad = next((v for v in fields[2:] if not v.isdigit()), None)
        if bad is not None:
            raise ValueError(f"{path}: header dimension {bad!r} is not a non-negative integer")
        ndim, *shape = map(int, fields[2:])
        if len(shape) != ndim:
            raise ValueError(f"{path}: header dimension count mismatch")
        size = math.prod(shape) * DTYPE.itemsize
        payload = fh.read()
    if len(payload) != size:
        raise ValueError(f"{path}: payload of {len(payload)} bytes, but the header gives {size}")
    return np.frombuffer(payload, dtype=DTYPE).reshape(shape).copy()
