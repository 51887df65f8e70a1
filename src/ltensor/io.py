"""Binary tensor container ("TLT1") and codec-free PPM video ingestion.

Container layout, all little-endian regardless of host:

    magic   4 bytes  b"TLT1"
    order   uint8    N, 2 <= N <= 8
    dims    N x uint64
    dtype   uint8    0 = float64 (integer tensors too), 1 = float32, 2 = complex128, 3 = bool byte (0 or 1)
    payload entries in generalized column-major (Fortran) order
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from .core import _as_array, _too_large
from .errors import FormatError, ParameterError

MAGIC = b"TLT1"
_DTYPES = {
    0: np.dtype("<f8"),
    1: np.dtype("<f4"),
    2: np.dtype("<c16"),
    3: np.dtype("u1"),
}


def _dtype_code(x: np.ndarray) -> int:
    if x.dtype == np.bool_:
        return 3
    if x.dtype == np.float32:
        return 1
    if np.iscomplexobj(x):
        return 2
    return 0


def write_container(path, x) -> None:
    """Write a tensor to the TLT1 container format.

    Raises ``FormatError`` for a ragged sequence, an order outside 2..8 or a
    dtype that is not bool, integer, float or complex, before the file is
    opened.
    """
    try:
        x = np.asarray(x)
    except ValueError as exc:  # numpy's refusal of a ragged nested sequence
        raise FormatError("container holds rectangular arrays, got a ragged sequence") from exc
    if not 2 <= x.ndim <= 8:
        raise FormatError(f"container supports orders 2..8, got {x.ndim}")
    if x.dtype.kind not in "biufc":
        raise FormatError(f"container holds numbers or bools, got dtype {x.dtype}")
    code = _dtype_code(x)
    payload = np.asfortranarray(x).astype(_DTYPES[code], copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([x.ndim]))
        fh.write(np.asarray(x.shape, dtype="<u8").tobytes())
        fh.write(bytes([code]))
        fh.write(payload.tobytes(order="F"))


def read_container(path) -> np.ndarray:
    """Read a tensor from the TLT1 container format."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r} at byte 0, expected {MAGIC!r}")
    if len(data) < 5:
        raise FormatError("truncated header: missing order byte at byte 4")
    order = data[4]
    if not 2 <= order <= 8:
        raise FormatError(f"unsupported order {order} at byte 4")
    dims_end = 5 + 8 * order
    if len(data) < dims_end + 1:
        raise FormatError(f"truncated header: expected dims + dtype up to byte {dims_end}")
    dims = tuple(int(d) for d in np.frombuffer(data[5:dims_end], dtype="<u8"))
    code = data[dims_end]
    if code not in _DTYPES:
        raise FormatError(f"unsupported dtype code {code} at byte {dims_end}")
    dtype = _DTYPES[code]
    expected = math.prod(dims) * dtype.itemsize  # Python ints: no int64 wrap on huge dims
    payload = data[dims_end + 1 :]
    if len(payload) != expected:
        raise FormatError(
            f"payload length {len(payload)} bytes at offset {dims_end + 1}, expected {expected}"
        )
    if _too_large(dims, dtype.itemsize):
        raise FormatError(f"dims {dims} at byte 5 are too large for an array")
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims, order="F")
    if code == 3:
        bad = np.flatnonzero(np.frombuffer(payload, np.uint8) > 1)
        if bad.size:
            i = int(bad[0])
            raise FormatError(f"bool byte {payload[i]} at offset {dims_end + 1 + i}, expected 0 or 1")
        return arr.astype(bool)
    return arr.copy()


_PPM_HEADER = re.compile(rb"^P6\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s")


def _read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    m = _PPM_HEADER.match(data)
    if not m:
        raise FormatError(f"{path}: not a binary P6 PPM file")
    width, height, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=m.end())
    if pixels.size != width * height * 3:
        raise FormatError(
            f"{path}: expected {width * height * 3} pixel bytes, got {pixels.size}"
        )
    if _too_large((height, width, 3), 1):
        raise FormatError(f"{path}: frame of {width} x {height} pixels is too large for an array")
    return pixels.reshape(height, width, 3)


def import_ppm_dir(path) -> np.ndarray:
    """Directory of P6 frames -> H x W x 3 x T float64 tensor in [0, 1].

    Frame order is the lexicographic order of the file names.
    """
    names = sorted(n for n in os.listdir(path) if n.lower().endswith(".ppm"))
    if not names:
        raise FormatError(f"no .ppm frames found in {path}")
    frames = [_read_ppm(os.path.join(path, n)) for n in names]
    shape = frames[0].shape
    for n, f in zip(names, frames):
        if f.shape != shape:
            raise FormatError(f"{n}: frame shape {f.shape} differs from {shape}")
    return np.stack(frames, axis=3).astype(np.float64) / 255.0


def export_ppm_dir(x, path) -> None:
    """H x W x 3 x T tensor in [0, 1] -> numbered P6 frames (round half up)."""
    x = _as_array(x)
    if x.ndim != 4 or x.shape[2] != 3:
        raise FormatError(f"expected an H x W x 3 x T tensor, got shape {x.shape}")
    if np.iscomplexobj(x):
        raise ParameterError("frames must be real, got a complex tensor")
    if not np.isfinite(x).all():
        raise ParameterError("frames hold NaN or inf entries")
    os.makedirs(path, exist_ok=True)
    height, width, _, count = x.shape
    quant = np.floor(np.clip(x, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    digits = max(4, len(str(count)))
    for t in range(count):
        name = os.path.join(path, f"frame_{t:0{digits}d}.ppm")
        with open(name, "wb") as fh:
            fh.write(f"P6\n{width} {height}\n255\n".encode())
            fh.write(quant[:, :, :, t].tobytes())
