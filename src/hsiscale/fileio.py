"""On-disk formats: HSIC cubes, CSV matrices, raw float32 matrices.

HSIC layout (little-endian): magic ``HSIC``, u16 version (=1), u16 reserved
(=0), u32 bands, u32 height, u32 width, then bands*height*width float32
values in band-major order. Payloads are float32, so a file read back and
rewritten is byte-identical.

Matrices travel either as CSV with a one-line ``rows,cols`` header or as
raw float32 with a u32 ``rows``, u32 ``cols`` header; the extension
(``.csv`` vs anything else, conventionally ``.f32``) selects the format.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .cube import HsiCube
from .errors import DimensionError, FormatError, ValidationError

MAGIC = b"HSIC"
VERSION = 1
_HEADER = struct.Struct("<4sHHIII")

# refuse headers whose element count cannot be a real payload
MAX_ELEMENTS = 1 << 40


def _float32_payload(values: np.ndarray) -> np.ndarray:
    """Little-endian float32 copy; refuses finite values the cast turns into inf."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(values, dtype="<f4")
    overflow = np.isinf(payload) & np.isfinite(values)
    if overflow.any():
        value = float(values.flat[int(np.argmax(overflow))])
        raise ValidationError(f"value {value!r} is beyond the float32 range of the file format")
    return payload


def write_cube(cube: HsiCube, path) -> None:
    payload = _float32_payload(cube.data)
    header = _HEADER.pack(MAGIC, VERSION, 0, cube.bands, cube.height, cube.width)
    Path(path).write_bytes(header + payload.tobytes())


def read_cube(path) -> HsiCube:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"file too short for header: {len(raw)} bytes", offset=0)
    magic, version, _reserved, n_bands, height, width = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if min(n_bands, height, width) < 1:
        raise FormatError(f"dimensions must be positive, got {n_bands}x{height}x{width}", offset=8)
    count = n_bands * height * width
    if count > MAX_ELEMENTS:
        raise FormatError(f"dimension overflow: {n_bands}x{height}x{width} elements", offset=8)
    expected = _HEADER.size + 4 * count
    if len(raw) != expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(raw)}",
            offset=_HEADER.size,
        )
    with np.errstate(invalid="ignore"):  # a signalling NaN casts to NaN, which HsiCube refuses
        values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    return HsiCube(values.reshape(n_bands, height, width))


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    rows, cols = matrix.shape
    with open(path, "w") as fh:
        fh.write(f"{rows},{cols}\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    # undecodable bytes become U+FFFD, which the header and body parsers reject
    with open(path, errors="replace") as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(tok) for tok in header.split(","))
        except ValueError:
            raise FormatError(f"bad CSV header {header!r}, expected 'rows,cols'", offset=0)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise FormatError(f"CSV body does not parse: {exc}") from exc
    if data.shape != (rows, cols):
        raise FormatError(f"CSV body is {data.shape}, header claims ({rows}, {cols})")
    return data


def write_matrix_f32(matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    rows, cols = matrix.shape
    payload = _float32_payload(matrix)
    Path(path).write_bytes(struct.pack("<II", rows, cols) + payload.tobytes())


def read_matrix_f32(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise FormatError(f"file too short for matrix header: {len(raw)} bytes", offset=0)
    rows, cols = struct.unpack_from("<II", raw, 0)
    if rows * cols > MAX_ELEMENTS:
        raise FormatError(f"dimension overflow: {rows}x{cols} elements", offset=0)
    expected = 8 + 4 * rows * cols
    if len(raw) != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {len(raw)}", offset=8)
    with np.errstate(invalid="ignore"):  # a signalling NaN casts to NaN, like a quiet one
        return np.frombuffer(raw, dtype="<f4", offset=8).astype(np.float64).reshape(rows, cols)


def save_vector(values: np.ndarray, path) -> None:
    """Write a vector as a one-column matrix, CSV or raw float32 by the extension."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {values.shape}")
    write = write_matrix_csv if str(path).endswith(".csv") else write_matrix_f32
    write(values.reshape(-1, 1), path)


def load_vector(path) -> np.ndarray:
    matrix = read_matrix_csv(path) if str(path).endswith(".csv") else read_matrix_f32(path)
    if 1 not in matrix.shape:
        raise DimensionError(f"expected a vector-shaped matrix, got {matrix.shape}")
    return matrix.reshape(-1)
