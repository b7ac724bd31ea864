"""On-disk formats: HSIC cubes, CSV matrices, raw float32 matrices.

HSIC layout (little-endian): magic ``HSIC``, u16 version (=1), u16 reserved
(=0), u32 bands, u32 height, u32 width, then bands*height*width float32
values in band-major order. Payloads are float32, so a file read back and
rewritten is byte-identical.

Matrices travel either as CSV with a one-line ``rows,cols`` header or as
raw float32 with a u32 ``rows``, u32 ``cols`` header; the extension
(``.csv`` vs anything else, conventionally ``.f32``) selects the format.
CSV values carry 17 significant digits and read back exactly. The float32
writers refuse a value beyond the float32 range before creating the file.
Payloads are written and read a chunk at a time: a reader holds the decoded
float64 array and one chunk, never the raw bytes beside it.
"""

from __future__ import annotations

import math
import os
import struct
import warnings

import numpy as np

from .cube import CHUNK_BYTES, HsiCube, page_array
from .errors import DimensionError, FormatError, ValidationError

MAGIC = b"HSIC"
VERSION = 1
_HEADER = struct.Struct("<4sHHIII")
_MATRIX_HEADER = struct.Struct("<II")

# refuse headers whose element count cannot be a real payload
MAX_ELEMENTS = 1 << 40


def _write_float32(path, header: bytes, values: np.ndarray) -> None:
    """Write ``header``, then ``values`` in C order as float32, a chunk at a time.

    Every chunk is range-checked before the file is created, so a value
    beyond the float32 range leaves no file behind.
    """
    flat = np.ravel(values)  # a view, unless values is not contiguous
    step = CHUNK_BYTES // 8
    chunks = [flat[start:start + step] for start in range(0, flat.size, step)]
    with np.errstate(over="ignore"):
        for chunk in chunks:
            overflow = np.isinf(chunk.astype("<f4")) & np.isfinite(chunk)
            if overflow.any():
                value = float(chunk[int(np.argmax(overflow))])
                raise ValidationError(f"value {value!r} is beyond the float32 range of the file format")
        with open(path, "wb") as fh:
            fh.write(header)
            for chunk in chunks:
                fh.write(chunk.astype("<f4"))


def _read_header(fh, header: struct.Struct, what: str) -> tuple[int, tuple]:
    """The file's size and its unpacked ``header``, refusing a file too short for it."""
    size = os.fstat(fh.fileno()).st_size
    raw = fh.read(header.size)
    if len(raw) < header.size:
        raise FormatError(f"file too short for {what}: {size} bytes", offset=0)
    return size, header.unpack(raw)


def _read_float32(fh, size: int, header_size: int, shape: tuple[int, ...]) -> np.ndarray:
    """The float32 payload after a ``header_size``-byte header of a ``size``-byte file,
    read a chunk at a time into a float64 array of ``shape``."""
    count = math.prod(shape)
    if count > MAX_ELEMENTS:  # points at the dimensions, the header's last fields
        dims = "x".join(map(str, shape))
        raise FormatError(f"dimension overflow: {dims} elements", offset=header_size - 4 * len(shape))
    expected = header_size + 4 * count
    if size != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {size}", offset=header_size)
    out = page_array(shape)
    flat = out.reshape(-1)
    step = CHUNK_BYTES // 8
    buffer = np.empty(min(count, step), dtype="<f4")
    with np.errstate(invalid="ignore"):  # a signalling NaN casts to a quiet one
        for start in range(0, count, step):
            chunk = buffer[:count - start]
            got = fh.readinto(chunk)
            if got != chunk.nbytes:  # the file shrank after its size was taken
                size = header_size + 4 * start + got
                raise FormatError(f"truncated payload: expected {expected} bytes, got {size}", offset=header_size)
            flat[start:start + chunk.size] = chunk
    return out


def write_cube(cube: HsiCube, path) -> None:
    _write_float32(path, _HEADER.pack(MAGIC, VERSION, 0, cube.bands, cube.height, cube.width), cube.data)


def read_cube(path) -> HsiCube:
    with open(path, "rb") as fh:
        size, (magic, version, _reserved, n_bands, height, width) = _read_header(fh, _HEADER, "header")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        if min(n_bands, height, width) < 1:
            raise FormatError(f"dimensions must be positive, got {n_bands}x{height}x{width}", offset=8)
        data = _read_float32(fh, size, _HEADER.size, (n_bands, height, width))
    return HsiCube(data)


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header="%d,%d" % matrix.shape, comments="")


def read_matrix_csv(path) -> np.ndarray:
    # undecodable bytes become U+FFFD, which the header and body parsers reject
    with open(path, errors="replace") as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(tok) for tok in header.split(","))
        except ValueError:
            raise FormatError(f"bad CSV header {header!r}, expected 'rows,cols'", offset=0)
        try:
            with warnings.catch_warnings():  # an empty body is refused below, not warned about
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise FormatError(f"CSV body does not parse: {exc}") from exc
    if data.shape != (rows, cols):
        body = "empty" if data.size == 0 else data.shape
        raise FormatError(f"CSV body is {body}, header claims ({rows}, {cols})")
    return data


def write_matrix_f32(matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    _write_float32(path, _MATRIX_HEADER.pack(*matrix.shape), matrix)


def read_matrix_f32(path) -> np.ndarray:
    with open(path, "rb") as fh:
        size, shape = _read_header(fh, _MATRIX_HEADER, "matrix header")
        return _read_float32(fh, size, _MATRIX_HEADER.size, shape)


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
