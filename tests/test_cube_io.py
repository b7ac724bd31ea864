import os
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsiscale import (
    DimensionError,
    FormatError,
    GroundTruth,
    HsiCube,
    ValidationError,
    read_cube,
    write_cube,
)
import hsiscale.fileio as fileio_module
from hsiscale.cube import CHUNK_BYTES, page_array
from hsiscale.fileio import (
    load_vector,
    read_matrix_csv,
    read_matrix_f32,
    save_vector,
    write_matrix_csv,
    write_matrix_f32,
)


def test_cube_rejects_negative_values():
    data = np.ones((2, 2, 2))
    data[0, 0, 0] = -0.5
    with pytest.raises(ValidationError):
        HsiCube(data)


def test_cube_rejects_non_finite():
    data = np.ones((2, 2, 2))
    data[1, 1, 1] = np.nan
    with pytest.raises(ValidationError):
        HsiCube(data)


def test_cube_rejects_bad_shape():
    with pytest.raises(DimensionError):
        HsiCube(np.ones((3, 4)))


def test_pixel_matrix_raster_order():
    data = np.arange(12.0).reshape(2, 2, 3)
    cube = HsiCube(data)
    pm = cube.pixel_matrix()
    # pixel (row=1, col=0) is raster index 3
    assert np.array_equal(pm[:, 3], cube.data[:, 1, 0])


def test_roundtrip_small_cube(tmp_path):
    cube = HsiCube(np.arange(12.0).reshape(3, 2, 2))
    path = tmp_path / "c.hsic"
    write_cube(cube, path)
    back = read_cube(path)
    assert np.array_equal(back.data, cube.data)


def test_write_read_write_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    cube = HsiCube(rng.uniform(0.0, 1.0, (4, 3, 5)).astype(np.float32).astype(np.float64))
    p1, p2 = tmp_path / "a.hsic", tmp_path / "b.hsic"
    write_cube(cube, p1)
    write_cube(read_cube(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hsic"
    path.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(FormatError) as err:
        read_cube(path)
    assert err.value.offset == 0


def test_truncated_payload_names_byte_counts(tmp_path):
    cube = HsiCube(np.ones((3, 2, 2)))
    path = tmp_path / "t.hsic"
    write_cube(cube, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError) as err:
        read_cube(path)
    msg = str(err.value)
    assert str(len(raw)) in msg and str(len(raw) - 5) in msg


def test_dimension_overflow(tmp_path):
    path = tmp_path / "huge.hsic"
    header = struct.pack("<4sHHIII", b"HSIC", 1, 0, 2**30, 2**30, 4)
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_cube(path)


def test_float32_writers_golden_bytes(tmp_path):
    # the documented layouts, packed by hand: the shared writer must not drift from them
    data = np.arange(24.0).reshape(2, 3, 4) / 7.0
    write_cube(HsiCube(data), tmp_path / "c.hsic")
    header = b"HSIC" + b"\x01\x00" + b"\x00\x00" + b"\x02\x00\x00\x00" + b"\x03\x00\x00\x00" + b"\x04\x00\x00\x00"
    assert (tmp_path / "c.hsic").read_bytes() == header + data.astype("<f4").tobytes()

    m = np.array([[0.1, -2.5, 3.0e38], [-0.0, 1e-45, 7.0]])
    write_matrix_f32(m, tmp_path / "m.f32")
    header = b"\x02\x00\x00\x00" + b"\x03\x00\x00\x00"
    assert (tmp_path / "m.f32").read_bytes() == header + m.astype("<f4").tobytes()


def peak_of(call):
    """Peak bytes traced while ``call`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_cube_streams_the_payload(tmp_path):
    cube = HsiCube(np.random.default_rng(4).uniform(0.0, 1.0, (64, 256, 256)))
    path = tmp_path / "big.hsic"
    _, peak = peak_of(lambda: write_cube(cube, path))
    assert path.stat().st_size > 16 << 20
    # one float32 chunk and the range check's masks, never the whole payload
    assert peak <= CHUNK_BYTES


def test_read_cube_holds_the_decoded_array_and_one_chunk(tmp_path):
    path = tmp_path / "big.hsic"
    write_cube(HsiCube(np.random.default_rng(5).uniform(0.0, 1.0, (64, 256, 256))), path)
    assert path.stat().st_size > 16 << 20
    cube, peak = peak_of(lambda: read_cube(path))
    assert peak <= cube.data.nbytes + CHUNK_BYTES


def test_cube_validation_allocates_no_cube_sized_mask():
    data = np.random.default_rng(6).uniform(0.0, 1.0, (64, 256, 256))
    _, peak = peak_of(lambda: HsiCube(data))
    assert peak < 64 << 10


def test_page_array_keeps_arrays_of_a_chunk_off_the_heap():
    small = page_array((3, 4))
    assert small.shape == (3, 4) and small.dtype == np.float64
    big, peak = peak_of(lambda: page_array((64, 256, 256)))
    assert big.shape == (64, 256, 256) and big.dtype == np.float64
    assert big.flags.c_contiguous and big.flags.writeable
    assert peak < 64 << 10  # the pages are its own, not malloc's
    big[...] = 2.0
    assert float(big.sum()) == 2.0 * big.size


@pytest.mark.parametrize(
    "bad, message",
    [
        ([(0, 0, 1, np.nan), (1, 1, 0, -0.5)], "non-finite"),  # both: non-finite first
        ([(1, 0, 0, -np.inf)], "non-finite"),
        ([(0, 1, 1, np.inf)], "non-finite"),
        ([(1, 1, 1, -1e-300)], "negative"),
    ],
)
def test_cube_validation_names_non_finite_before_negative(bad, message):
    data = np.ones((2, 2, 2))
    for *index, value in bad:
        data[tuple(index)] = value
    with pytest.raises(ValidationError, match=message):
        HsiCube(data)


def test_cube_accepts_negative_zero():
    assert HsiCube(np.full((1, 1, 2), -0.0)).data[0, 0, 0] == 0.0


CHUNK = CHUNK_BYTES // 8  # float64 elements the float32 codec handles at once


@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_float32_codec_at_chunk_edges(tmp_path, count):
    values = np.random.default_rng(count).standard_normal(count) * 1e3
    rounded = values.astype(np.float32).astype(np.float64)
    f32 = values.astype("<f4").tobytes()

    write_matrix_f32(values.reshape(1, count), tmp_path / "m.f32")
    assert (tmp_path / "m.f32").read_bytes() == struct.pack("<II", 1, count) + f32
    assert np.array_equal(read_matrix_f32(tmp_path / "m.f32"), rounded.reshape(1, count))

    cube = HsiCube(np.abs(values).reshape(1, 1, count))
    write_cube(cube, tmp_path / "c.hsic")
    header = struct.pack("<4sHHIII", b"HSIC", 1, 0, 1, 1, count)
    assert (tmp_path / "c.hsic").read_bytes() == header + np.abs(values).astype("<f4").tobytes()
    assert np.array_equal(read_cube(tmp_path / "c.hsic").data, np.abs(rounded).reshape(1, 1, count))


def test_float32_range_error_names_the_first_value_in_c_order(tmp_path):
    # Fortran order puts (1, 0) first in memory; C order reaches (0, CHUNK) first,
    # a chunk after the start, and (2, 5) later still
    m = np.asfortranarray(np.zeros((3, CHUNK + 2)))
    m[1, 0], m[0, CHUNK], m[2, 5] = 1e39, -2e39, 3e39
    path = tmp_path / "m.f32"
    with pytest.raises(ValidationError, match=r"value -2e\+39 is beyond the float32 range"):
        write_matrix_f32(m, path)
    assert not path.exists()


def test_reader_refuses_a_file_that_shrinks_while_read(tmp_path, monkeypatch):
    path = tmp_path / "c.hsic"
    write_cube(HsiCube(np.ones((2, 3, 4))), path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    stat = os.fstat

    def stale_size(fd):
        # the size the file had before it shrank
        return os.stat_result((*stat(fd)[:6], full, *stat(fd)[7:]))

    monkeypatch.setattr(fileio_module.os, "fstat", stale_size)
    with pytest.raises(FormatError, match=f"expected {full} bytes, got {full - 8}") as err:
        read_cube(path)
    assert err.value.offset == 20


def test_matrix_csv_roundtrip(tmp_path):
    random = np.random.default_rng(0).standard_normal((4, 7))
    # -0.0 keeps its sign; subnormal, tiny and large integral values read back exactly
    edge = np.array([[-0.0, 5e-324, 1e-300], [0.1, 1e16, 2**53 + 1]])
    path = tmp_path / "m.csv"
    for m in (random, edge):
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert np.array_equal(back, m)
        assert np.array_equal(np.signbit(back), np.signbit(m))


def test_matrix_csv_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    # a header-only file is refused as an empty body, without loadtxt's warning
    for text, match in [("not,a,header\n1.0,2.0,3.0\n", "bad CSV header"), ("3,2\n", "CSV body is empty")]:
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=match):
                read_matrix_csv(path)


def test_matrix_f32_roundtrip(tmp_path):
    m = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "m.f32"
    write_matrix_f32(m, path)
    assert np.array_equal(read_matrix_f32(path), m)


@pytest.mark.parametrize("value", [1e39, 3.5e38])
def test_write_cube_refuses_values_beyond_float32(tmp_path, value):
    path = tmp_path / "big.hsic"
    with pytest.raises(ValidationError):
        write_cube(HsiCube(np.full((3, 2, 2), value)), path)
    assert not path.exists()


def test_write_matrix_f32_refuses_values_beyond_float32(tmp_path):
    path = tmp_path / "big.f32"
    with pytest.raises(ValidationError):
        write_matrix_f32(np.array([[1.0, -1e39]]), path)
    assert not path.exists()


def test_float32_writers_keep_the_largest_float32(tmp_path):
    top = float(np.finfo(np.float32).max)
    write_cube(HsiCube(np.full((1, 1, 2), top)), tmp_path / "top.hsic")
    assert np.all(read_cube(tmp_path / "top.hsic").data == top)
    write_matrix_f32(np.array([[top, -top]]), tmp_path / "top.f32")
    assert np.array_equal(read_matrix_f32(tmp_path / "top.f32"), [[top, -top]])


def test_vector_dispatch_by_extension(tmp_path):
    v = np.array([1.0, 0.5, 2.0])
    for name in ("v.csv", "v.f32"):
        path = tmp_path / name
        save_vector(v, path)
        assert np.array_equal(load_vector(path), v)
    assert read_matrix_csv(tmp_path / "v.csv").shape == (3, 1)


def test_ground_truth_validation():
    m = np.array([[0.2, 0.8], [0.7, 0.1], [0.4, 0.5]])
    a = np.array([[0.25, 1.0], [0.75, 0.0]])
    GroundTruth(endmembers=m, abundances=a)

    with pytest.raises(ValidationError):
        GroundTruth(endmembers=m, abundances=np.array([[0.5, 0.9], [0.4, 0.1]]))  # sums != 1
    with pytest.raises(ValidationError):
        GroundTruth(endmembers=m, abundances=np.array([[1.2, 1.0], [-0.2, 0.0]]))  # negative
    dependent = np.column_stack([m[:, 0], 2.0 * m[:, 0] / m[:, 0].max() * 0.4])
    with pytest.raises(ValidationError):
        GroundTruth(endmembers=dependent, abundances=a)


# ----------------------------------------------------------- reader fuzzing

def _encoded(writer, value, name: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        writer(value, path)
        return path.read_bytes()


_RNG = np.random.default_rng(3)
# reader, a valid file, and the errors damage may raise: FormatError for
# malformed bytes, ValidationError for a cube payload that is well formed
# but negative or non-finite (matrix readers do not check values)
VALID_FILES = {
    "cube": (
        read_cube,
        _encoded(write_cube, HsiCube(_RNG.uniform(0.0, 1.0, (2, 2, 3))), "c.hsic"),
        (FormatError, ValidationError),
    ),
    "f32": (read_matrix_f32, _encoded(write_matrix_f32, _RNG.standard_normal((3, 2)), "m.f32"), FormatError),
    "csv": (read_matrix_csv, _encoded(write_matrix_csv, _RNG.standard_normal((3, 2)), "m.csv"), FormatError),
}


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """A valid file truncated, bit-flipped, overwritten in a span, or replaced."""
    kind = draw(st.sampled_from(["truncate", "flip", "garble", "random"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        out = bytearray(raw)
        for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "garble":
        start = draw(st.integers(0, len(raw)))
        junk = draw(st.binary(min_size=1, max_size=16))
        return raw[:start] + junk + raw[start + len(junk):]
    return draw(st.binary(max_size=64))


@pytest.mark.parametrize("fmt", sorted(VALID_FILES))
def test_readers_fail_only_with_format_or_validation_errors(tmp_path, fmt):
    reader, raw, allowed = VALID_FILES[fmt]
    path = tmp_path / f"fuzz.{fmt}"

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(damaged(raw))
    def check(data):
        path.write_bytes(data)
        try:
            reader(path)
        except allowed:
            pass

    check()
