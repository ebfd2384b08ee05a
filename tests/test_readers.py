"""Fuzz tests: any bytes given to a binary reader yield a well-formed object
or DataError, never another exception."""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from occkit.errors import DataError
from occkit.grid import OccupancyGrid, read_occg
from occkit.pointprep import read_ocfp
from occkit.scenes import read_ppm

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)

F32 = st.floats(width=32)
SMALL = st.integers(0, 5)


def _occg(dims, voxel_size, corner, body):
    head = b"OCCG" + struct.pack("<I", 1) + struct.pack("<3I", *dims)
    return head + struct.pack("<f", voxel_size) + struct.pack("<3f", *corner) + body


def _exact_body(dims, labels):
    return bytes(labels) * (dims[0] * dims[1] * dims[2])


OCCG = st.one_of(
    st.binary(max_size=64),
    st.builds(_occg, st.tuples(SMALL, SMALL, SMALL), F32, st.tuples(F32, F32, F32),
              st.binary(max_size=80)),
    st.tuples(st.tuples(SMALL, SMALL, SMALL), F32, st.tuples(F32, F32, F32),
              st.lists(st.integers(0, 255), min_size=1, max_size=1)).map(
        lambda t: _occg(*t[:3], _exact_body(t[0], t[3]))),
)

OCFP = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.integers(0, 3), st.lists(F32, max_size=12), st.binary(max_size=3)).map(
        lambda t: b"OCFP" + struct.pack("<2I", 1, t[0]) + struct.pack(f"<{len(t[1])}f", *t[1])
        + t[2]),
)

HEADER_FIELD = st.one_of(
    st.integers(0, 300).map(lambda v: str(v).encode()),
    st.text("0123456789 #\n\tx-", max_size=12).map(str.encode),
    st.integers(1, 6000).map(lambda n: b"9" * n),
)
PPM = st.one_of(
    st.binary(max_size=64),
    st.tuples(HEADER_FIELD, HEADER_FIELD, HEADER_FIELD, st.binary(max_size=64)).map(
        lambda t: b"P6 " + b" ".join(t[:3]) + b"\n" + t[3]),
)


def _read(tmp_path_factory, name, raw, reader):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(raw)
    try:
        return reader(path)
    except DataError:
        return None


@FUZZ
@given(OCCG)
def test_read_occg_fuzz(tmp_path_factory, raw):
    grid = _read(tmp_path_factory, "fuzz.occg", raw, read_occg)
    if grid is not None:
        assert isinstance(grid, OccupancyGrid) and grid.labels.size > 0
        assert np.isfinite(grid.voxel_size) and grid.voxel_size > 0
        assert np.all(np.isfinite(grid.min_corner))


@FUZZ
@given(OCFP)
def test_read_ocfp_fuzz(tmp_path_factory, raw):
    cloud = _read(tmp_path_factory, "fuzz.ocfp", raw, read_ocfp)
    if cloud is not None:
        assert cloud.ndim == 2 and cloud.shape[1] == 4 and np.all(np.isfinite(cloud))


@FUZZ
@given(PPM)
def test_read_ppm_fuzz(tmp_path_factory, raw):
    img = _read(tmp_path_factory, "fuzz.ppm", raw, read_ppm)
    if img is not None:
        assert img.ndim == 3 and img.shape[2] == 3 and img.size > 0
        assert np.all((img >= 0) & (img <= 1))
