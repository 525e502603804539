import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allhops import _native
from allhops.oracles import _CHUNK
from allhops.values import (
    INF,
    INT64_INF,
    SaturationError,
    from_int64,
    pack_cells,
    to_int64,
    unpack_cells,
)

# The backend of `pack_cells` and `unpack_cells` in this module: the
# compiled loops wherever they build; `test_values_numpy.py` collects every
# test of this module again on the numpy bodies.
BACKEND = "c"

INT64_MIN = int(np.iinfo(np.int64).min)
# Cells at and past the edges of what round-trips exactly, each way.
EDGE_FLOATS = [2.0**53, -(2.0**53), 2.0**53 + 2, -(2.0**53) - 2, 2.0**63, -0.0, 0.5, -2.5,
               np.nan, INF, -INF]
EDGE_INTS = [2**53, -(2**53), 2**53 + 1, -(2**53) - 1, INT64_MIN, INT64_INF - 1, INT64_INF]


@pytest.fixture(autouse=True)
def backend(request, monkeypatch):
    monkeypatch.setattr(_native, "_BACKEND", request.module.BACKEND)


def test_min_with_infinity():
    assert min(INF, 7) == 7
    assert min(INF, INF) == INF


def test_int64_roundtrip():
    arr = np.array([0.0, -5.0, 2.0**40, INF])
    packed = to_int64(arr)
    assert packed[-1] == INT64_INF
    assert np.array_equal(from_int64(packed), arr)


@st.composite
def _cells(draw, dtype, edges):
    """An array of 0 to `_CHUNK` + 1 cells of `dtype` (the snapshot writer
    streams `_CHUNK` cells at a time): seeded integers within +-2^53 and
    +inf, a few of them set to drawn `edges`; read from bytes at a drawn
    offset, so they may be unaligned, as a snapshot's cells are."""
    size = draw(st.sampled_from([0, 1, 9, _CHUNK - 1, _CHUNK, _CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(-(2**53), 2**53 + 1, size).astype(dtype)
    cells[rng.random(size) < 0.3] = INF if dtype is np.float64 else INT64_INF
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        cells[draw(st.integers(0, size - 1))] = draw(st.sampled_from(edges))
    offset = draw(st.sampled_from([0, 3]))
    return np.frombuffer(b"\0" * offset + cells.tobytes(), dtype, size, offset)


def _outcome(convert, src, dtype):
    """The bytes that `convert` writes, or the refused cell's index and
    message."""
    dst = np.empty(src.shape, dtype)
    try:
        convert(src, dst)
    except SaturationError as e:
        return e.index, str(e)
    return dst.tobytes()


@settings(max_examples=60, deadline=None)
@given(src=_cells(np.float64, EDGE_FLOATS))
def test_pack_cells_equals_the_numpy_body(src):
    """`pack_cells` writes `to_int64`'s bits, or refuses the same first
    cell: NaN, -inf, a fraction or past +-2^53; every cell it writes
    unpacks to itself (-0.0 to 0.0)."""
    got = _outcome(pack_cells, src, np.int64)
    assert got == _outcome(to_int64, src, np.int64)
    bad = ~((src == INF) | ((np.abs(src) <= 2**53) & (src == np.trunc(src))))
    if bad.any():
        assert got[0] == np.flatnonzero(bad)[0] and "2**53" in got[1]
    else:
        back = np.empty(src.shape)
        unpack_cells(np.frombuffer(got, np.int64), back)
        assert np.array_equal(back, src)


@settings(max_examples=60, deadline=None)
@given(src=_cells(np.int64, EDGE_INTS))
def test_unpack_cells_equals_the_numpy_body(src):
    """`unpack_cells` writes `from_int64`'s bits, or refuses the same first
    cell: any but the +inf marker past +-2^53, INT64_MIN among them."""
    got = _outcome(unpack_cells, src, np.float64)
    assert got == _outcome(from_int64, src, np.float64)
    bad = (src != INT64_INF) & ((src < -(2**53)) | (src > 2**53))
    if bad.any():
        assert got[0] == np.flatnonzero(bad)[0]
    else:
        again = np.empty(src.shape, np.int64)
        pack_cells(np.frombuffer(got, np.float64), again)
        assert np.array_equal(again, src)
