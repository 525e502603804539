"""Extended distance values: finite integers plus +infinity.

Distances are integers carried in float64 arrays, with IEEE +inf as the
"no path" element.  float64 keeps every integer of magnitude <= 2**53
(MAX_EXACT) exact.  A shortest walk needs at most n-1 hops, so `Graph`
accepts only |weight| <= MAX_FINITE with (n-1) * max|weight| <= MAX_EXACT;
every distance this package reports is then an exact integer.  `min` and
`+` work natively and branch-free, including inf + x = inf.

The on-disk snapshot format uses int64 with INT64_INF reserved for +inf;
`pack_cells` and `unpack_cells` convert cells each way, compiled where the
library loads, and refuse every cell that does not round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from . import _native

INF = float("inf")

# Largest finite magnitude accepted at module boundaries.  Keeping inputs
# under 2**48 leaves room for n*|w| path sums and the w - 2Mn reduction
# shift without ever leaving float64's exact-integer range.
MAX_FINITE = 2**48

# Every integer of magnitude <= MAX_EXACT is exact in float64.
MAX_EXACT = 2**53

INT64_INF = np.iinfo(np.int64).max


class SaturationError(OverflowError):
    """A value left the exact-integer envelope of the kernels."""


def check_finite_range(arr: np.ndarray) -> None:
    """Reject finite entries outside the exact-integer envelope."""
    finite = arr[np.isfinite(arr)]
    if finite.size and (np.abs(finite) > MAX_FINITE).any():
        raise SaturationError("finite entries exceed the exact-integer envelope")


def to_int64(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """float64 distances -> int64 with INT64_INF for +inf (snapshot format),
    into `out` if given.  The numpy body of `pack_cells`, its reference and
    fallback.  A cell that is neither +inf nor an integer of magnitude <=
    MAX_EXACT (NaN, -inf, a fraction or past it) is a SaturationError."""
    inf = arr == INF
    ok = inf | ((np.abs(arr) <= MAX_EXACT) & (arr == np.trunc(arr)))
    if not ok.all():
        raise _refused(arr, int(np.argmin(ok.ravel())))
    out = np.empty(arr.shape, dtype=np.int64) if out is None else out
    np.copyto(out, arr, casting="unsafe", where=~inf)
    out[inf] = INT64_INF
    return out


def from_int64(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of to_int64, into `out` if given: the numpy body of
    `unpack_cells`.  A cell other than INT64_INF of magnitude past
    MAX_EXACT, which float64 cannot hold exactly, is a SaturationError."""
    inf = arr == INT64_INF
    ok = inf | ((arr >= -MAX_EXACT) & (arr <= MAX_EXACT))
    if not ok.all():
        raise _refused(arr, int(np.argmin(ok.ravel())))
    out = np.empty(arr.shape) if out is None else out
    np.copyto(out, arr, casting="unsafe")
    out[inf] = INF
    return out


def pack_cells(src: np.ndarray, dst: np.ndarray) -> None:
    """dst = to_int64(src), by the compiled `pack_cells` where the library
    loads; `src` is float64 and `dst` int64, of one shape."""
    _convert(src, dst, "pack_cells", to_int64)


def unpack_cells(src: np.ndarray, dst: np.ndarray) -> None:
    """dst = from_int64(src), by the compiled `unpack_cells` where the
    library loads; `src` is int64 and `dst` float64, as in `pack_cells`."""
    _convert(src, dst, "unpack_cells", from_int64)


def _convert(src, dst, name, body) -> None:
    """body(src, dst), or the compiled entry point `name` where the library
    loads, both arrays are contiguous and in native byte order, and `dst`
    is aligned (the C loop reads `src` a cell at a time with memcpy).
    Arrays of different shapes are a ValueError, before any pointer passes."""
    if src.shape != dst.shape:
        raise ValueError(f"cells of shape {src.shape} into an array of shape {dst.shape}")
    lib = _native.library()
    arrays_fit = dst.flags.aligned and all(
        a.dtype.isnative and a.flags.c_contiguous for a in (src, dst))
    if lib is None or not arrays_fit:
        body(src, dst)
    elif bad := getattr(lib, name)(src.ctypes.data, dst.ctypes.data, src.size):
        raise _refused(src, bad - 1)


def _refused(cells: np.ndarray, i: int) -> SaturationError:
    """The error for flat cell i, with i as its `index`: the compiled and
    numpy bodies refuse the same cell."""
    e = SaturationError(f"cell {cells.flat[i].item()!r} is neither +inf nor an integer "
                        f"of magnitude <= 2**53")
    e.index = i
    return e
