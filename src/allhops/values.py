"""Extended distance values: finite integers plus +infinity.

Distances are integers carried in float64 arrays, with IEEE +inf as the
"no path" element.  float64 keeps every integer of magnitude <= 2**53
(MAX_EXACT) exact.  A shortest walk needs at most n-1 hops, so `Graph`
accepts only |weight| <= MAX_FINITE with (n-1) * max|weight| <= MAX_EXACT;
every distance this package reports is then an exact integer.  `min` and
`+` work natively and branch-free, including inf + x = inf.

The on-disk snapshot format uses int64 with INT64_INF reserved for +inf.
"""

from __future__ import annotations

import numpy as np

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


def to_int64(arr: np.ndarray) -> np.ndarray:
    """float64 distances -> int64 with INT64_INF for +inf (snapshot format)."""
    out = np.empty(arr.shape, dtype=np.int64)
    mask = np.isinf(arr)
    out[mask] = INT64_INF
    out[~mask] = arr[~mask].astype(np.int64)
    return out


def from_int64(arr: np.ndarray) -> np.ndarray:
    """Inverse of to_int64."""
    out = arr.astype(np.float64)
    out[arr == INT64_INF] = INF
    return out
