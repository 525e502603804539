"""Exactness gate: every timed output is compared for exact integer
equality with a value derived, untimed, from full-horizon `apah_brute`
tables.

Tables are compared through a digest of their canonical int64 form, so the
measuring process never holds the reference tables and its peak RSS stays
its own.  Query answers are compared element by element, one call each.
A value that is NaN, -inf or not an integer is never exact.
"""

from __future__ import annotations

import hashlib

import numpy as np

INF_CODE = np.iinfo(np.int64).max


def _codes(values) -> tuple[np.ndarray, np.ndarray]:
    """(int64 codes with +inf as INF_CODE, mask of exact entries)."""
    a = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(a)
    fin = np.where(finite, a, 0.0)
    exact = np.where(finite, fin == np.rint(fin), a == np.inf)
    codes = fin.astype(np.int64)
    codes[a == np.inf] = INF_CODE
    return codes, exact


def canonical(values) -> np.ndarray | None:
    """int64 codes, or None if any entry is not an exact extended integer."""
    codes, exact = _codes(values)
    return codes if exact.all() else None


def digest(values) -> str | None:
    c = canonical(values)
    if c is None:
        return None
    h = hashlib.sha256(repr(c.shape).encode())
    h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


class Gate:
    """Counts attempted calls and failures.  `expected` maps a check key to
    a digest string (one call) or an array of answers (one call each)."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, key: str, got) -> bool:
        want = self.expected[key]
        if isinstance(want, str):
            ok = digest(got) == want
            if not ok:
                self.fail(key)
            return ok
        codes, exact = _codes(got)
        if codes.shape != want.shape:
            self.fail(key, want.size)
            return False
        bad = int(np.count_nonzero(~exact | (codes != want)))
        if bad:
            self.fail(key, bad)
        return bad == 0
