"""Test helpers for oracle snapshots: the committed AHDO1 fixtures, a walk
over the stored tables of an AHDO1 or AHDO2 blob, and equality of two
oracles as `load_oracle` must rebuild them."""

import gzip
import struct
from pathlib import Path

import numpy as np

from allhops import oracles

DATA = Path(__file__).resolve().parent / "data"

# The AHDO1 fixtures, written by the last AHDO1 writer and pinned by the
# sha256 values of `GOLDEN_SNAPSHOTS` and `GOLDEN_SETTLED` in
# `test_oracles.py`: `golden-<kind>` from `gen_random_graph(24, 72, 4, 2)`
# under `SamplePlan(C=1.0, seed=5)` (full tables at their default budget),
# `settled-<kind>` from `gen_random_graph(40, 160, 8, 3)` under `SamplePlan()`.
GOLDEN_KINDS = ("powers", "bf", "mn", "mpp", "bounded")
SETTLED_KINDS = ("mpp", "bounded")


def fixture(name: str) -> bytes:
    """The AHDO1 bytes of `tests/data/<name>.ahdo1.gz`."""
    return gzip.decompress((DATA / f"{name}.ahdo1.gz").read_bytes())


def stored_tables(blob: bytes) -> list[tuple[int, int, int, tuple[int, int, int]]]:
    """(level, array, byte offset of its first cell, shape) of every table
    that the AHDO1 or AHDO2 snapshot `blob` stores, in file order."""
    ahdo1 = blob[:5] == b"AHDO1"
    kind, n, _, _, _, count = struct.unpack_from("<BIQdqI", blob, 5)
    arrays = 1 if oracles.KINDS[kind] in ("powers", "bf") else 2
    pos, found = 38, []
    for j in range(count):
        budget, size = struct.unpack_from("<II", blob, pos)
        pos += 8 + 8 * size
        if ahdo1:
            pos, marker = pos + 4, oracles._STORED
        else:
            pos, marker = pos + 1, blob[pos]
        for i in range(arrays if marker == oracles._STORED else 0):
            if ahdo1:
                pos, t = pos + 4 + 8 * 3, budget
            else:
                (t,) = struct.unpack_from("<I", blob, pos)
                pos += 4
            found.append((j, i, pos, (t + 1, size, n)))
            pos += 8 * (t + 1) * size * n
    assert pos == len(blob)
    return found


def cell_offset(blob: bytes, level: int, array: int, hop: int, row: int, col: int) -> int:
    """Byte offset of one stored int64 cell: hop `hop`, row `row`, column
    `col` of array `array` (0 fwd or the full table, 1 bwd) of `level`."""
    for j, i, at, shape in stored_tables(blob):
        if (j, i) == (level, array):
            return at + 8 * int(np.ravel_multi_index((hop, row, col), shape))
    raise AssertionError("no such stored table")


def same_oracle(a, b) -> bool:
    """Whether two oracles hold the same tables (shapes and bits), budgets,
    samples, header fields, tf / tb / copies and query rule."""
    return (
        type(b) is type(a)
        and (a.kind, a.n, a.seed, a.C, a.kstar, a.ks) == (b.kind, b.n, b.seed, b.C, b.kstar, b.ks)
        and (a.tf, a.tb, a.copies) == (b.tf, b.tb, b.copies)
        and (a.top, a.lookup_to, a.hmax, a.skip) == (b.top, b.lookup_to, b.hmax, b.skip)
        and all(np.array_equal(x, y) for x, y in zip(a.samples, b.samples))
        and all(x.shape == y.shape and np.array_equal(x, y)
                for x, y in zip(a.fwd + a.bwd, b.fwd + b.bwd))
    )
