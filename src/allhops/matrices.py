"""Distance matrices and hop-indexed matrix sequences.

A DistMatrix is a dense rectangular block of extended distances indexed
by two ordered vertex-index sets.  A MatrixSeq is a contiguous run of
equal-shape DistMatrix values whose position p stands for hop index
offset + p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .values import INF, check_finite_range


def _as_dist_array(cells, shape) -> np.ndarray:
    a = np.asarray(cells, dtype=np.float64).reshape(shape)
    check_finite_range(a)
    return a


@dataclass(frozen=True)
class DistMatrix:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    data: np.ndarray  # float64, shape (len(rows), len(cols)), +inf = no path

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(
            self, "data", _as_dist_array(self.data, (len(self.rows), len(self.cols)))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.data, other.data)
        )


def square_matrix(data, vertices=None) -> DistMatrix:
    a = np.asarray(data, dtype=np.float64)
    n = a.shape[0]
    idx = tuple(range(n)) if vertices is None else tuple(vertices)
    return DistMatrix(idx, idx, a)


def identity_rows(rows, n: int) -> np.ndarray:
    """Rows `rows` of the min-plus identity (d_{<=0}): 0 at (i, rows[i]),
    +inf elsewhere."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.full((rows.size, n), INF)
    out[np.arange(rows.size), rows] = 0.0
    return out


def tropical_identity(n: int) -> DistMatrix:
    return square_matrix(identity_rows(range(n), n))


@dataclass(frozen=True)
class MatrixSeq:
    offset: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    data: np.ndarray  # float64, shape (length, len(rows), len(cols))

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 3 or a.shape[1:] != (len(self.rows), len(self.cols)):
            raise ValueError("MatrixSeq data must be (length, |rows|, |cols|)")
        if a.shape[0] < 1:
            raise ValueError("MatrixSeq must hold at least one matrix")
        check_finite_range(a)
        object.__setattr__(self, "data", a)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def last(self) -> int:
        """Hop index of the final element."""
        return self.offset + len(self) - 1

    def __getitem__(self, hop: int) -> DistMatrix:
        if not (self.offset <= hop <= self.last):
            raise IndexError(f"hop {hop} outside [{self.offset}, {self.last}]")
        return DistMatrix(self.rows, self.cols, self.data[hop - self.offset])

    @property
    def mats(self) -> list[DistMatrix]:
        return [self[h] for h in range(self.offset, self.last + 1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixSeq):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.data, other.data)
        )


def matrix_seq(offset: int, mats: list[DistMatrix]) -> MatrixSeq:
    if not mats:
        raise ValueError("empty sequence")
    rows, cols = mats[0].rows, mats[0].cols
    for m in mats:
        if m.rows != rows or m.cols != cols:
            raise ValueError("all matrices in a sequence must share index sets")
    return MatrixSeq(offset, rows, cols, np.stack([m.data for m in mats]))
