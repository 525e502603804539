"""Min-plus (tropical) kernels: matrix product, matrix power, the hop
extension shared by the all-pairs solver and the sampled oracles, and
min-plus convolution of matrix sequences.

Every operation has a straightforward reference kernel; the matrix-sequence
convolution additionally has a `polynomial` strategy that encodes entries
as bivariate boolean polynomials (x-degree = hop index, y-degree = shifted
entry value), multiplies the polynomial matrices, and reads the minimum
y-degree per x-degree back off.  Fast strategies must agree with naive
entry-for-entry.
"""

from __future__ import annotations

import numpy as np

from .matrices import DistMatrix, MatrixSeq
from .values import INF

MATSEQ_STRATEGIES = ("naive", "polynomial")

# Temp-array budget for the broadcast product: ~32 MB of float64 per chunk.
_CHUNK_CELLS = 1 << 22


class StrategyError(ValueError):
    """Unknown strategy or violated strategy precondition."""


# ---------------------------------------------------------------------------
# array kernels (float64 with +inf; shared by the solver modules)


def mp_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product of raw (R,K) and (K,C) arrays."""
    R, K = a.shape
    K2, C = b.shape
    assert K == K2
    out = np.empty((R, C))
    if K == 0:
        out.fill(INF)
        return out
    step = max(1, _CHUNK_CELLS // max(1, K * C))
    for r0 in range(0, R, step):
        blk = a[r0 : r0 + step, :, None] + b[None, :, :]
        out[r0 : r0 + step] = blk.min(axis=1)
    return out


def mp_power_array(w: np.ndarray, q: int) -> np.ndarray:
    """q-fold min-plus power by repeated squaring."""
    if q < 1:
        raise ValueError("power must be >= 1")
    result = None
    base = w
    while q:
        if q & 1:
            result = base.copy() if result is None else mp_array(result, base)
        q >>= 1
        if q:
            base = mp_array(base, base)
    return result


def extend_hops(
    out: np.ndarray,
    table: np.ndarray,
    rows: np.ndarray,
    mid_rows: np.ndarray,
    mid_cols: np.ndarray,
) -> None:
    """Extend hop-indexed rows past the table's horizon through split vertices.

    `table[h]` is d_{<=h}(P, V) for h = 0..K, and `out[0..K]` already holds
    its rows `rows`.  The split set X is rows `mid_rows` of the table, which
    are the vertices `mid_cols`.  For h = K+1 .. len(out)-1, in place:

        out[h] = min(out[h-1], min over g in [h-K, K] of
                     d_{<=h-g}(rows, X) (x) d_{<=g}(X, V))

    Every sum is an exact integer, so the evaluation order of min and +
    cannot change a value.  One (rows x X) by (X x V) product per (h, g)
    keeps the temporaries at a single hop's size.
    """
    K = table.shape[0] - 1
    for h in range(K + 1, out.shape[0]):
        out[h] = out[h - 1]
        for g in range(h - K, K + 1):
            prod = mp_array(table[h - g][rows][:, mid_cols], table[g][mid_rows])
            np.minimum(out[h], prod, out=out[h])


def matseq_conv_arrays(a3: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """Naive matrix-sequence convolution on raw (L,R,K) x (L',K,C) stacks."""
    la = a3.shape[0]
    lb = b3.shape[0]
    out = np.full((la + lb - 1, a3.shape[1], b3.shape[2]), INF)
    for x in range(la):
        for y in range(lb):
            np.minimum(out[x + y], mp_array(a3[x], b3[y]), out=out[x + y])
    return out


# ---------------------------------------------------------------------------
# public operations on the domain types


def minplus_product(a: DistMatrix, b: DistMatrix) -> DistMatrix:
    if a.cols != b.rows:
        raise ValueError("inner index sets do not match")
    return DistMatrix(a.rows, b.cols, mp_array(a.data, b.data))


def minplus_power(w: DistMatrix, q: int) -> DistMatrix:
    if w.rows != w.cols:
        raise ValueError("min-plus power needs a square matrix")
    return DistMatrix(w.rows, w.cols, mp_power_array(w.data, q))


def matseq_convolution(
    a: MatrixSeq,
    b: MatrixSeq,
    strategy: str = "naive",
    entry_bound: int | None = None,
) -> MatrixSeq:
    """Min-plus convolution of matrix sequences: element z is the entrywise
    minimum of the min-plus products A_x * B_y over all x + y = z."""
    if strategy not in MATSEQ_STRATEGIES:
        raise StrategyError(f"unknown matrix-sequence strategy {strategy!r}")
    if a.cols != b.rows:
        raise ValueError("inner index sets do not match")
    if strategy == "naive":
        data = matseq_conv_arrays(a.data, b.data)
    else:
        data = _polynomial_conv(a.data, b.data, entry_bound)
    return MatrixSeq(a.offset + b.offset, a.rows, b.cols, data)


# ---------------------------------------------------------------------------
# polynomial strategy


def _encode_bool(stack: np.ndarray, bound: int) -> np.ndarray:
    """(L,R,C) distances -> (L, 2*bound+1, R, C) boolean monomial table.

    Finite entry e contributes the monomial y^(e + bound); +inf entries
    contribute nothing.
    """
    L, R, C = stack.shape
    Y = 2 * bound + 1
    enc = np.zeros((L, Y, R, C), dtype=bool)
    finite = np.isfinite(stack)
    if finite.any():
        li, ri, ci = np.nonzero(finite)
        ys = (stack[li, ri, ci] + bound).astype(np.int64)
        enc[li, ys, ri, ci] = True
    return enc


def _polynomial_conv(a3: np.ndarray, b3: np.ndarray, entry_bound: int | None) -> np.ndarray:
    mA, R, K = a3.shape
    mB, K2, C = b3.shape
    max_abs = 0
    for stack in (a3, b3):
        fin = stack[np.isfinite(stack)]
        if fin.size:
            max_abs = max(max_abs, int(np.abs(fin).max()))
    bound = max_abs if entry_bound is None else int(entry_bound)
    if max_abs > bound:
        raise StrategyError(
            f"polynomial strategy: entries exceed the declared bound {bound}"
        )
    a_enc = _encode_bool(a3, bound)
    b_enc = _encode_bool(b3, bound)
    Y = 2 * bound + 1
    mC = mA + mB - 1
    YC = 2 * Y - 1
    coeff = np.zeros((mC, YC, R, C), dtype=bool)
    if K > 0:
        for x1 in range(mA):
            a_flat = a_enc[x1].reshape(Y * R, K).astype(np.float32)
            for x2 in range(mB):
                b_flat = b_enc[x2].transpose(1, 0, 2).reshape(K, Y * C).astype(np.float32)
                hits = (a_flat @ b_flat) > 0.5
                hits4 = hits.reshape(Y, R, Y, C)
                z = x1 + x2
                for y1 in range(Y):
                    np.logical_or(
                        coeff[z, y1 : y1 + Y],
                        np.moveaxis(hits4[y1], 1, 0),
                        out=coeff[z, y1 : y1 + Y],
                    )
    out = np.full((mC, R, C), INF)
    any_hit = coeff.any(axis=1)
    first_y = coeff.argmax(axis=1).astype(np.float64)
    out[any_hit] = first_y[any_hit] - 2 * bound
    return out
