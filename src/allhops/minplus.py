"""Min-plus (tropical) kernels: one windowed min-plus convolution of
hop-indexed matrix sequences, and the matrix product as its one-hop case.

`conv_window` computes out[z] = min over x + y = z of A[x] (x) B[y] for a
requested window of output hops only.  It serves `matseq_convolution`
(optionally windowed), the single-pair ladder of the single-pair and
single-source solvers, the single-source solver's combining step,
`extend_hops`, the hop extension shared by the all-pairs solver and the
sampled oracles' level builds, and `mp_array`, the plain product under the
`powers` oracle and `baselines.allhops_from_powers`.

Where the split set is all of V (the solvers' unsampled levels and rounds,
the oracle levels that extend from S_{j-1} = V), the kernel takes one split
per output hop (`one_split`), which on exact prefix tables equals taking
every split.

`matseq_convolution` additionally has a `polynomial` strategy that encodes
entries as bivariate boolean polynomials (x-degree = hop index, y-degree =
shifted entry value), multiplies the polynomial matrices, and reads the
minimum y-degree per x-degree back off; it computes every hop and slices
the window.  Strategies must agree entry-for-entry.
"""

from __future__ import annotations

import numpy as np

from .matrices import DistMatrix, MatrixSeq
from .values import INF

MATSEQ_STRATEGIES = ("naive", "polynomial")

# Temp-array budget for the kernel: ~32 MB of float64 per chunk.
_CHUNK_CELLS = 1 << 22


class StrategyError(ValueError):
    """Unknown strategy or violated strategy precondition."""


# ---------------------------------------------------------------------------
# array kernels (float64 with +inf; shared by the solver modules)


def mp_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product of raw (R,K) and (K,C) arrays: the one-hop case of
    `conv_window`."""
    return conv_window(a[None], b[None], 0, 0)[0]


def conv_window(
    a3: np.ndarray, b3: np.ndarray, lo: int, hi: int, *, one_split: bool = False
) -> np.ndarray:
    """Min-plus convolution of raw (la,R,K) and (lb,K,C) stacks, restricted
    to the output hops z in [lo, hi]:

        out[z - lo] = min over x + y = z of a3[x] (x) b3[y]

    An output hop that no (x, y) pair reaches is +inf.  B is stacked once
    as (K, lb*C), so for each left hop x the matching y form one contiguous
    column block and x costs one (R x K) by (K x ny*C) product.  That
    product accumulates over the inner index k with two in-place ufuncs
    into a reused buffer, then is minned into out[x+y].  Every sum is an
    exact integer, so the evaluation order cannot change a value.

    `one_split` takes a single pair per output hop: x = min(la-1, z) and
    y = z - x.  The left hops x < la-1 then only feed y = 0, and every
    z >= la-1 comes from one wide product at x = la-1.  Precondition: both
    stacks are exact prefix tables (slice p is d_{<=hop}, hop its offset
    plus p) and their inner index is every vertex.  Then every split gives
    the same value, d_{<=a} (x) d_{<=b} = d_{<=a+b}, because a walk of at
    most a + b hops splits at its vertex after min(a, length) hops.
    """
    la, R, K = a3.shape
    lb, K2, C = b3.shape
    if K != K2:
        raise ValueError("inner index sets do not match")
    out = np.full((max(0, hi - lo + 1), R, C), INF)
    width = min(lb, out.shape[0]) * C  # widest column block
    if K == 0 or width == 0:
        return out
    bt = np.ascontiguousarray(b3.transpose(1, 0, 2)).reshape(K, lb * C)
    step = max(1, _CHUNK_CELLS // width)
    acc_buf = np.empty(min(R, step) * width)
    tmp_buf = np.empty_like(acc_buf)
    for x in range(la):
        y0, y1 = max(0, lo - x), min(lb - 1, hi - x)
        if one_split and x < la - 1:
            y1 = min(y1, 0)
        if y0 > y1:
            continue
        at = np.ascontiguousarray(a3[x].T)[..., None]  # (K, R, 1)
        cols = bt[:, y0 * C : (y1 + 1) * C]
        dst = out[x + y0 - lo : x + y1 - lo + 1]
        for r0 in range(0, R, step):
            a = at[:, r0 : r0 + step]
            acc = acc_buf[: a.shape[1] * cols.shape[1]].reshape(a.shape[1], -1)
            tmp = tmp_buf[: acc.size].reshape(acc.shape)
            np.add(a[0], cols[0], out=acc)
            for k in range(1, K):
                np.add(a[k], cols[k], out=tmp)
                np.minimum(acc, tmp, out=acc)
            blk = dst[:, r0 : r0 + step]
            np.minimum(blk, acc.reshape(len(acc), -1, C).transpose(1, 0, 2), out=blk)
    return out


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

    which is the windowed convolution of d_{<=.}(rows, X) with
    d_{<=.}(X, V) over hops [K+1, H], then a running minimum from hop K.
    When X is all of V, the table must be exact and one split per hop is
    taken (see `conv_window`).
    """
    K = table.shape[0] - 1
    out[K + 1 :] = conv_window(
        table[:, rows[:, None], mid_cols],
        table[:, mid_rows],
        K + 1,
        out.shape[0] - 1,
        one_split=len(mid_cols) == table.shape[2],
    )
    np.minimum.accumulate(out[K:], axis=0, out=out[K:])


# ---------------------------------------------------------------------------
# public operations on the domain types


def minplus_product(a: DistMatrix, b: DistMatrix) -> DistMatrix:
    if a.cols != b.rows:
        raise ValueError("inner index sets do not match")
    return DistMatrix(a.rows, b.cols, mp_array(a.data, b.data))


def matseq_convolution(
    a: MatrixSeq,
    b: MatrixSeq,
    strategy: str = "naive",
    entry_bound: int | None = None,
    window: tuple[int, int] | None = None,
) -> MatrixSeq:
    """Min-plus convolution of matrix sequences: element z is the entrywise
    minimum of the min-plus products A_x * B_y over all x + y = z.

    `window = (lo, hi)` keeps only the hops lo..hi (hop indices, offsets
    included; hops no pair reaches are +inf); by default every hop from
    a.offset + b.offset to a.last + b.last is returned."""
    if strategy not in MATSEQ_STRATEGIES:
        raise StrategyError(f"unknown matrix-sequence strategy {strategy!r}")
    if a.cols != b.rows:
        raise ValueError("inner index sets do not match")
    base = a.offset + b.offset
    lo, hi = (base, a.last + b.last) if window is None else window
    if lo > hi:
        raise ValueError(f"empty hop window [{lo}, {hi}]")
    if strategy == "naive":
        data = conv_window(a.data, b.data, lo - base, hi - base)
    else:
        full = _polynomial_conv(a.data, b.data, entry_bound)
        data = np.full((hi - lo + 1,) + full.shape[1:], INF)
        z0, z1 = max(lo, base), min(hi, base + full.shape[0] - 1)
        if z0 <= z1:
            data[z0 - lo : z1 - lo + 1] = full[z0 - base : z1 - base + 1]
    return MatrixSeq(lo, a.rows, b.cols, data)


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
