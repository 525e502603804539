"""Min-plus (tropical) kernels: one windowed min-plus convolution of
hop-indexed matrix sequences, the matrix product as its one-hop case, and
the Bellman-Ford hop.

`conv_window` computes out[z] = min over x + y = z of A[x] (x) B[y] for a
requested window of output hops only.  The numpy body takes every split
(x, y); the compiled one drops the splits that another split of the same
hop beats (see `conv_window`), with the same bits.  It serves
`matseq_convolution` (optionally windowed), the single-pair ladder levels
that split at a sampled parent, the single-source solver's combining
step, `extend_hops`, the hop extension through a sample shared by the
all-pairs rounds and the sampled oracles' level builds, and `mp_array`,
the plain product under the `powers` oracle and
`baselines.allhops_from_powers`.

The Bellman-Ford hop lives here too: `relax` is the min-plus product of
hop rows with the sparse weight matrix, over the edges grouped by head
(`Graph.in_edges`), and `relax_hops` builds d_{<=h} rows (or, with
`exact`, d_h rows) from it hop by hop.  Every table built by Bellman-Ford
runs on them: the baselines' `apah_brute` and `bellman_ford_allhops`, the
`bf` oracle, the sampled oracles' direct levels and settled-row check, and
in the solvers every level or round whose split set would be all of V.
Through all of V a split of exact prefix tables is Bellman-Ford itself,
d_{<=a} (x) d_{<=b} = d_{<=a+b}, so the callers run the hop there; through
a sampled split set the solvers run whichever of the two `conv_cells` and
rows * m * hops count as cheaper.  The hop is also the
cheaper of the two: over V x V at n = 128 it costs 0.27-0.35 ms at
m = 8128, about 0.6 times one min-plus product of V x V tables
(0.45-0.61 ms), and 0.04-0.06 ms at m = 512 (2-core x86 VM).

`conv_window`, `relax` and `relax_hops` each have two backends with the
same bits, because every sum is an exact integer in float64.  The compiled
ones are entry points of the one C library in `_native`: a fused loop per
output row for `conv_window` (`s = a + b; o = s < o ? s : o` straight into
the output, skipping +inf left entries and dominated splits), and for the
hop a loop over the heads and their in-edges, in the order
`Graph.in_edges` gives them.
`relax_hops` runs it vertex-major; in place at R = 1: on an (n, R) copy
of the rows, each in-edge relaxes every row in one vectorized loop, and
each hop is transposed back into the table.  The wrappers here check
shapes and dtypes and pass addresses; whenever the library cannot be
built or loaded, they silently run `conv_window_numpy`, `relax_numpy` and
`relax_hops_numpy`, the numpy bodies that are also the references the
tests compare against.

`matseq_convolution` additionally has a `polynomial` strategy that encodes
entries as bivariate boolean polynomials (x-degree = hop index, y-degree =
shifted entry value), multiplies the polynomial matrices, and reads the
minimum y-degree per x-degree back off; it computes every hop and slices
the window.  Strategies must agree entry-for-entry.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .graph import InEdges
from .matrices import DistMatrix, MatrixSeq
from .values import INF

MATSEQ_STRATEGIES = ("naive", "polynomial")

# Temp-array budget for the numpy loop: ~32 MB of float64 per chunk.
_CHUNK_CELLS = 1 << 22


class StrategyError(ValueError):
    """Unknown strategy or violated strategy precondition."""


# ---------------------------------------------------------------------------
# array kernels (float64 with +inf; shared by the solver modules)


def mp_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product of raw (R,K) and (K,C) arrays: the one-hop case of
    `conv_window`."""
    return conv_window(a[None], b[None], 0, 0)[0]


def conv_window(a3: np.ndarray, b3: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Min-plus convolution of raw (la,R,K) and (lb,K,C) stacks, restricted
    to the output hops z in [lo, hi]:

        out[z - lo] = min over x + y = z of a3[x] (x) b3[y]

    An output hop that no (x, y) pair reaches is +inf; a window with
    hi < lo is empty.  Runs the compiled loop when it builds and loads
    (see `_native`), else `conv_window_numpy`; both give the same bits,
    because every sum is an exact integer, so the evaluation order cannot
    change a value.

    Where b3 never increases in hops, the compiled loop skips the split
    (x, y) for a left entry a3[x][r][k] equal to a3[x-1][r][k] (x above the
    lowest x of the output hop): (x-1, y+1) is a split of the same hop, at
    most as large in every column.  Such steps end at a split that runs,
    so the minimum is the same.  It checks b3 once per call, stopping at
    the first increase; where there is one, every split runs.
    """
    lib = _native.library()
    if lib is None:
        return conv_window_numpy(a3, b3, lo, hi)
    out = _window_out(a3, b3, lo, hi)
    if out.size and a3.shape[2]:
        la, R, K = a3.shape
        lb, _, C = b3.shape
        a = np.ascontiguousarray(a3, dtype=np.float64)
        b = np.ascontiguousarray(b3, dtype=np.float64)
        lib.conv_window(a.ctypes.data, b.ctypes.data, out.ctypes.data, la, R, K, lb, C, lo, hi)
    return out


def conv_cells(a_shape, b_shape, lo: int, hi: int) -> int:
    """The work of `conv_window` on (la,R,K) and (lb,K,C) stacks over the
    output hops [lo, hi]: the splits (x, y) with x + y in the window,
    times R * K * C, one addition each.  The compiled loop skips some of
    them; the count does not.  The solvers weigh it, unweighted, against
    Bellman-Ford's rows * m * hops (see `solvers`)."""
    (la, R, K), (lb, _, C) = a_shape, b_shape
    splits = sum(max(0, min(lb - 1, hi - x) - max(0, lo - x) + 1) for x in range(la))
    return splits * R * K * C


def _window_out(a3: np.ndarray, b3: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The all-+inf (hi-lo+1, R, C) output of `conv_window`."""
    if a3.shape[2] != b3.shape[1]:
        raise ValueError("inner index sets do not match")
    return np.full((max(0, hi - lo + 1), a3.shape[1], b3.shape[2]), INF)


def conv_window_numpy(a3: np.ndarray, b3: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """`conv_window` in numpy: the reference the compiled loop is tested
    against, and its fallback.

    B is stacked once as (K, lb*C), so for each left hop x the matching y
    form one contiguous column block and x costs one (R x K) by (K x ny*C)
    product.  That product accumulates over the inner index k with two
    in-place ufuncs into a reused buffer, then is minned into out[x+y].
    """
    out = _window_out(a3, b3, lo, hi)
    la, R, K = a3.shape
    lb, _, C = b3.shape
    width = min(lb, out.shape[0]) * C  # widest column block
    if K == 0 or width == 0:
        return out
    bt = np.ascontiguousarray(b3.transpose(1, 0, 2)).reshape(K, lb * C)
    step = max(1, _CHUNK_CELLS // width)
    acc_buf = np.empty(min(R, step) * width)
    tmp_buf = np.empty_like(acc_buf)
    for x in range(la):
        y0, y1 = max(0, lo - x), min(lb - 1, hi - x)
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
    Both operands are prefix tables, so the compiled kernel skips every
    split whose left entry repeats the hop below.  They are staged with
    `take`, whose contiguous copies the kernel reads as they are; the rows
    are taken only where `rows` is not the whole table.  Its callers split
    at a sample: where X would be all of V, they run `relax_hops` from hop
    K instead, which gives the same integers on an exact table.
    """
    K = table.shape[0] - 1
    left = table.take(mid_cols, axis=2)
    if not np.array_equal(rows, np.arange(table.shape[1])):
        left = left.take(rows, axis=1)
    out[K + 1 :] = conv_window(left, table.take(mid_rows, axis=1), K + 1, out.shape[0] - 1)
    running_min(out[K:])


def running_min(stack: np.ndarray) -> None:
    """stack[h] = min(stack[h-1], stack[h]) for h >= 1, in place: one
    `np.minimum` per hop, which runs several times faster than
    `np.minimum.accumulate` along the hop axis of a (L, R, C) stack."""
    for h in range(1, len(stack)):
        np.minimum(stack[h - 1], stack[h], out=stack[h])


def relax(rows: np.ndarray, edges, out: np.ndarray) -> np.ndarray:
    """One Bellman-Ford hop into `out`, which it returns: each head column v
    of `out` gets the minimum over v's in-edges (x, v, w) of rows[..., x] + w,
    the other columns are left as they are.  `edges` is `Graph.in_edges()`.

    Into an all-+inf `out` this writes the min-plus product of `rows` with
    the sparse weight matrix: exact-hop rows d_{h-1} give d_h.  Runs the
    compiled loop when the library loads (see `_native`), else
    `relax_numpy`; both give the same bits, as for `conv_window`.  An edge
    index past the rows is an IndexError on both."""
    lib = _relax_lib(out)
    if lib is None or rows.shape != out.shape:
        return relax_numpy(rows, edges, out)
    n = out.shape[-1]
    e = _edge_arrays(edges)
    o = np.ascontiguousarray(out)
    src = np.ascontiguousarray(rows, dtype=np.float64)
    if np.may_share_memory(src, o):
        src = src.copy()
    if lib.relax(src.ctypes.data, o.ctypes.data, o.size // n, n, *e.c_args):
        raise IndexError("edge arrays do not fit the rows")
    if o is not out:
        out[...] = o
    return out


def relax_hops(out: np.ndarray, k0: int, edges, *, exact: bool = False) -> None:
    """Bellman-Ford in place from out[k0]: out[h] = min(out[h-1], one hop
    from out[h-1]) for h = k0+1..len(out)-1.  From d_{<=k0} rows this gives
    d_{<=h}, since a walk of at most h hops is a walk of at most h-1 hops,
    or one of them and one more edge.  With `exact`, out[h] is the hop
    alone (`relax` into +inf), which from d_{k0} rows gives d_h.  Runs the
    compiled loop when the library loads, else `relax_hops_numpy`, with the
    same bits.  An edge index past the rows is an IndexError on both; a
    buffer the compiled loop cannot allocate is a MemoryError."""
    if k0 < 0:
        raise ValueError("relax_hops starts from a hop k0 >= 0")
    lib = _relax_lib(out)
    if lib is None:
        return relax_hops_numpy(out, k0, edges, exact=exact)
    L, n = len(out), out.shape[-1]
    e = _edge_arrays(edges)
    o = np.ascontiguousarray(out)
    code = lib.relax_hops(o.ctypes.data, L, o.size // (L * n), n, k0, bool(exact), *e.c_args)
    if code == 2:
        raise MemoryError("no memory for the vertex-major Bellman-Ford rows")
    if code:
        raise IndexError("edge arrays do not fit the rows")
    if o is not out:
        out[...] = o


def _relax_lib(out: np.ndarray):
    """The compiled library where the C loops can take `out` (a nonempty
    float64 array), else None."""
    if out.dtype != np.float64 or not out.size:
        return None
    return _native.library()


def _edge_arrays(edges) -> InEdges:
    """Edges as the C loops take them: `Graph.in_edges()` itself, else an
    `InEdges` of the four arrays.  The loops check every index they follow
    themselves."""
    return edges if isinstance(edges, InEdges) else InEdges(edges)


def relax_numpy(rows: np.ndarray, edges, out: np.ndarray) -> np.ndarray:
    """`relax` in numpy: the reference the compiled loop is tested against,
    and its fallback."""
    tails, ws, heads, starts = edges
    out[..., heads] = np.minimum.reduceat(rows[..., tails] + ws, starts, axis=-1)
    return out


def relax_hops_numpy(out: np.ndarray, k0: int, edges, *, exact: bool = False) -> None:
    """`relax_hops` in numpy, the reference and fallback.  One +inf buffer
    serves every hop: `relax_numpy` writes only its head columns."""
    step = np.full(out.shape[1:], INF)
    for h in range(k0 + 1, len(out)):
        if exact:
            out[h] = step
            relax_numpy(out[h - 1], edges, out[h])
        else:
            np.minimum(out[h - 1], relax_numpy(out[h - 1], edges, step), out=out[h])


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
