"""Min-plus (tropical) kernels: one windowed min-plus convolution of
hop-indexed matrix sequences, the matrix product as its one-hop case, and
the Bellman-Ford hop.

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

The Bellman-Ford hop lives here too: `relax` is the min-plus product of
hop rows with the sparse weight matrix, over the edges grouped by head
(`Graph.in_edges`), and `relax_hops` builds d_{<=h} rows from it hop by
hop.  Every table built by Bellman-Ford runs on them: the baselines'
`apah_brute` and `bellman_ford_allhops`, the `bf` oracle, the sampled
oracles' direct levels and settled-row check, and the solvers' hop-0..1
tables and single-source levels past split.

`conv_window` has two backends with the same bits, because every sum is an
exact integer in float64.  The compiled one is a fused C loop per output
row (`s = a + b; o = s < o ? s : o` straight into the output, skipping
+inf left entries), built with the system C compiler on the first kernel
call, never at import, and loaded with ctypes.  The library is cached per
user under $XDG_CACHE_HOME/allhops (default ~/.cache/allhops, else a
private directory in the temp dir), keyed by the sha256 of the source, the
compiler, the flags and the CPU.  Whenever it cannot be built or loaded,
the kernel silently runs `conv_window_numpy`, the numpy loop that is also
the reference the tests compare against.

`matseq_convolution` additionally has a `polynomial` strategy that encodes
entries as bivariate boolean polynomials (x-degree = hop index, y-degree =
shifted entry value), multiplies the polynomial matrices, and reads the
minimum y-degree per x-degree back off; it computes every hop and slices
the window.  Strategies must agree entry-for-entry.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import shutil
import tempfile

import numpy as np

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


def conv_window(
    a3: np.ndarray, b3: np.ndarray, lo: int, hi: int, *, one_split: bool = False
) -> np.ndarray:
    """Min-plus convolution of raw (la,R,K) and (lb,K,C) stacks, restricted
    to the output hops z in [lo, hi]:

        out[z - lo] = min over x + y = z of a3[x] (x) b3[y]

    An output hop that no (x, y) pair reaches is +inf; a window with
    hi < lo is empty.  Runs the compiled loop when it builds and loads
    (see `_compiled_kernel`), else `conv_window_numpy`; both give the same
    bits, because every sum is an exact integer, so the evaluation order
    cannot change a value.

    `one_split` takes a single pair per output hop: x = min(la-1, z) and
    y = z - x.  The left hops x < la-1 then only feed y = 0, and every
    z >= la-1 comes from one wide product at x = la-1.  Precondition: both
    stacks are exact prefix tables (slice p is d_{<=hop}, hop its offset
    plus p) and their inner index is every vertex.  Then every split gives
    the same value, d_{<=a} (x) d_{<=b} = d_{<=a+b}, because a walk of at
    most a + b hops splits at its vertex after min(a, length) hops.
    """
    kernel = _compiled_kernel() if _BACKEND == "c" else None
    if kernel is None:
        return conv_window_numpy(a3, b3, lo, hi, one_split=one_split)
    out = _window_out(a3, b3, lo, hi)
    if out.size and a3.shape[2]:
        la, R, K = a3.shape
        lb, _, C = b3.shape
        a = np.ascontiguousarray(a3, dtype=np.float64)
        b = np.ascontiguousarray(b3, dtype=np.float64)
        kernel(a, b, out, la, R, K, lb, C, lo, hi, bool(one_split))
    return out


def _window_out(a3: np.ndarray, b3: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The all-+inf (hi-lo+1, R, C) output of `conv_window`."""
    if a3.shape[2] != b3.shape[1]:
        raise ValueError("inner index sets do not match")
    return np.full((max(0, hi - lo + 1), a3.shape[1], b3.shape[2]), INF)


def conv_window_numpy(
    a3: np.ndarray, b3: np.ndarray, lo: int, hi: int, *, one_split: bool = False
) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# compiled backend

# "c": `conv_window` runs the C loop below, built on first use, or the numpy
# loop when no C loop can be built or loaded; "numpy": always the numpy loop.
_BACKEND = "c"
_CC = "cc"
# No -ffast-math: it lets the compiler assume that no value is infinite, and
# +inf is the no-path value.  -march=native ties the build to this CPU, so
# the cache key holds the CPU's feature flags.
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* out[z-lo] = min(out[z-lo], min over x+y=z of a[x] (x) b[y]), z in [lo, hi].
   a is (la,R,K), b is (lb,K,C), out is (hi-lo+1,R,C), all C-contiguous. */
void conv_window(const double *restrict a, const double *restrict b,
                 double *restrict out, int64_t la, int64_t R, int64_t K,
                 int64_t lb, int64_t C, int64_t lo, int64_t hi, int one_split)
{
    for (int64_t z = lo; z <= hi; z++) {
        int64_t x0 = z - lb + 1 > 0 ? z - lb + 1 : 0;
        int64_t x1 = z < la - 1 ? z : la - 1;
        if (one_split && x0 < x1)
            x0 = x1;
        for (int64_t r = 0; r < R; r++) {
            double *restrict o = out + ((z - lo) * R + r) * C;
            for (int64_t x = x0; x <= x1; x++) {
                const double *ar = a + (x * R + r) * K;
                const double *by = b + (z - x) * K * C;
                for (int64_t k = 0; k < K; k++) {
                    const double s0 = ar[k];
                    if (s0 == INFINITY)  /* inf + b never lowers a minimum */
                        continue;
                    const double *bk = by + k * C;
                    for (int64_t c = 0; c < C; c++) {
                        const double s = s0 + bk[c];
                        o[c] = s < o[c] ? s : o[c];
                    }
                }
            }
        }
    }
}
"""

_kernel = None  # the loaded C function; False once building or loading failed


def _compiled_kernel():
    """The C `conv_window`, built and loaded on the first call; None when
    that fails, for whatever reason (no compiler, no writable cache, a
    failed compile or load), so that the caller runs the numpy loop."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = _load_kernel()
        except OSError:
            _kernel = False
    return _kernel or None


def _load_kernel():
    if os.name != "posix":
        raise OSError("the compiled kernel is built on POSIX systems only")
    cc = shutil.which(_CC)
    if cc is None:
        raise FileNotFoundError(f"no C compiler {_CC!r}")
    st = os.stat(cc)
    ident = [_C_SOURCE, os.path.realpath(cc), str(st.st_size), str(st.st_mtime_ns),
             *_CFLAGS, os.uname().machine, _cpu_flags()]
    key = _sha256("\0".join(ident).encode("utf-8", "surrogateescape"))[:32]
    path = os.path.join(_cache_dir(), f"conv_window-{key}.so")
    try:
        lib = ctypes.CDLL(path)
    except OSError:  # not built yet, or a damaged file: build it (again)
        _compile(cc, path)
        lib = ctypes.CDLL(path)
    fn = lib.conv_window
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    fn.argtypes = [f64, f64, f64] + [ctypes.c_int64] * 7 + [ctypes.c_int]
    fn.restype = None
    return fn


def _compile(cc: str, path: str) -> None:
    """Build the library into a private temp directory next to `path`, then
    move it into place, so that concurrent builds never expose a partial file.
    A failed build is an OSError, like every other way the backend fails."""
    import subprocess  # only on a cold cache: it adds ~0.6 MB to every process

    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        src, lib = os.path.join(tmp, "conv_window.c"), os.path.join(tmp, "conv_window.so")
        with open(src, "w") as f:
            f.write(_C_SOURCE)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", lib, src], check=True, capture_output=True,
                           timeout=120)
        except subprocess.SubprocessError as e:
            raise OSError(f"building the compiled kernel failed: {e}") from e
        os.replace(lib, path)


def _cache_dir() -> str:
    """The first usable of $XDG_CACHE_HOME/allhops (default ~/.cache/allhops)
    and <tempdir>/allhops-<uid>, made if missing.  A directory is usable when
    it is an absolute path, ours and writable by nobody else, because a
    library loaded from it runs as us."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    uid = os.getuid()
    for d in (os.path.join(base, "allhops"),
              os.path.join(tempfile.gettempdir(), f"allhops-{uid}")):
        if not os.path.isabs(d):
            continue
        try:
            os.makedirs(d, mode=0o700, exist_ok=True)
            st = os.stat(d)
        except OSError:
            continue
        if st.st_uid == uid and not st.st_mode & 0o022 and os.access(d, os.W_OK):
            return d
    raise PermissionError("no usable cache directory for the compiled kernel")


def _sha256(data: bytes) -> str:
    """Hex sha256 from the interpreter's own module where it has one
    (`_sha2` from Python 3.12, `_sha256` before): hashlib loads OpenSSL,
    which added ~4 MB to the resident set of a CLI run."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            continue
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line for line in f if line.startswith(("flags", "Features"))), "")
    except OSError:
        return ""


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


def relax(rows: np.ndarray, edges, out: np.ndarray) -> np.ndarray:
    """One Bellman-Ford hop into `out`, which it returns: each head column v
    of `out` gets the minimum over v's in-edges (x, v, w) of rows[..., x] + w,
    the other columns are left as they are.  `edges` is `Graph.in_edges()`.

    Into an all-+inf `out` this writes the min-plus product of `rows` with
    the sparse weight matrix: exact-hop rows d_{h-1} give d_h."""
    tails, ws, heads, starts = edges
    out[..., heads] = np.minimum.reduceat(rows[..., tails] + ws, starts, axis=-1)
    return out


def relax_hops(out: np.ndarray, k0: int, edges) -> None:
    """Bellman-Ford in place from out[k0]: out[h] = min(out[h-1], one hop
    from out[h-1]) for h = k0+1..len(out)-1.  From d_{<=k0} rows this gives
    d_{<=h}, since a walk of at most h hops is a walk of at most h-1 hops,
    or one of them and one more edge.  One +inf buffer serves every hop:
    `relax` writes only its head columns."""
    step = np.full(out.shape[1:], INF)
    for h in range(k0 + 1, len(out)):
        np.minimum(out[h - 1], relax(out[h - 1], edges, step), out=out[h])


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
