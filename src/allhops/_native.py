"""The one compiled library: its C source, its build and cache, its backend
switch and its silent fallback.

Entry points (each the compiled twin of a numpy or Python body that is its
reference in the tests and its fallback):

* `conv_window` — the windowed min-plus convolution of `minplus.conv_window`;
  where its right stack never increases in hops, it skips each split whose
  left entry equals the one a hop below, which another split of the same
  output hop beats;
* `relax`, `relax_hops` — the Bellman-Ford hop of `minplus.relax` and
  `minplus.relax_hops`; they check every edge index against the rows before
  the first write and return 1, having written nothing, when one is past them.
  `relax_hops` runs vertex-major; in place at R = 1: each in-edge relaxes
  every row in one vectorized loop, on a buffer it allocates once per call
  and, when it cannot, returns 2, having written nothing;
* `render_records` — a block of `(u, v, h, d)` or `(h, d)` records as tsv or
  json-lines text, for `records.emit`; it returns -1 - r when the r-th
  distance is neither +inf nor an exact integer;
* `level_scan`, `level_scan_many` — the split scan of `LevelOracle.query`
  over every level of one query, or of many into an array, with the
  additions it made added to an int64 out-cell;
* `pack_cells`, `unpack_cells` — snapshot cells each way, float64 to int64
  with INT64_MAX for +inf (`values.to_int64`) and back (`from_int64`); each
  returns 0, or 1 + the index of the first cell that does not round-trip
  exactly: NaN, -inf, a fraction or past 2^53 one way, past 2^53 the other.

Every array goes in as a `c_void_p` address (`a.ctypes.data`) and every size
as a plain integer: ctypes' `ndpointer` conversion cost more than the C work
of a small call.  So the callers check shapes, dtypes and contiguity before
they pass an address, and keep each array alive through the call.

The library is built with the system C compiler on the first call of
`library()`, never at import, and loaded with ctypes.  It is cached per user
under $XDG_CACHE_HOME/allhops (default ~/.cache/allhops, else a private
directory in the temp dir), keyed by the sha256 of the source, the compiler,
the flags and the CPU.  Whenever it cannot be built or loaded, `library()` is
None and the callers run their numpy or Python bodies.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import shutil
import tempfile

# "c": `library()` builds or loads the C library below; "numpy": it is None,
# so every caller runs its numpy or Python body.
_BACKEND = "c"
_CC = "cc"
# No -ffast-math: it lets the compiler assume that no value is infinite, and
# +inf is the no-path value.  -march=native ties the build to this CPU, so
# the cache key holds the CPU's feature flags.
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* out[z-lo] = min(out[z-lo], min over x+y=z of a[x] (x) b[y]), z in [lo, hi].
   a is (la,R,K), b is (lb,K,C), out is (hi-lo+1,R,C), all C-contiguous.
   Where b never increases in hops, a split (x, y) with x > x0 and
   a[x][r][k] == a[x-1][r][k] is skipped for that (r, k): the split
   (x-1, y+1) of the same z is at most it in every column.  Following
   such steps down ends at a split that runs, at x0 at the latest, so the
   minimum keeps its bits. */
void conv_window(const double *restrict a, const double *restrict b,
                 double *restrict out, int64_t la, int64_t R, int64_t K,
                 int64_t lb, int64_t C, int64_t lo, int64_t hi)
{
    int mono = la > 1;
    for (int64_t i = K * C; mono && i < lb * K * C; i++)
        mono = b[i] <= b[i - K * C];
    for (int64_t z = lo; z <= hi; z++) {
        const int64_t x0 = z - lb + 1 > 0 ? z - lb + 1 : 0;
        const int64_t x1 = z < la - 1 ? z : la - 1;
        for (int64_t r = 0; r < R; r++) {
            double *restrict o = out + ((z - lo) * R + r) * C;
            for (int64_t x = x0; x <= x1; x++) {
                const double *ar = a + (x * R + r) * K;
                const double *by = b + (z - x) * K * C;
                const int skip = mono && x > x0;
                for (int64_t k = 0; k < K; k++) {
                    const double s0 = ar[k];
                    if (s0 == INFINITY)  /* inf + b never lowers a minimum */
                        continue;
                    if (skip && s0 == ar[k - R * K])  /* (x-1, y+1) beats it */
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

/* Whether an edge list indexes past (R,n) rows or past itself: a tail or
   head outside [0, n), or a start outside [0, m]. */
static int bad_edges(const int64_t *tails, const int64_t *heads, const int64_t *starts,
                     int64_t nh, int64_t m, int64_t n)
{
    for (int64_t e = 0; e < m; e++)
        if (tails[e] < 0 || tails[e] >= n)
            return 1;
    for (int64_t j = 0; j < nh; j++)
        if (heads[j] < 0 || heads[j] >= n || starts[j] < 0 || starts[j] > m)
            return 1;
    return 0;
}

/* One Bellman-Ford hop of one row: dst[heads[j]] gets the minimum over the
   edges e of head j (starts[j] up to starts[j+1], the last up to m) of
   src[tails[e]] + ws[e], or the minimum of that and dst[heads[j]] when
   keep is set.  The other entries of dst are left as they are. */
static void relax_row(const double *restrict src, double *restrict dst,
                      const int64_t *restrict tails, const double *restrict ws,
                      const int64_t *restrict heads, const int64_t *restrict starts,
                      int64_t nh, int64_t m, int keep)
{
    for (int64_t j = 0; j < nh; j++) {
        const int64_t e1 = j + 1 < nh ? starts[j + 1] : m;
        double best = keep ? dst[heads[j]] : INFINITY;
        for (int64_t e = starts[j]; e < e1; e++) {
            const double s = src[tails[e]] + ws[e];
            best = s < best ? s : best;
        }
        dst[heads[j]] = best;
    }
}

/* rows and out are (R,n) and do not overlap. */
int relax(const double *restrict rows, double *restrict out, int64_t R, int64_t n,
          const int64_t *tails, const double *ws, const int64_t *heads,
          const int64_t *starts, int64_t nh, int64_t m)
{
    if (bad_edges(tails, heads, starts, nh, m, n))
        return 1;
    for (int64_t r = 0; r < R; r++)
        relax_row(rows + r * n, out + r * n, tails, ws, heads, starts, nh, m, 0);
    return 0;
}

/* dst (cols,rows) = the transpose of src (rows,cols), written in order:
   the writes stream, and the reads revisit the same cache lines. */
static void transpose(const double *restrict src, double *restrict dst,
                      int64_t rows, int64_t cols)
{
    for (int64_t c = 0; c < cols; c++)
        for (int64_t r = 0; r < rows; r++)
            dst[c * rows + r] = src[r * cols + c];
}

/* out is (L,R,n): for h = k0+1..L-1, out[h] = one hop from out[h-1] if
   exact is set, else the minimum of that and out[h-1].  Vertex-major; in
   place at R = 1: the hops run on an (n,R) copy of the rows, where each
   in-edge (x,v,w) relaxes all R rows of v in one contiguous loop, and each
   hop is transposed back into out[h].  Every entry sees its edges in the
   order relax_row takes them, so the bits are relax_row's.  Returns 1 on an
   edge index past the rows and 2 when the (2,n,R) buffer cannot be
   allocated, in both cases having written nothing. */
int relax_hops(double *out, int64_t L, int64_t R, int64_t n, int64_t k0, int exact,
               const int64_t *tails, const double *ws, const int64_t *heads,
               const int64_t *starts, int64_t nh, int64_t m)
{
    if (bad_edges(tails, heads, starts, nh, m, n))
        return 1;
    const int64_t size = R * n;
    if (!size || k0 + 1 >= L)
        return 0;
    double *buf = NULL;
    if (R > 1) {
        buf = malloc(2 * (size_t)size * sizeof(double));
        if (!buf)
            return 2;
        transpose(out + k0 * size, buf, R, n);
    }
    for (int64_t h = k0 + 1; h < L; h++) {
        double *prev = buf ? buf + (h - k0 + 1) % 2 * size : out + (h - 1) * size;
        double *cur = buf ? buf + (h - k0) % 2 * size : out + h * size;
        if (exact)
            for (int64_t i = 0; i < size; i++)
                cur[i] = INFINITY;
        else
            memcpy(cur, prev, (size_t)size * sizeof(double));
        if (!buf) {
            relax_row(prev, cur, tails, ws, heads, starts, nh, m, !exact);
            continue;
        }
        for (int64_t j = 0; j < nh; j++) {
            double *restrict d = cur + heads[j] * R;
            const int64_t e1 = j + 1 < nh ? starts[j + 1] : m;
            for (int64_t e = starts[j]; e < e1; e++) {
                const double *restrict p = prev + tails[e] * R;
                const double w = ws[e];
                for (int64_t r = 0; r < R; r++) {
                    const double s = p[r] + w;
                    d[r] = s < d[r] ? s : d[r];
                }
            }
        }
        transpose(cur, out + h * size, n, R);
    }
    free(buf);
    return 0;
}

/* One query of `LevelOracle.query` for u != v: the minimum over the levels
   j with K_{j-1} <= h that are not skipped, and over a in [lo, hi],
   hi = min(h, K_j, tb_j), lo = max(0, min(h - tf_j, hi)), of
   bwd_j[a][s][u] + fwd_j[min(h - a, tf_j)][s][v] over the |S_j| rows s.
   lv is (7,L) int64, one column per level: the fwd and bwd addresses, K_j,
   |S_j|, tf_j, tb_j and the skip flag (a copy level or an empty sample);
   each table is (K_j+1,|S_j|,n) float64.  Adds the number of additions,
   the sum of (hi - lo + 1) |S_j|, to *adds. */
double level_scan(const int64_t *lv, int64_t L, int64_t n, int64_t *adds,
                  int64_t u, int64_t v, int64_t h)
{
    const int64_t *ks = lv + 2 * L, *size = lv + 3 * L, *tf = lv + 4 * L,
                  *tb = lv + 5 * L, *skip = lv + 6 * L;
    double best = INFINITY;
    int64_t count = 0;
    for (int64_t j = 0; j < L; j++) {
        if (j && ks[j - 1] > h)
            break;
        if (skip[j])
            continue;
        const int64_t S = size[j];
        int64_t hi = h < ks[j] ? h : ks[j];
        hi = hi < tb[j] ? hi : tb[j];
        int64_t lo = h - tf[j] < hi ? h - tf[j] : hi;
        lo = lo > 0 ? lo : 0;
        const double *fwd = (const double *)(intptr_t)lv[j];
        const double *bwd = (const double *)(intptr_t)lv[L + j];
        for (int64_t a = lo; a <= hi; a++) {
            const int64_t fa = h - a < tf[j] ? h - a : tf[j];
            const double *to_s = bwd + a * S * n + u, *from_s = fwd + fa * S * n + v;
            for (int64_t s = 0; s < S; s++) {
                const double x = to_s[s * n] + from_s[s * n];
                best = x < best ? x : best;
            }
        }
        count += (hi - lo + 1) * S;
    }
    *adds += count;
    return best;
}

/* level_scan over `count` queries into out, 0 where u == v. */
void level_scan_many(const int64_t *lv, int64_t L, int64_t n, int64_t *adds,
                     const int64_t *u, const int64_t *v, const int64_t *h, int64_t count,
                     double *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = u[i] == v[i] ? 0.0 : level_scan(lv, L, n, adds, u[i], v[i], h[i]);
}

/* Snapshot cells each way: float64 to int64 with INT64_MAX for +inf, and
   back.  Each returns 0, or 1 + i at the first cell i that does not
   round-trip exactly: one that is NaN, -inf, a fraction or past 2^53, or
   one past 2^53 that is not INT64_MAX.  src may be unaligned, as the
   cells in a snapshot's bytes are. */
int64_t pack_cells(const char *restrict src, int64_t *restrict dst, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        double x;
        memcpy(&x, src + 8 * i, 8);
        if (fabs(x) <= 0x1p53 && x == (double)(int64_t)x)
            dst[i] = (int64_t)x;
        else if (x == INFINITY)
            dst[i] = INT64_MAX;
        else
            return 1 + i;
    }
    return 0;
}

int64_t unpack_cells(const char *restrict src, double *restrict dst, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        int64_t x;
        memcpy(&x, src + 8 * i, 8);
        if (x >= -(INT64_C(1) << 53) && x <= INT64_C(1) << 53)
            dst[i] = (double)x;
        else if (x == INT64_MAX)
            dst[i] = INFINITY;
        else
            return 1 + i;
    }
    return 0;
}

static char *put_int(char *p, int64_t x)
{
    char digits[20];
    int i = 0;
    uint64_t u = x < 0 ? 0 - (uint64_t)x : (uint64_t)x;
    do {
        digits[i++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (x < 0)
        *p++ = '-';
    while (i)
        *p++ = digits[--i];
    return p;
}

/* Records lo..hi-1 of a block into buf; returns the number of bytes written.
   keys is (nk,ld) int64, nk <= 8, and d is (ld,) float64.  lits holds nk+3
   NUL-terminated pieces: the text before each key and before d, the line end,
   and the text of +inf.  A record is piece 0, key 0, ..., piece nk, d, piece
   nk+1.  Keys print in decimal (at most 20 bytes), d as its integer (at most
   17 bytes), so buf must hold hi-lo times the pieces' lengths plus 20 nk plus
   the larger of 17 and the length of +inf's text.  Returns -1 - (r - lo) at
   the first d[r] that is neither +inf nor an integer of magnitude <= 2^53. */
int64_t render_records(char *restrict buf, const int64_t *keys, int64_t ld, int64_t nk,
                       const double *d, int64_t lo, int64_t hi, const char *lits)
{
    const char *lit[11];
    size_t len[11];
    for (int64_t i = 0; i < nk + 3; i++) {
        lit[i] = lits;
        len[i] = strlen(lits);
        lits += len[i] + 1;
    }
    char *p = buf;
    for (int64_t r = lo; r < hi; r++) {
        for (int64_t i = 0; i < nk; i++) {
            memcpy(p, lit[i], len[i]);
            p = put_int(p + len[i], keys[i * ld + r]);
        }
        memcpy(p, lit[nk], len[nk]);
        p += len[nk];
        const double x = d[r];
        if (x == INFINITY) {
            memcpy(p, lit[nk + 2], len[nk + 2]);
            p += len[nk + 2];
        } else if (fabs(x) <= 9007199254740992.0 && x == (double)(int64_t)x) {
            p = put_int(p, (int64_t)x);
        } else {  /* NaN, -inf, a fraction or past 2^53 */
            return -1 - (r - lo);
        }
        memcpy(p, lit[nk + 1], len[nk + 1]);
        p += len[nk + 1];
    }
    return p - buf;
}
"""

_lib = None  # the loaded library; False once building or loading failed


def library():
    """The C library, built and loaded on the first call; None on the numpy
    backend or when that fails, for whatever reason (no compiler, no
    writable cache, a failed compile or load), so that the caller runs its
    numpy or Python body."""
    global _lib
    if _BACKEND != "c":
        return None
    if _lib is None:
        try:
            _lib = _load()
        except OSError:
            _lib = False
    return _lib or None


def _load():
    if os.name != "posix":
        raise OSError("the compiled library is built on POSIX systems only")
    cc = shutil.which(_CC)
    if cc is None:
        raise FileNotFoundError(f"no C compiler {_CC!r}")
    st = os.stat(cc)
    ident = [_C_SOURCE, os.path.realpath(cc), str(st.st_size), str(st.st_mtime_ns),
             *_CFLAGS, os.uname().machine, _cpu_flags()]
    key = _sha256("\0".join(ident).encode("utf-8", "surrogateescape"))[:32]
    path = os.path.join(_cache_dir(), f"native-{key}.so")
    try:
        lib = ctypes.CDLL(path)
    except OSError:  # not built yet, or a damaged file: build it (again)
        _compile(cc, path)
        lib = ctypes.CDLL(path)
    P, I = ctypes.c_void_p, ctypes.c_int64
    edges = [P, P, P, P, I, I]  # tails, ws, heads, starts, nh, m
    for name, argtypes, restype in (
        ("conv_window", [P, P, P] + [I] * 7, None),
        ("relax", [P, P, I, I] + edges, ctypes.c_int),
        ("relax_hops", [P, I, I, I, I, ctypes.c_int] + edges, ctypes.c_int),
        ("render_records", [P, P, I, I, P, I, I, ctypes.c_char_p], I),
        ("level_scan", [P, I, I, P, I, I, I], ctypes.c_double),
        ("level_scan_many", [P, I, I, P, P, P, P, I, P], None),
        ("pack_cells", [P, P, I], I),
        ("unpack_cells", [P, P, I], I),
    ):
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


def _compile(cc: str, path: str) -> None:
    """Build the library into a private temp directory next to `path`, then
    move it into place, so that concurrent builds never expose a partial file.
    A failed build is an OSError, like every other way the backend fails."""
    import subprocess  # only on a cold cache: it adds ~0.6 MB to every process

    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        src, lib = os.path.join(tmp, "native.c"), os.path.join(tmp, "native.so")
        with open(src, "w") as f:
            f.write(_C_SOURCE)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", lib, src], check=True, capture_output=True,
                           timeout=120)
        except subprocess.SubprocessError as e:
            raise OSError(f"building the compiled library failed: {e}") from e
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
    raise PermissionError("no usable cache directory for the compiled library")


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
