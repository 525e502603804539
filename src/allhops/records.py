"""Record output of the CLI: `u v h d` tables, oracle answers and `h d`
pairs, as tsv or json-lines.

Infinity renders as `inf` in tsv and as the string "inf" in json-lines.
Every other distance must be an exact integer: a fraction, NaN, -inf or a
value beyond 2**53 in magnitude is refused with a `VerificationError`
(exit 3 in the CLI), never printed rounded.

Blocks of records are rendered by the compiled library's `render_records`
(see `_native`) or, where it is unavailable, by `render_python`, the
reference it is tested against; both write the same bytes, chunk by
bounded chunk.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from . import _native
from .values import MAX_EXACT


class VerificationError(RuntimeError):
    """An internal check failed: exit 3 in the CLI."""


# Rows rendered into one string per write by the Python renderer.  256-row
# chunks render ~10% faster but measured up to 4 MB more peak RSS than
# per-row writing on n=48 tables (2-core x86 VM); at 64 rows the peak matched.
_CHUNK_ROWS = 64
# Rows per write by the compiled renderer, at most 20-60 KB of text.  In
# 25 s cli-batch benchmark runs (n=48, 2-core x86 VM, one hash seed) chunks
# of 1,024 and 4,096 rows read 70.4-70.8 MB peak RSS against 67.3-67.6 MB
# at 64-512 rows; an all-pairs table rendered as fast at 512 rows as at
# 4,096.
_NATIVE_CHUNK_ROWS = 512

LINES = {
    ("tsv", ("u", "v", "h", "d")): "{}\t{}\t{}\t{}\n",
    ("tsv", ("h", "d")): "{}\t{}\n",
    ("json-lines", ("u", "v", "h", "d")): '{{"u": {}, "v": {}, "h": {}, "d": {}}}\n',
    ("json-lines", ("h", "d")): '{{"h": {}, "d": {}}}\n',
}
INF_TEXT = {"tsv": "inf", "json-lines": '"inf"'}


def emit(fmt: str, blocks, fields) -> None:
    """Write records to stdout, given as blocks (keys, d): a C-contiguous
    (k, rows) int64 array of the fields before `d`, and the float64
    distances `d`.  Each write is one bounded chunk of rows."""
    out = sys.stdout
    line, inf = LINES[fmt, fields], INF_TEXT[fmt]
    if fmt == "tsv" and len(fields) == 4:
        out.write("# u v h d\n")
    render, step = renderer(line, inf)
    for keys, d in blocks:
        for lo in range(0, len(d), step):
            out.write(render(keys, d, lo, min(lo + step, len(d))))


def table_block(le: np.ndarray, u: int, hops: range):
    """Block (keys, d) of source u's records, v-major, from its (hop, v)
    table; hops past the table's last repeat that hop."""
    n = le.shape[1]
    h = np.arange(hops.start, hops.stop)
    d = le[np.minimum(h, le.shape[0] - 1)].T.ravel()
    keys = np.empty((3, d.size), dtype=np.int64)
    keys[0], keys[1], keys[2] = u, np.repeat(np.arange(n), h.size), np.tile(h, n)
    return keys, d


def renderer(line: str, inf: str):
    """(render, rows per chunk): the compiled renderer when the library
    loads, else `render_python`.  render(keys, d, lo, hi) is the text of
    records lo..hi-1 of a block; both give the same text and refuse the
    same distances."""
    lib = _native.library()
    if lib is None:
        return partial(render_python, line, inf), _CHUNK_ROWS
    text = line.format(*["\0"] * 8)  # NUL where each field goes, braces unescaped
    nk = text.count("\0") - 1
    lits = f"{text}\0{inf}\0".encode("ascii")
    rows = _NATIVE_CHUNK_ROWS
    buf = np.empty(rows * (len(lits) + 20 * nk + 17), dtype=np.uint8)

    def render(keys, d, lo, hi):
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        d = np.ascontiguousarray(d, dtype=np.float64)
        if keys.shape != (nk, len(d)) or not 0 <= lo <= hi <= min(len(d), lo + rows):
            raise ValueError("records do not fit the renderer")
        size = lib.render_records(buf.ctypes.data, keys.ctypes.data, len(d), nk, d.ctypes.data,
                                  lo, hi, lits)
        if size < 0:
            _refuse(d[lo - 1 - size])
        return str(buf[:size].data, "ascii")

    return render, rows


def render_python(line: str, inf: str, keys, d, lo: int, hi: int) -> str:
    """Records lo..hi-1 of a block in Python: the reference the compiled
    renderer is tested against, and its fallback."""
    part = d[lo:hi]
    unreachable = part == np.inf
    finite = part[~unreachable]
    exact = (np.abs(finite) <= MAX_EXACT) & (finite == np.trunc(finite))
    if not exact.all():
        _refuse(finite[np.argmin(exact)])
    dtext = np.where(unreachable, 0, part).astype(np.int64).tolist()
    for i in np.flatnonzero(unreachable).tolist():
        dtext[i] = inf
    cols = [k[lo:hi].tolist() for k in keys]
    return "".join(map(line.format, *cols, dtext))


def _refuse(value: float):
    raise VerificationError(f"distance {float(value)!r} is not an exact integer")


def renderers_agree(rng: np.random.Generator) -> bool:
    """Whether the active renderer writes what `render_python` writes, in
    both formats and field sets, on up to 8 random records: keys over all
    of int64, distances +inf or of every magnitude up to MAX_EXACT."""
    count = int(rng.integers(0, 9))
    keys = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=(3, count),
                        endpoint=True)
    d = rng.integers(-MAX_EXACT, MAX_EXACT, size=count, endpoint=True) >> rng.integers(0, 54, count)
    d = np.where(rng.random(count) < 0.3, np.inf, d)
    ok = True
    for (fmt, fields), line in LINES.items():
        k, inf = keys[: len(fields) - 1], INF_TEXT[fmt]
        ok &= renderer(line, inf)[0](k, d, 0, count) == render_python(line, inf, k, d, 0, count)
    return ok
