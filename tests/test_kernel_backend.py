"""Building, caching and falling back from the compiled library of
`_native`: `conv_window`, the Bellman-Ford hop `relax`/`relax_hops` and the
record renderer.

Every case must give the numpy and Python references' outputs, let no
exception escape and keep the CLI at exit 0."""

import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allhops import INF, apah_brute, gen_random_graph, graph_from_edges, render_graph
from allhops import _native, minplus, records
from allhops.cli import main
from allhops.values import MAX_EXACT

REAL_CC = shutil.which(_native._CC)
needs_cc = pytest.mark.skipif(REAL_CC is None, reason="no C compiler")


@pytest.fixture
def cold(monkeypatch, tmp_path):
    """A process state on the compiled backend that has not tried to load
    the library, with the cache and the temp-dir fallback under tmp_path."""
    monkeypatch.setattr(_native, "_BACKEND", "c")
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    return tmp_path


@pytest.fixture
def graph_path(tmp_path):
    p = tmp_path / "g.el"
    p.write_text(render_graph(gen_random_graph(14, 40, 4, 3, require_no_neg_cycle=True)))
    return str(p)


def _stacks():
    rng = np.random.default_rng(5)
    out = []
    for la, lb, R, K, C in ((3, 4, 5, 6, 7), (1, 1, 1, 9, 1), (4, 2, 3, 0, 2)):
        a = rng.integers(-9, 10, size=(la, R, K)).astype(float)
        b = rng.integers(-9, 10, size=(lb, K, C)).astype(float)
        a[rng.random(a.shape) < 0.3] = np.inf
        b[rng.random(b.shape) < 0.3] = np.inf
        out.append((a, b))
    return out


@contextlib.contextmanager
def _on_backend(backend):
    """`_native._BACKEND` set for the block, where no monkeypatch fixture
    reaches (hypothesis examples)."""
    saved, _native._BACKEND = _native._BACKEND, backend
    try:
        yield
    finally:
        _native._BACKEND = saved


def _assert_reference_outputs():
    for a, b in _stacks():
        top = len(a) + len(b)
        got = minplus.conv_window(a, b, -1, top)
        assert np.array_equal(got, minplus.conv_window_numpy(a, b, -1, top))
    g = gen_random_graph(12, 40, 5, 8)  # negative cycles allowed
    got = apah_brute(g), apah_brute(g, with_exact=False)  # both relax_hops modes
    with _on_backend("numpy"):
        want = apah_brute(g), apah_brute(g, with_exact=False)
    assert np.array_equal(got[0].ex, want[0].ex)
    assert all(np.array_equal(a.le, b.le) for a, b in zip(got, want))


def _commands(graph_path):
    """The CLI commands each case runs: `bf` is Bellman-Ford alone, and
    `all-pairs` renders many records, in both formats."""
    return [["single-source", "--graph", graph_path, "--s", "0"],
            ["bf", "--graph", graph_path, "--s", "0"],
            ["--format", "tsv", "all-pairs", "--graph", graph_path],
            ["--format", "json-lines", "all-pairs", "--graph", graph_path]]


def _cli_stdout(capsys, monkeypatch, graph_path, backend):
    """The stdout of each command in turn."""
    outs = []
    for argv in _commands(graph_path):
        with monkeypatch.context() as mp:
            mp.setattr(_native, "_BACKEND", backend)
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        outs.append(out)
    return "".join(outs)


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_broken_compiler_falls_back(cold, capsys, monkeypatch, graph_path, compiler):
    cc = cold / "cc"
    if compiler == "failing":
        cc.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n")
        cc.chmod(0o755)
    monkeypatch.setattr(_native, "_CC", str(cc))
    want = _cli_stdout(capsys, monkeypatch, graph_path, "numpy")
    assert _cli_stdout(capsys, monkeypatch, graph_path, "c") == want
    assert _native._lib is False
    _assert_reference_outputs()


def test_unusable_cache_falls_back(cold, capsys, monkeypatch, graph_path):
    """Both cache directories sit under a regular file, so neither can be
    made, not even by root."""
    blocker = cold / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(blocker / "tmp"))
    want = _cli_stdout(capsys, monkeypatch, graph_path, "numpy")
    assert _cli_stdout(capsys, monkeypatch, graph_path, "c") == want
    assert _native._lib is False
    _assert_reference_outputs()


@needs_cc
def test_unusable_user_cache_builds_in_the_temp_dir(cold, monkeypatch):
    blocker = cold / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    _assert_reference_outputs()
    assert _native._lib
    built = os.listdir(cold / "tmp" / f"allhops-{os.getuid()}")
    assert len(built) == 1 and built[0].endswith(".so")


# Runs in a fresh process: builds or loads the library with the compiler
# given as argv[1], checks `conv_window` and `apah_brute` against the numpy
# references, then runs the CLI once per argument list of the JSON list in
# argv[2], with the compiled backend.
_CHILD = """
import json
import sys
import numpy as np
from allhops import _native, apah_brute, gen_random_graph, minplus
from allhops.cli import main
assert _native._lib is None, "importing allhops tried the library"
_native._BACKEND, _native._CC = "c", sys.argv[1]
assert _native.library() is not None, "library not loaded"
a = np.arange(24.0).reshape(2, 3, 4) - 9
b = np.arange(40.0).reshape(2, 4, 5) % 7 - 3
a[0, 1] = np.inf
got = minplus.conv_window(a, b, -1, 3)
assert np.array_equal(got, minplus.conv_window_numpy(a, b, -1, 3))
g = gen_random_graph(12, 40, 5, 8)
got = apah_brute(g)
want = np.full(got.le.shape, np.inf)
want[0] = got.le[0]
minplus.relax_hops_numpy(want, 0, g.in_edges())
assert np.array_equal(got.le, want)
sys.exit(max(main(argv) for argv in json.loads(sys.argv[2])))
"""


@needs_cc
def test_cache_reuse_and_truncated_library(cold, capsys, monkeypatch, graph_path):
    """A cold cache builds once; a fresh process loads the cached library
    without running the compiler; a truncated library is rebuilt."""
    log = cold / "cc.log"
    spy = cold / "spycc"
    spy.write_text(f"#!/bin/sh\necho run >> {shlex.quote(str(log))}\n"
                   f"exec {shlex.quote(REAL_CC)} \"$@\"\n")
    spy.chmod(0o755)
    env = dict(os.environ, XDG_CACHE_HOME=str(cold / "xdg"))
    cli = json.dumps(_commands(graph_path))
    want = _cli_stdout(capsys, monkeypatch, graph_path, "numpy")

    def child():
        out = subprocess.run([sys.executable, "-c", _CHILD, str(spy), cli],
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout == want and out.stderr == ""
        return len(log.read_text().splitlines())

    assert child() == 1
    assert child() == 1
    cache = cold / "xdg" / "allhops"
    (lib,) = [p for p in cache.iterdir() if p.suffix == ".so"]
    lib.write_bytes(lib.read_bytes()[:100])
    assert child() == 2
    assert child() == 2
    assert [p.suffix for p in cache.iterdir()] == [".so"]


@st.composite
def _hop_cases(draw):
    """A multigraph (self-loops, parallel edges, negative weights, heads
    without in-edges, possibly no edge at all) and (L, R, n) rows strewn with
    +inf, laid out either contiguously or as every other column of a wider
    array filled with a sentinel.  R runs from 0 through 1 (the compiled
    hops run in place) to past two vector widths of doubles and their
    remainders.  The cells come from a drawn seed: drawn one by one, up to
    1,200 of them would overrun hypothesis's buffer."""
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-9, 9)),
        max_size=3 * n,
    ))
    L, R = draw(st.integers(1, 5)), draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(-20, 21, size=(L, R, n)).astype(float)
    cells[rng.random(cells.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = INF
    k0 = draw(st.integers(0, L - 1))
    stride = draw(st.sampled_from([1, 2]))
    base = np.full((L, R, stride * n), -99.0)
    base[..., ::stride] = cells
    return graph_from_edges(n, edges).in_edges(), base, stride, k0, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_hop_cases())
def test_compiled_relax_equals_numpy_bit_for_bit(case):
    """`relax` into rows that are not +inf and `relax_hops` (prefix or exact
    hops) from a nonzero start k0 write what the numpy references write, in
    place through a strided `out` too, and nothing outside it."""
    edges, base, stride, k0, exact = case
    got, want = base.copy(), base.copy()
    rows = base[0, :, ::stride].copy()
    dst = got[-1, :, ::stride]
    with _on_backend("c"):
        if REAL_CC is not None:
            assert _native.library() is not None
        assert minplus.relax(rows, edges, dst) is dst
        minplus.relax_numpy(rows, edges, want[-1, :, ::stride])
        assert got.tobytes() == want.tobytes()
        minplus.relax_hops(got[..., ::stride], k0, edges, exact=exact)
        minplus.relax_hops_numpy(want[..., ::stride], k0, edges, exact=exact)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k0", [0, 5])
@pytest.mark.parametrize("R", [1, 7, 8, 9, 64])
def test_compiled_relax_hops_equals_numpy_at_vector_widths(R, k0):
    """`relax_hops` on a sparse 64-vertex graph with negative cycles, with R
    rows in place (R = 1) or vertex-major around the vector widths of
    doubles, in both modes: the numpy reference's bits."""
    rng = np.random.default_rng(R + k0)
    for seed in (1, 2):
        edges = gen_random_graph(64, 256, 8, seed).in_edges()
        for exact in (False, True):
            got = np.full((24, R, 64), INF)
            got[: k0 + 1] = rng.integers(-20, 21, size=(k0 + 1, R, 64))
            got[: k0 + 1][rng.random((k0 + 1, R, 64)) < 0.5] = INF
            want = got.copy()
            with _on_backend("c"):
                if REAL_CC is not None:
                    assert _native.library() is not None
                minplus.relax_hops(got, k0, edges, exact=exact)
            minplus.relax_hops_numpy(want, k0, edges, exact=exact)
            assert got.tobytes() == want.tobytes()


def test_relax_hops_out_of_memory_is_a_memory_error(monkeypatch):
    """The compiled hop's code for a buffer it could not allocate (2) is a
    MemoryError, not the IndexError of an edge past the rows (1)."""
    monkeypatch.setattr(_native, "_BACKEND", "c")
    monkeypatch.setattr(_native, "_lib", types.SimpleNamespace(relax_hops=lambda *args: 2))
    edges = graph_from_edges(3, [(0, 1, 2)]).in_edges()
    out = np.zeros((3, 2, 3))
    with pytest.raises(MemoryError):
        minplus.relax_hops(out, 0, edges)
    assert not out.any()


@pytest.mark.parametrize("backend", ["c", "numpy"])
@pytest.mark.parametrize("edge", [(4, 0, 1), (0, 4, 1)], ids=["tail", "head"])
def test_relax_refuses_edges_past_the_rows(monkeypatch, backend, edge):
    """Edges of a 5-vertex graph on 3-column rows: an IndexError on both
    backends, before the C loops would read or write past the rows."""
    monkeypatch.setattr(_native, "_BACKEND", backend)
    edges = graph_from_edges(5, [(0, 1, 2), edge]).in_edges()
    rows = np.zeros((2, 3))
    with pytest.raises(IndexError):
        minplus.relax(rows, edges, np.full((2, 3), INF))
    with pytest.raises(IndexError):
        minplus.relax_hops(np.zeros((3, 2, 3)), 0, edges)


_I64 = np.iinfo(np.int64)
_EXACT_DISTANCE = st.one_of(
    st.integers(-20, 20), st.integers(-MAX_EXACT, MAX_EXACT),
    st.sampled_from([INF, 0.0, -0.0, float(MAX_EXACT), -float(MAX_EXACT)]),
)
_INEXACT_DISTANCE = st.sampled_from([2.5, -0.5, np.nan, -INF, 2.0**53 + 2, -(2.0**53) - 2])


@st.composite
def _record_blocks(draw):
    """The format, the fields and up to three blocks of records.  A block
    tiles a drawn pattern of keys (all of int64) and distances (+inf, 0, -0,
    negatives, +-MAX_EXACT; rarely one that is not an exact integer) to its
    length, which may be 0."""
    fmt = draw(st.sampled_from(["tsv", "json-lines"]))
    fields = draw(st.sampled_from([("u", "v", "h", "d"), ("h", "d")]))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 80))
        k = draw(st.integers(1, 6))
        keys = draw(st.lists(st.integers(_I64.min, _I64.max), min_size=k * (len(fields) - 1),
                             max_size=k * (len(fields) - 1)))
        d = draw(st.lists(_EXACT_DISTANCE, min_size=k, max_size=k))
        if draw(st.integers(0, 9)) == 0:
            d[draw(st.integers(0, k - 1))] = draw(_INEXACT_DISTANCE)
        keys = np.resize(np.array(keys, dtype=np.int64).reshape(len(fields) - 1, k),
                         (len(fields) - 1, size))
        blocks.append((keys, np.resize(np.array(d, dtype=float), size)))
    return fmt, fields, blocks


def _emitted(backend, fmt, fields, blocks):
    """`records.emit` on one backend: its text, or the message of the
    VerificationError it raised."""
    out = io.StringIO()
    try:
        with _on_backend(backend), contextlib.redirect_stdout(out):
            if REAL_CC is not None and backend == "c":
                assert _native.library() is not None
            records.emit(fmt, blocks, fields)
    except records.VerificationError as e:
        return f"refused: {e}"
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(_record_blocks(), st.sampled_from([1, 3, 64]))
def test_compiled_renderer_equals_python_byte_for_byte(case, chunk):
    """The compiled record renderer writes what the Python one writes, in
    both formats and field sets and across chunk boundaries (both
    renderers' chunks shortened to `chunk` rows), and refuses the same
    first distance that is not an exact integer."""
    saved = records._CHUNK_ROWS, records._NATIVE_CHUNK_ROWS
    records._CHUNK_ROWS = records._NATIVE_CHUNK_ROWS = chunk
    try:
        assert _emitted("c", *case) == _emitted("numpy", *case)
    finally:
        records._CHUNK_ROWS, records._NATIVE_CHUNK_ROWS = saved


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
def test_compiled_renderer_across_its_own_chunks(fmt):
    """Blocks longer than two of the compiled renderer's chunks, and one
    such block refused near its end."""
    rng = np.random.default_rng(3)
    size = 2 * records._NATIVE_CHUNK_ROWS + 5
    keys = rng.integers(_I64.min, _I64.max, size=(3, size), endpoint=True)
    d = rng.integers(-MAX_EXACT, MAX_EXACT, size=size, endpoint=True) >> rng.integers(0, 54, size)
    d = np.where(rng.random(size) < 0.2, INF, d)
    bad = d.copy()
    bad[-3] = 0.5
    fields = ("u", "v", "h", "d")
    blocks = [(keys, d), (keys[:, :7].copy(), d[:7])]
    assert _emitted("c", fmt, fields, blocks) == _emitted("numpy", fmt, fields, blocks)
    refused = "refused: distance 0.5 is not an exact integer"
    assert _emitted("c", fmt, fields, [(keys, bad)]) == _emitted("numpy", fmt, fields, [(keys, bad)]) == refused
