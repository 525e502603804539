"""Building, caching and falling back from the compiled library of
`minplus`: `conv_window` and the Bellman-Ford hop `relax`/`relax_hops`.

Every case must give the numpy reference's outputs, let no exception
escape and keep the CLI at exit 0."""

import os
import shlex
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allhops import INF, apah_brute, gen_random_graph, graph_from_edges, render_graph
from allhops import minplus
from allhops.cli import main

REAL_CC = shutil.which(minplus._CC)
needs_cc = pytest.mark.skipif(REAL_CC is None, reason="no C compiler")


@pytest.fixture
def cold(monkeypatch, tmp_path):
    """A process state on the compiled backend that has not tried to load
    the kernel, with the cache and the temp-dir fallback under tmp_path."""
    monkeypatch.setattr(minplus, "_BACKEND", "c")
    monkeypatch.setattr(minplus, "_kernel", None)
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


def _assert_reference_outputs():
    for a, b in _stacks():
        top = len(a) + len(b)
        got = minplus.conv_window(a, b, -1, top)
        assert np.array_equal(got, minplus.conv_window_numpy(a, b, -1, top))
    g = gen_random_graph(12, 40, 5, 8)  # negative cycles allowed
    got = apah_brute(g), apah_brute(g, with_exact=False)  # both relax_hops modes
    backend, minplus._BACKEND = minplus._BACKEND, "numpy"
    try:
        want = apah_brute(g), apah_brute(g, with_exact=False)
    finally:
        minplus._BACKEND = backend
    assert np.array_equal(got[0].ex, want[0].ex)
    assert all(np.array_equal(a.le, b.le) for a, b in zip(got, want))


def _cli_stdout(capsys, monkeypatch, graph_path, backend, cmds=("single-source", "bf")):
    """The stdout of each command in turn; `bf` is Bellman-Ford alone."""
    outs = []
    for cmd in cmds:
        with monkeypatch.context() as mp:
            mp.setattr(minplus, "_BACKEND", backend)
            code = main([cmd, "--graph", graph_path, "--s", "0"])
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
    monkeypatch.setattr(minplus, "_CC", str(cc))
    want = _cli_stdout(capsys, monkeypatch, graph_path, "numpy")
    assert _cli_stdout(capsys, monkeypatch, graph_path, "c") == want
    assert minplus._kernel is False
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
    assert minplus._kernel is False
    _assert_reference_outputs()


@needs_cc
def test_unusable_user_cache_builds_in_the_temp_dir(cold, monkeypatch):
    blocker = cold / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    _assert_reference_outputs()
    assert minplus._kernel
    built = os.listdir(cold / "tmp" / f"allhops-{os.getuid()}")
    assert len(built) == 1 and built[0].endswith(".so")


# Runs in a fresh process: builds or loads the kernel with the compiler
# given as argv[1], checks `conv_window` and `apah_brute` against the numpy
# references, then runs the CLI on argv[2:] with the compiled backend.
_CHILD = """
import sys
import numpy as np
from allhops import apah_brute, gen_random_graph, minplus
from allhops.cli import main
assert minplus._kernel is None, "importing allhops tried the kernel"
minplus._CC = sys.argv[1]
assert minplus._compiled_kernel() is not None, "kernel not loaded"
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
sys.exit(main(sys.argv[2:]))
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
    cli = ["single-source", "--graph", graph_path, "--s", "0"]
    want = _cli_stdout(capsys, monkeypatch, graph_path, "numpy", cmds=cli[:1])

    def child():
        out = subprocess.run([sys.executable, "-c", _CHILD, str(spy), *cli],
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
    +inf, R possibly 0, laid out either contiguously or as every other column
    of a wider array filled with a sentinel."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-9, 9)),
        max_size=3 * n,
    ))
    L, R = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    cells = draw(st.lists(st.one_of(st.integers(-20, 20), st.just(INF)),
                          min_size=L * R * n, max_size=L * R * n))
    k0 = draw(st.integers(0, L - 1))
    stride = draw(st.sampled_from([1, 2]))
    base = np.full((L, R, stride * n), -99.0)
    base[..., ::stride] = np.array(cells, dtype=float).reshape(L, R, n)
    return graph_from_edges(n, edges).in_edges(), base, stride, k0, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_hop_cases())
def test_compiled_relax_equals_numpy_bit_for_bit(case):
    """`relax` into rows that are not +inf and `relax_hops` (prefix or exact
    hops) from a nonzero start k0 write what the numpy references write, in
    place through a strided `out` too, and nothing outside it."""
    if REAL_CC is not None:
        assert minplus._compiled_kernel() is not None
    edges, base, stride, k0, exact = case
    got, want = base.copy(), base.copy()
    rows = base[0, :, ::stride].copy()
    dst = got[-1, :, ::stride]
    assert minplus.relax(rows, edges, dst) is dst
    minplus.relax_numpy(rows, edges, want[-1, :, ::stride])
    assert got.tobytes() == want.tobytes()
    minplus.relax_hops(got[..., ::stride], k0, edges, exact=exact)
    minplus.relax_hops_numpy(want[..., ::stride], k0, edges, exact=exact)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", ["c", "numpy"])
@pytest.mark.parametrize("edge", [(4, 0, 1), (0, 4, 1)], ids=["tail", "head"])
def test_relax_refuses_edges_past_the_rows(monkeypatch, backend, edge):
    """Edges of a 5-vertex graph on 3-column rows: an IndexError on both
    backends, before the C loops would read or write past the rows."""
    monkeypatch.setattr(minplus, "_BACKEND", backend)
    edges = graph_from_edges(5, [(0, 1, 2), edge]).in_edges()
    rows = np.zeros((2, 3))
    with pytest.raises(IndexError):
        minplus.relax(rows, edges, np.full((2, 3), INF))
    with pytest.raises(IndexError):
        minplus.relax_hops(np.zeros((3, 2, 3)), 0, edges)
