"""Bellman-Ford or the convolution, chosen by counted work: each all-pairs
round whose sample is not V and each ladder level whose parent is not V
runs the cheaper of the two, by `minplus.conv_cells` against
rows * m * hops.  `test_kernel_choice_numpy.py` collects every test of
this module again with the kernels on their numpy backend."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from allhops import SamplePlan, all_pairs_allhops, apah_brute, graph_from_edges, solvers
from allhops import _native
from allhops.minplus import conv_cells

from test_solvers import _heavier_copies

BACKEND = "c"

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py"
)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


@pytest.fixture(autouse=True)
def backend(request, monkeypatch):
    monkeypatch.setattr(_native, "_BACKEND", request.module.BACKEND)


def test_conv_cells_counts_the_splits_conv_window_evaluates():
    """Every (z, x) with z in [lo, hi] and both x and z - x inside their
    stacks, times R * K * C, on windows inside, across and past the
    output's ends."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        la, lb, R, K, C = (int(x) for x in rng.integers(1, 7, size=5))
        lo = int(rng.integers(-3, la + lb + 2))
        hi = lo + int(rng.integers(-2, la + lb + 2))
        pairs = sum(
            1 for z in range(lo, hi + 1) for x in range(la) if 0 <= z - x < lb
        )
        assert conv_cells((la, R, K), (lb, K, C), lo, hi) == pairs * R * K * C


def test_ladder_cells_count_the_level_s_convolutions(monkeypatch):
    """On a multigraph whose ladder convolves (a 10-vertex chain DAG with
    heavier copies of its edges, C = 1, k = 3: [10, 10, 5, 3] vertices),
    `_ladder_cells` equals `conv_cells` summed over the calls level 3
    makes, and its d_<=h(0, 9) is exact, as single-pair reads it."""
    calls = []
    conv = solvers._conv

    def conv_spy(a3, aoff, b3, boff, lo, hi, strategy):
        calls.append(conv_cells(a3.shape, b3.shape, lo - aoff - boff, hi - aoff - boff))
        return conv(a3, aoff, b3, boff, lo, hi, strategy)

    monkeypatch.setattr(solvers, "_conv", conv_spy)
    chain = graph_from_edges(10, [(i, i + 1, -1) for i in range(9)] + [(0, 5, 1), (2, 9, 3)])
    g = _heavier_copies(chain, 64)
    levels, tables = solvers._sp_level_tables(g, 3, SamplePlan(C=1.0, seed=1, pinned={0, 9}))
    assert [len(v) for v in levels] == [10, 10, 5, 3]
    H, Nr = tables[2].shape[0] - 1, tables[3].shape[0] - 1
    spans, exts = solvers._ladder_steps(H, Nr)
    assert calls and sum(calls) == solvers._ladder_cells(H, spans, exts, 3, 5)
    assert sum(calls) < 3 * g.m * Nr
    brute = apah_brute(chain, with_exact=False).le
    s, t = np.searchsorted(levels[3], [0, 9])
    assert np.array_equal(tables[3][:10, s, t], brute[:, 0, 9])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("C", [1.0, 4.0])
def test_long_hop_chain_runs_no_extension(monkeypatch, seed, C):
    """On a 64-vertex chain DAG with 3n chords, as the long-hop benchmark
    draws, every all-pairs round runs Bellman-Ford, so the table is
    exact: the extension through a sample would cost more at each."""
    calls = []
    monkeypatch.setattr(solvers, "extend_hops", lambda *args: calls.append(args))
    rng = np.random.default_rng(seed)
    order = rng.permutation(64)
    edges = [(int(order[i]), int(order[i + 1]), -1) for i in range(63)]
    chords = set()
    while len(chords) < 192:
        i, j = sorted(rng.integers(0, 64, size=2).tolist())
        if j > i + 1:
            chords.add((i, j))
    edges += [(int(order[i]), int(order[j]), int(rng.integers(0, 9))) for i, j in sorted(chords)]
    g = graph_from_edges(64, edges)
    got = all_pairs_allhops(g, SamplePlan(C=C, seed=seed)).le
    assert calls == []
    assert np.array_equal(got, apah_brute(g, with_exact=False).le)


@pytest.mark.parametrize("name,seed", [
    ("tree", 1), ("chain0", 0), ("chain0", 1), ("sparse1", 0), ("chain1", 0), ("chain1", 1),
])
def test_all_pairs_exact_on_digest_inputs_at_c1(name, seed):
    """The `tools/digest.py` inputs where all pairs at C = 1 missed walks
    while every sampled round extended through its sample (34, 75, 29,
    80, 58 and 9 wrong cells).  Bellman-Ford costs less in those rounds,
    and it is exact."""
    g = next(graph for label, graph, _ in digest._graphs() if label == name)
    got = all_pairs_allhops(g, SamplePlan(C=1.0, seed=seed)).le
    assert np.array_equal(got, apah_brute(g, with_exact=False).le)
