import numpy as np
import pytest

from allhops import (
    INF,
    NegativeCycleError,
    SamplePlan,
    all_pairs_allhops,
    apah_brute,
    gen_random_graph,
    graph_from_edges,
    single_pair_allhops,
    single_source_allhops,
)
from allhops import solvers
from allhops.solvers import _sp_level_tables

PLAN = SamplePlan(C=4.0, seed=1)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 51))
    m = min(int(rng.integers(n, 3 * n + 1)), n * (n - 1))
    g = gen_random_graph(n, m, 5, seed, require_no_neg_cycle=True)
    return g, apah_brute(g, with_exact=False), rng


# ---------------------------------------------------------------------------
# single pair


def test_single_pair_f1(f1):
    assert single_pair_allhops(f1, 0, 2, 1, PLAN).tolist() == [10, 2]


def test_single_pair_f4(f4):
    assert single_pair_allhops(f4, 0, 3, 2, SamplePlan(seed=3)).tolist() == [INF, 1, 1]


def test_single_pair_same_endpoints(f1):
    assert single_pair_allhops(f1, 1, 1, 2, PLAN).tolist() == [0, 0]


def test_single_pair_single_vertex():
    g = graph_from_edges(1, [])
    assert single_pair_allhops(g, 0, 0, 2, PLAN).size == 0


def test_single_pair_rejects_negative_cycle(f3):
    with pytest.raises(NegativeCycleError):
        single_pair_allhops(f3, 0, 1, 1, PLAN)


def test_single_pair_matches_oracle():
    for seed in range(25):
        g, brute, rng = _random_case(seed)
        s, t = (int(x) for x in rng.integers(0, g.n, size=2))
        k = 1 + seed % 3
        got = single_pair_allhops(g, s, t, k, SamplePlan(seed=seed))
        assert np.array_equal(got, brute.le[1:, s, t]), (seed, k)


def test_single_pair_polynomial_strategy_route(f4):
    naive = single_pair_allhops(f4, 0, 3, 2, PLAN, strategy="naive")
    poly = single_pair_allhops(f4, 0, 3, 2, PLAN, strategy="polynomial")
    assert np.array_equal(naive, poly)


@pytest.mark.parametrize("strategy", ["naive", "polynomial"])
def test_single_pair_strategies_convolve_through_a_sampled_level(monkeypatch, strategy):
    """At C = 1 and k = 3 on a 10-vertex chain DAG the ladder holds
    [10, 10, 5, 3] vertices, so level 3 splits at the 5 of level 2.  With
    its 11 edges, Bellman-Ford from level 3's 3 vertices costs less than
    the convolutions and runs; with heavier parallel copies of them,
    which raise m and change no distance, the level runs the paper's
    convolutions, and both strategies are exact there.  (At C = 1 that
    holds only with some probability: seeds 0 and 5 miss the 9-hop walk.)"""
    inner = []
    conv = solvers._conv

    def conv_spy(a3, *args):
        inner.append(a3.shape[2])
        return conv(a3, *args)

    monkeypatch.setattr(solvers, "_conv", conv_spy)
    g = graph_from_edges(10, [(i, i + 1, -1) for i in range(9)] + [(0, 5, 1), (2, 9, 3)])
    brute = apah_brute(g, with_exact=False).le
    got = single_pair_allhops(g, 0, 9, 3, SamplePlan(C=1.0, seed=1), strategy)
    assert np.array_equal(got, brute[1:, 0, 9])
    assert inner == []
    got = single_pair_allhops(_heavier_copies(g), 0, 9, 3, SamplePlan(C=1.0, seed=1), strategy)
    assert np.array_equal(got, brute[1:, 0, 9])
    assert inner and all(size < g.n for size in inner)


def test_single_pair_deterministic():
    g, _, _ = _random_case(7)
    a = single_pair_allhops(g, 0, 1, 3, SamplePlan(seed=42))
    b = single_pair_allhops(g, 0, 1, 3, SamplePlan(seed=42))
    assert np.array_equal(a, b)


def test_level_tables_consistent_under_restriction():
    g, brute, _ = _random_case(3)
    plan = SamplePlan(seed=5).with_pins({0, 1})
    levels, tables = _sp_level_tables(g, 3, plan)
    for r in range(len(levels) - 1):
        cur, nxt = levels[r], levels[r + 1]
        pos = np.searchsorted(cur, nxt)
        prev_restricted = tables[r][:, pos][:, :, pos]
        overlap = min(tables[r].shape[0], tables[r + 1].shape[0])
        assert np.array_equal(prev_restricted[:overlap], tables[r + 1][:overlap])
    # every level's table is exact (hops past n-1 hold stabilized values)
    for verts, tab in zip(levels, tables):
        overlap = min(tab.shape[0], brute.le.shape[0])
        want = brute.le[:overlap][:, verts][:, :, verts]
        assert np.array_equal(tab[:overlap], want)
        assert np.array_equal(tab[overlap:], np.broadcast_to(want[-1], tab[overlap:].shape))


# ---------------------------------------------------------------------------
# single source


def test_single_source_f1(f1):
    t = single_source_allhops(f1, 0, 1, PLAN)
    assert t.le[1, 0].tolist() == [0, 1, 10]
    assert t.le[2, 0].tolist() == [0, 1, 2]


def test_single_source_f4(f4):
    t = single_source_allhops(f4, 0, 2, PLAN)
    assert t.le[2, 0, 3] == 1
    assert t.le[1, 0, 3] == INF


def test_single_source_split_settings_match_oracle():
    for seed in range(10):
        g, brute, rng = _random_case(seed + 50)
        s = int(rng.integers(0, g.n))
        for k in (2, 3):
            for split in (None, 0, k):
                got = single_source_allhops(g, s, k, SamplePlan(seed=seed), split=split)
                assert np.array_equal(got.le[:, 0, :], brute.le[:, s, :]), (seed, k, split)


def test_single_source_on_dense_multigraph(multigraph):
    """Prefix tables by Bellman-Ford over parallel edges, self-loops and
    m ~ n^2/2, which no generator makes."""
    brute = apah_brute(multigraph, with_exact=False)
    for k in (2, 3):
        for s in (0, 7, multigraph.n - 1):
            got = single_source_allhops(multigraph, s, k, PLAN, split=0)
            assert np.array_equal(got.le[:, 0, :], brute.le[:, s, :]), (k, s)


def test_single_source_k1_and_validation(f1, f3):
    t = single_source_allhops(f1, 0, 1, PLAN)
    brute = apah_brute(f1, with_exact=False)
    assert np.array_equal(t.le[:, 0, :], brute.le[:, 0, :])
    with pytest.raises(NegativeCycleError):
        single_source_allhops(f3, 0, 2, PLAN)
    with pytest.raises(ValueError):
        single_source_allhops(f1, 0, 2, PLAN, split=5)


def test_single_source_output_monotone():
    g, _, _ = _random_case(17)
    t = single_source_allhops(g, 2, 3, SamplePlan(seed=2))
    assert (t.le[1:] <= t.le[:-1]).all()


def test_single_source_asks_only_for_prefix_tables(monkeypatch):
    """Every level past split relaxes d_<=h rows: no call asks Bellman-Ford
    for exact-hop tables, at any split."""
    calls = []
    bf = solvers._bf_multi

    def bf_spy(g, sources, L, with_exact):
        calls.append(with_exact)
        return bf(g, sources, L, with_exact)

    monkeypatch.setattr(solvers, "_bf_multi", bf_spy)
    g, brute, rng = _random_case(23)
    s = int(rng.integers(0, g.n))
    for k in (1, 2, 3, 4):
        for split in range(k + 1):
            got = single_source_allhops(g, s, k, PLAN, split=split)
            assert np.array_equal(got.le[:, 0, :], brute.le[:, s, :]), (k, split)
    assert calls and not any(calls)


# ---------------------------------------------------------------------------
# all pairs


def test_all_pairs_f1(f1):
    got = all_pairs_allhops(f1, PLAN)
    want = apah_brute(f1, with_exact=False)
    assert np.array_equal(got.le, want.le)


def test_all_pairs_no_edges():
    g = graph_from_edges(4, [])
    t = all_pairs_allhops(g, PLAN)
    for h in range(1, 4):
        off = t.le[h][~np.eye(4, dtype=bool)]
        assert np.isinf(off).all()


def test_all_pairs_matches_oracle():
    for seed in range(20):
        g, brute, _ = _random_case(seed + 100)
        got = all_pairs_allhops(g, SamplePlan(C=8.0, seed=seed))
        assert np.array_equal(got.le, brute.le), seed


def test_all_pairs_deterministic_and_rejects_cycle(f3):
    g, _, _ = _random_case(23)
    a = all_pairs_allhops(g, SamplePlan(seed=9))
    b = all_pairs_allhops(g, SamplePlan(seed=9))
    assert np.array_equal(a.le, b.le)
    with pytest.raises(NegativeCycleError):
        all_pairs_allhops(f3, PLAN)


# ---------------------------------------------------------------------------
# sampled split sets on long-hop inputs

# Seeds on which all three solvers are exact at these C.  Exactness holds
# only with high probability over the sample: at C = 1, seeds 2, 3 and 13
# give a wrong single-pair or single-source table.
_CHAIN_SEEDS = (0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14)


def _chain_dag(seed, n=None):
    """A Hamiltonian path of weight -1 per edge through a random order, plus
    n forward chords heavier than the segment they skip, so d_<=h(s, t)
    keeps improving up to h = n - 1.  n is drawn from [40, 60] unless given."""
    rng = np.random.default_rng(seed)
    drawn = int(rng.integers(40, 61))
    n = drawn if n is None else n
    order = rng.permutation(n)
    edges = [(int(order[i]), int(order[i + 1]), -1) for i in range(n - 1)]
    pairs = set()
    while len(pairs) < n:
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if j > i + 1:
            pairs.add((i, j))
    edges += [(int(order[i]), int(order[j]), int(rng.integers(0, 2 * n))) for i, j in sorted(pairs)]
    return graph_from_edges(n, edges), order, rng


def _heavier_copies(g, copies=512):
    """g with `copies` parallel copies of each edge, each one heavier: m
    grows by that factor and no distance changes.  It makes Bellman-Ford
    dearer than the convolutions, so the solvers' sampled steps convolve."""
    return graph_from_edges(g.n, g.edges + tuple((u, v, w + 1) for u, v, w in g.edges) * copies)


@pytest.mark.parametrize("seed", _CHAIN_SEEDS)
def test_sampled_split_sets_on_long_hop_chains(monkeypatch, seed):
    """At C = 1 (sp, ss) and C = 2 (all pairs), some ladder level or round
    splits at a sample smaller than V.  On the chain itself Bellman-Ford
    costs less there and runs; on its heavier copies the convolution, not
    Bellman-Ford, has to find the shortest walks.  The spies record, for
    each ladder convolution and round extension, whether its split set was
    all of V."""
    flags = []
    conv, extend = solvers._conv, solvers.extend_hops

    def conv_spy(a3, *args):
        flags.append(a3.shape[2] == n)  # the split set is a3's inner index
        return conv(a3, *args)

    def extend_spy(out, table, rows, mid_rows, mid_cols):
        flags.append(len(mid_cols) == table.shape[2])
        return extend(out, table, rows, mid_rows, mid_cols)

    monkeypatch.setattr(solvers, "_conv", conv_spy)
    monkeypatch.setattr(solvers, "extend_hops", extend_spy)
    chain, order, rng = _chain_dag(seed)
    n = chain.n
    brute = apah_brute(chain, with_exact=False).le
    s, t = int(order[rng.integers(0, 3)]), int(order[n - 1 - rng.integers(0, 3)])
    heavy, plan = _heavier_copies(chain), SamplePlan(C=1.0, seed=seed)
    runs = {
        "single-pair": lambda g: (single_pair_allhops(g, s, t, 2, plan), brute[1:, s, t]),
        "single-source": lambda g: (single_source_allhops(g, s, 2, plan).le[:, 0], brute[:, s]),
        "all-pairs": lambda g: (all_pairs_allhops(g, SamplePlan(C=2.0, seed=seed)).le, brute),
    }
    for name, run in runs.items():
        flags.clear()
        got, want = run(chain)
        assert np.array_equal(got, want), name
        assert False not in flags, f"{name}: a sampled step convolved on the chain"
        flags.clear()
        got, want = run(heavy)
        assert np.array_equal(got, want), name
        assert False in flags, f"{name}: no split set smaller than V"


def test_all_pairs_rounds_pinned(monkeypatch):
    """The exact rounds (K_prev, K_new, sample) of all pairs at C = 1.  The
    table of a chain does not show its samples, so a drifted round shows
    only here.  A round whose sample is all of V runs Bellman-Ford, and
    so does every round of the path itself, where it costs less than the
    extension, so that table is exact; the samples show on its heavier
    copies, where the extensions through them miss walks."""
    rounds = []
    extend, relax_hops = solvers.extend_hops, solvers.relax_hops
    every = list(range(40))

    def extend_spy(out, table, rows, mid_rows, mid_cols):
        rounds.append((table.shape[0] - 1, out.shape[0] - 1, mid_cols.tolist()))
        return extend(out, table, rows, mid_rows, mid_cols)

    def relax_hops_spy(out, k0, edges):
        rounds.append((k0, out.shape[0] - 1, every))
        return relax_hops(out, k0, edges)

    monkeypatch.setattr(solvers, "extend_hops", extend_spy)
    monkeypatch.setattr(solvers, "relax_hops", relax_hops_spy)
    g = graph_from_edges(40, [(i, i + 1, 1) for i in range(39)])
    brute = apah_brute(g, with_exact=False).le
    ks = solvers.geometric_ladder(40)
    assert np.array_equal(all_pairs_allhops(g, SamplePlan(C=1.0, seed=0)).le, brute)
    assert rounds == [(a, b, every) for a, b in zip(ks, ks[1:])]
    rounds.clear()
    all_pairs_allhops(_heavier_copies(g), SamplePlan(C=1.0, seed=0))
    assert rounds == [
        (1, 2, every),
        (2, 3, every),
        (3, 4, every),
        (4, 6, [v for v in every if v not in (7, 10, 16)]),
        (6, 8, [0, 1, 3, 4, 8, 10, 11, 12, 13, 14, 16, 17, 18, 20, 22, 25, 28, 29, 30, 31,
                32, 35, 36, 37, 38]),
        (8, 12, [1, 3, 4, 6, 7, 12, 15, 16, 18, 21, 22, 23, 25, 26, 27, 29, 35, 37, 39]),
        (12, 18, [0, 7, 11, 14, 15, 17, 20, 22, 23, 26, 29, 31, 33]),
        (18, 26, [2, 6, 10, 14, 17, 24, 28, 35, 37]),
        (26, 39, [5, 16, 21, 29, 33, 37]),
    ]


# ---------------------------------------------------------------------------
# one Bellman-Ford from s where the ladder's last level runs Bellman-Ford


def _spy_solver_calls(monkeypatch):
    """Record the sources of every `_bf_multi` call and the shapes of every
    `conv_window` call the solvers make (the ladder's through `_conv`)."""
    calls = {"bf": [], "conv": []}
    bf, conv = solvers._bf_multi, solvers.conv_window

    def bf_spy(g, sources, L, with_exact):
        calls["bf"].append(tuple(int(v) for v in sources))
        return bf(g, sources, L, with_exact)

    def conv_spy(a3, b3, lo, hi):
        calls["conv"].append((a3.shape, b3.shape))
        return conv(a3, b3, lo, hi)

    monkeypatch.setattr(solvers, "_bf_multi", bf_spy)
    monkeypatch.setattr(solvers, "conv_window", conv_spy)
    return calls


def test_solve_sparse_shape_runs_one_bellman_ford_from_s(monkeypatch):
    """On the benchmark's sparse shape (n = 64, m = 256, C = 4) every split
    set of single-source k = 2 and of single-pair k = 2, 3 that the ladder's
    last level or a combining step would split at is all of V.  So each
    call is one Bellman-Ford from s and no convolution."""
    calls = _spy_solver_calls(monkeypatch)
    g = gen_random_graph(64, 256, 8, 0, require_no_neg_cycle=True)
    brute = apah_brute(g, with_exact=False).le
    plan = SamplePlan(C=4.0, seed=0)
    s, t = 5, 60
    runs = [
        (lambda: single_source_allhops(g, s, 2, plan).le[:, 0], brute[:, s]),
        (lambda: single_pair_allhops(g, s, t, 2, plan), brute[1:, s, t]),
        (lambda: single_pair_allhops(g, s, t, 3, plan), brute[1:, s, t]),
    ]
    for run, want in runs:
        calls["bf"].clear()
        assert np.array_equal(run(), want)
        assert calls["bf"] == [(s,)] and calls["conv"] == []


@pytest.mark.parametrize("C,k,split", [(1.0, 3, 1), (4.0, 2, 0)])
def test_combining_step_through_v_convolves_after_a_sampled_one(monkeypatch, C, k, split):
    """Once a combining step has split at a sample smaller than V, cur may
    be too high, and a later step through V can lower it, so that step
    keeps its convolution.  At C = 4, k = 2, split = 0 the ladder's last
    level runs Bellman-Ford, so cur starts exact; at C = 1, k = 3 it
    starts from the ladder's convolutions.  The combining steps are the
    convolutions with one output column."""
    calls = _spy_solver_calls(monkeypatch)
    g, order, _ = _chain_dag(0, 50)
    n, s = g.n, int(order[0])
    plan = SamplePlan(C=C, seed=0)
    levels = solvers.growing_hierarchy(n, k, plan.with_pins({s})).levels
    got = single_source_allhops(g, s, k, plan, split)
    assert np.array_equal(got.le[:, 0], apah_brute(g, with_exact=False).le[:, s])
    sizes = [len(levels[r - 1]) for r in range(split + 1, k + 1)]
    assert sizes[0] < n and sizes[-1] == n
    assert [a3[2] for a3, b3 in calls["conv"] if b3[2] == 1] == sizes


def _family(kind, n, seed):
    """(graph, s, t): a sparse or dense random graph with the pair (0, n-1),
    or a chain DAG with the pair at the ends of its path."""
    if kind == "chain":
        g, order, _ = _chain_dag(seed, n)
        return g, int(order[0]), int(order[-1])
    m = 4 * n if kind == "sparse" else n * (n - 1) // 2
    return gen_random_graph(n, m, 8, seed, require_no_neg_cycle=True), 0, n - 1


@pytest.mark.parametrize("kind", ["sparse", "dense", "chain"])
@pytest.mark.parametrize("n", [40, 64, 96])
def test_pointwise_solvers_match_brute_at_every_split(kind, n):
    """Single-pair at k = 1..3 and single-source at every split of k = 1..3,
    against Bellman-Ford from every vertex, at C = 1 and 4.  Seed 11 is
    the first where C = 1 is exact on all nine graphs: each of seeds 0-10
    misses a walk on some chain."""
    g, s, t = _family(kind, n, 11)
    brute = apah_brute(g, with_exact=False).le
    for C in (1.0, 4.0):
        plan = SamplePlan(C=C, seed=11)
        for k in (1, 2, 3):
            assert np.array_equal(single_pair_allhops(g, s, t, k, plan), brute[1:, s, t]), (C, k)
            for split in range(k + 1):
                got = single_source_allhops(g, s, k, plan, split)
                assert np.array_equal(got.le[:, 0], brute[:, s]), (C, k, split)
