import hashlib
import struct

import numpy as np
import pytest

from allhops import oracles
from allhops.cli import main

from allhops import (
    LevelOracle,
    MemoryBudgetError,
    ParseError,
    SamplePlan,
    apah_brute,
    bellman_ford_allhops,
    build_oracle_bf,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_powers,
    build_tree_gadget,
    gen_random_graph,
    graph_from_edges,
    load_oracle,
    reverse,
    save_oracle,
    weight_matrix,
)

PLAN = SamplePlan(C=8.0, seed=5)


def _all_builders(g, plan=PLAN):
    return {
        "powers": build_oracle_powers(g),
        "bf": build_oracle_bf(g),
        "mn": build_oracle_mn(g, plan),
        "mpp": build_oracle_mpp(g, plan),
        "bounded": build_oracle_bounded(g, plan),
    }


# ---------------------------------------------------------------------------
# full-table oracles


def test_full_table_queries_f1(f1):
    for build in (build_oracle_powers, build_oracle_bf):
        o = build(f1)
        assert o.query(0, 2, 1) == 10
        assert o.query(0, 2, 2) == 2


def test_full_table_stores_bf_values(f2):
    o = build_oracle_bf(f2)
    row = bellman_ford_allhops(f2, 1, 1)
    assert o.query(1, 0, 1) == row.le[1][0] == 3


def test_powers_and_bf_bit_identical():
    g = gen_random_graph(18, 50, 4, 8, require_no_neg_cycle=True)
    a, b = build_oracle_powers(g), build_oracle_bf(g)
    assert np.array_equal(a.le, b.le)
    assert save_oracle(a)[6:] == save_oracle(b)[6:]  # same payload past the kind byte


def test_full_table_past_its_horizon(f1):
    """A table cut at H answers h > H only once it has stabilized; on f1,
    d_<=2(0, 2) = 2 improves on d_<=1(0, 2) = 10."""
    path = graph_from_edges(5, [(0, 1, 1), (1, 2, 1)])  # stable from hop 2 on
    for build in (build_oracle_powers, build_oracle_bf):
        short = build(f1, 1)
        stable = build(path, 3)
        for o in (short, load_oracle(save_oracle(short))):
            assert o.query(0, 2, 1) == 10
            with pytest.raises(ValueError, match="hop budget 2"):
                o.query(0, 2, 2)
        for o in (stable, load_oracle(save_oracle(stable))):
            assert o.query(0, 2, 4) == 2 and o.query(0, 1, 4) == 1
        with pytest.raises(ValueError):
            build(f1, 0).query(0, 1, 1)


def test_memory_cap():
    g = gen_random_graph(40, 100, 3, 1, require_no_neg_cycle=True)
    with pytest.raises(MemoryBudgetError):
        build_oracle_powers(g, mem_cap_bytes=1000)


# ---------------------------------------------------------------------------
# level-structured oracles


def test_mn_level0_clamps_to_all_vertices(f1):
    o = build_oracle_mn(f1, SamplePlan(C=4.0, seed=0))
    assert o.samples[0].tolist() == [0, 1, 2]


@pytest.mark.parametrize("C", [8.0, 1.0])
def test_mn_tables_are_bf_rows(C):
    """At C = 1 the levels hold 30, 30, 26, 13 and 7 vertices, so levels
    start both from the level below (26 of V) and from a lower one (13 and
    7, not inside 26, start from level 1, all of V)."""
    g = gen_random_graph(30, 80, 5, 12, require_no_neg_cycle=True)
    o = build_oracle_mn(g, SamplePlan(C=C, seed=PLAN.seed))
    rg = reverse(g)
    for k, sample, fwd_t, bwd_t in zip(o.ks, o.samples, o.fwd, o.bwd):
        for si, s in enumerate(sample.tolist()):
            fwd = bellman_ford_allhops(g, s, k)
            bwd = bellman_ford_allhops(rg, s, k)
            assert np.array_equal(fwd_t[:, si, :], fwd.le)
            assert np.array_equal(bwd_t[:, si, :], bwd.le)


def test_mn_single_vertex_graph():
    o = build_oracle_mn(graph_from_edges(1, []), PLAN)
    assert len(o.ks) == 1
    # ln 1 = 0: the one level draws no vertex, unlike the hierarchies.
    assert [s.tolist() for s in o.samples] == [[]]
    with pytest.raises(ValueError):
        o.query(0, 0, 1)


def test_mpp_base_case(f1, f2):
    for g in (f1, f2):
        o = build_oracle_mpp(g, PLAN)
        w = weight_matrix(g)
        base = o.fwd[0][1]
        off = ~np.eye(g.n, dtype=bool)
        assert np.array_equal(base[off], w[off])
        assert (np.diag(base) == 0).all()


def test_mpp_tables_are_bf_rows():
    g = gen_random_graph(25, 70, 5, 9, require_no_neg_cycle=True)
    o = build_oracle_mpp(g, PLAN)
    brute = apah_brute(g, with_exact=False)
    for j, k in enumerate(o.ks):
        verts = o.samples[j]
        want = brute.le[: k + 1][:, verts, :]
        assert np.array_equal(o.fwd[j], want), j


def test_bounded_crossover_paths_identical():
    g = gen_random_graph(22, 60, 5, 4, require_no_neg_cycle=True)
    a = build_oracle_bounded(g, PLAN, kstar=0)
    b = build_oracle_bounded(g, PLAN, kstar=g.n)
    assert a.ks == b.ks
    for x, y in zip(a.samples, b.samples):
        assert np.array_equal(x, y)
    for x, y in zip(a.fwd, b.fwd):
        assert np.array_equal(x, y)
    for x, y in zip(a.bwd, b.bwd):
        assert np.array_equal(x, y)


def test_bounded_tables_are_bf_rows():
    g = gen_random_graph(20, 55, 6, 14, require_no_neg_cycle=True)
    o = build_oracle_bounded(g, PLAN)
    brute = apah_brute(g, with_exact=False)
    for j, k in enumerate(o.ks):
        verts = o.samples[j]
        assert np.array_equal(o.fwd[j], brute.le[: k + 1][:, verts, :])


def test_bounded_direct_levels_on_dense_multigraph(multigraph):
    """kstar = n builds every level by Bellman-Ford from its sample, here on
    parallel edges, self-loops and m ~ n^2/2."""
    g = multigraph
    brute = apah_brute(g, with_exact=False).le
    o = build_oracle_bounded(g, PLAN, kstar=g.n)
    for k, s, f, b in zip(o.ks, o.samples, o.fwd, o.bwd):
        assert np.array_equal(f, brute[: k + 1, s, :])
        assert np.array_equal(b, brute[: k + 1][:, :, s].transpose(0, 2, 1))
    for u in range(g.n):
        for v in range(g.n):
            for h in range(1, g.n):
                assert o.query(u, v, h) == brute[h, u, v], (u, v, h)


def test_bounded_needs_declared_M():
    g = graph_from_edges(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        build_oracle_bounded(g, PLAN)


def test_bounded_single_vertex():
    g = graph_from_edges(1, [], declared_M=1)
    o = build_oracle_bounded(g, PLAN)
    assert o.ks == [1]


# ---------------------------------------------------------------------------
# query equivalence


def test_query_equivalence_exhaustive_small():
    for seed, n in ((0, 2), (1, 7), (2, 12)):
        m = min(3 * n, n * (n - 1))
        g = gen_random_graph(n, m, 5, seed, require_no_neg_cycle=True)
        brute = apah_brute(g, with_exact=False)
        oracles = _all_builders(g, SamplePlan(C=8.0, seed=seed))
        for u in range(n):
            for v in range(n):
                for h in range(1, n):
                    want = brute.le[h, u, v]
                    for name, o in oracles.items():
                        assert o.query(u, v, h) == want, (name, n, u, v, h)


def test_query_validation(f1):
    o = build_oracle_mn(f1, PLAN)
    with pytest.raises(ValueError):
        o.query(0, 2, 0)
    with pytest.raises(ValueError):
        o.query(0, 2, 3)
    with pytest.raises(ValueError):
        o.query(0, 9, 1)
    assert o.query(1, 1, 1) == 0


# ---------------------------------------------------------------------------
# snapshots and counters


def test_snapshot_roundtrip_bit_exact():
    g = gen_random_graph(13, 35, 4, 2, require_no_neg_cycle=True)
    for name, o in _all_builders(g).items():
        blob = save_oracle(o)
        assert blob[:5] == b"AHDO1"
        again = load_oracle(blob)
        assert save_oracle(again) == blob, name
        for u, v, h in ((0, 5, 3), (2, 2, 1), (4, 11, 12)):
            assert again.query(u, v, h) == o.query(u, v, h), name


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        load_oracle(b"NOTMAGIC" + b"\0" * 64)


# sha256 of save_oracle on one sampled graph (C=1 leaves levels 3.. of mpp
# and bounded proper subsets; bounded's crossover kstar=6 runs both table
# paths).  Pins the AHDO1 bytes, not just a self round trip.
GOLDEN_SNAPSHOTS = {
    "powers": "b418d55e75d25fc5d59461a841fc2c47c217d2b4a66a4dfcb27d429aacbedd3a",
    "bf": "c8ef5ee34a36565d2c33a12d2b38b08c59bb5b71b9867147a96d21cf592b62b1",
    "mn": "60a2f2a3b5944ed0335164477f5eedd67cb8b776917cd1725b8067063c6a06a0",
    "mpp": "760bc9e64eed3b712d81a7a7ae1cce4b690d04491538be48776ae06ad9ac5d8a",
    "bounded": "538a65ba64d2dab192fe2440a3f42e3f2042e176da6ccaab65d09a43e5d92790",
}


def test_snapshot_golden_sha256():
    g = gen_random_graph(24, 72, 4, 2, require_no_neg_cycle=True)
    for name, o in _all_builders(g, SamplePlan(C=1.0, seed=5)).items():
        assert hashlib.sha256(save_oracle(o)).hexdigest() == GOLDEN_SNAPSHOTS[name], name


def _small_snapshot():
    g = gen_random_graph(6, 14, 3, 1, require_no_neg_cycle=True)
    return save_oracle(build_oracle_mn(g, PLAN))


# AHDO1 layout: magic(5) kind(1) n(4) seed(8) C(8) kstar(8) level_count(4),
# then per level: k(4) |S|(4) sample(8|S|) array_count(4) arrays.
_N_AT, _SAMPLE_AT = 6, 46


def _patch(blob, at, fmt, *values):
    return blob[:at] + struct.pack(fmt, *values) + blob[at + struct.calcsize(fmt):]


def test_snapshot_truncation_is_parse_error():
    blob = _small_snapshot()
    for cut in (0, 3, 5, 6, 20, 37, 38, 45, 60, len(blob) // 2, len(blob) - 1):
        with pytest.raises(ParseError):
            load_oracle(blob[:cut])


@pytest.mark.parametrize("corrupt", [
    lambda b: _patch(b, 5, "<B", 9),  # kind byte
    lambda b: _patch(b, _N_AT, "<I", 7),  # n disagrees with the array shapes
    lambda b: _patch(b, _N_AT, "<I", 0),
    lambda b: _patch(b, _SAMPLE_AT, "<q", 6),  # sample vertex out of range
    lambda b: _patch(b, _SAMPLE_AT, "<q", -1),
    lambda b: _patch(b, _SAMPLE_AT, "<q", 3),  # sample not sorted
    lambda b: b[:34] + struct.pack("<I", 0),  # no levels
    lambda b: b + b"\0",  # trailing bytes
], ids=["kind", "n-shape", "n-zero", "sample-high", "sample-negative", "sample-unsorted",
        "no-levels", "trailing"])
def test_snapshot_structure_is_validated(corrupt):
    with pytest.raises(ParseError):
        load_oracle(corrupt(_small_snapshot()))


def test_sampled_level_budget_past_n_is_refused(capsys, tmp_path):
    """A sampled level with no vertices holds no cells, so a tiny file could
    ask for a hop axis of any length.  No build goes past max(1, n - 1)
    hops; a larger budget is a ParseError at load and exit 1 from `oracle
    query`."""
    budget = 1 << 20
    header = struct.pack("<BIQdqI", oracles.KINDS.index("mn"), 2, 0, 4.0, 0, 1)
    shape = struct.pack("<3Q", budget + 1, 0, 2)
    level = struct.pack("<II", budget, 0) + struct.pack("<I", 2) + 2 * (struct.pack("<I", 3) + shape)
    blob = oracles.MAGIC + header + level
    with pytest.raises(ParseError, match="budget"):
        load_oracle(blob)
    snap, queries = tmp_path / "wide.ahdo", tmp_path / "queries.txt"
    snap.write_bytes(blob)
    queries.write_text("0 1 1\n")
    code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("allhops: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["powers", "bf"])
def test_full_table_budget_zero_is_refused(f1, kind, capsys, tmp_path):
    """No build writes a full table with budget 0, and one would answer no
    query: a ParseError at load and exit 1 from `oracle query`."""
    le = apah_brute(f1, 1, with_exact=False).le[:1]
    blob = save_oracle(oracles.FullTableOracle(kind, f1.n, 0, le))
    with pytest.raises(ParseError, match="budget 0"):
        load_oracle(blob)
    snap, queries = tmp_path / "zero.ahdo", tmp_path / "queries.txt"
    snap.write_bytes(blob)
    queries.write_text("0 1 1\n")
    code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("allhops: ") and err.count("\n") == 1


def test_sampled_level_oracles_exact():
    """C=1 at n=60: the deep levels are proper samples, so every answer
    depends on the split vertices actually hitting the shortest walks."""
    g = gen_random_graph(60, 240, 5, 3, require_no_neg_cycle=True)
    plan = SamplePlan(C=1.0, seed=11)
    brute = apah_brute(g, with_exact=False)
    rng = np.random.default_rng(12)
    triples = [tuple(int(x) for x in t) for t in zip(
        rng.integers(0, g.n, 400), rng.integers(0, g.n, 400), rng.integers(1, g.n, 400)
    )] + [(u, v, g.n - 1) for u in range(0, g.n, 7) for v in range(3, g.n, 11)]
    for build in (build_oracle_mn, build_oracle_mpp, build_oracle_bounded):
        o = build(g, plan)
        assert any(s.size < g.n for s in o.samples)
        for u, v, h in triples:
            assert o.query(u, v, h) == brute.le[h, u, v], (o.kind, u, v, h)


def test_build_relaxations_count_every_bellman_ford_level():
    """m per row and hop that Bellman-Ford ran, in each direction, on the
    direct levels: every mn level, level 0 of mpp and bounded's levels up
    to kstar.  A level starts from the highest level below whose sample
    contains its own, at that level's budget K, or else from the root, the
    hop-0 identity over V (K = 0).  It runs only the rows that hop K+1
    changes: on exact tables, the rows no edge relaxes are the unchanged
    ones."""
    g = gen_random_graph(40, 160, 8, 2, require_no_neg_cycle=True)
    plan = SamplePlan(C=1.0, seed=3)
    brute = apah_brute(g, with_exact=False).le
    back = brute.transpose(0, 2, 1)  # back[h][s, u] = d_<=h(u, s)
    starts = set()

    def bf_cost(o, levels):
        total = 0
        for j in levels:
            k, s = o.ks[j], o.samples[j]
            i = max((i for i in range(j) if np.isin(s, o.samples[i]).all()), default=-1)
            starts.add(j - i)  # 1: the level below; more: a lower level or the root
            k0 = o.ks[i] if i >= 0 else 0
            if k0 < k:
                rows = sum(int((t[k0 + 1, s] != t[k0, s]).any(axis=1).sum()) for t in (brute, back))
                total += g.m * (k - k0) * rows
        return total

    mn = build_oracle_mn(g, plan)
    assert mn.counters.relaxations == bf_cost(mn, range(len(mn.ks)))
    assert {1, 2} <= starts
    mpp = build_oracle_mpp(g, plan)
    assert mpp.counters.relaxations == bf_cost(mpp, [0])
    bounded = build_oracle_bounded(g, plan, kstar=6)
    assert bounded.ks[:5] == [1, 2, 3, 4, 6] and bounded.ks[5] > 6
    assert bounded.counters.relaxations == bf_cost(bounded, range(5))


def test_mn_build_reruns_no_level_below():
    """On an n = 64 sparse graph like the oracle benchmark's, mn levels 0-4
    all hold V, and the last level is not inside the one below it.
    Starting every level from the highest level below that contains it and
    copying settled rows runs under a sixth of the Bellman-Ford work of
    rerunning every level from scratch, 2·m·K_j·|S_j| relaxations each."""
    g = gen_random_graph(64, 256, 8, 4, require_no_neg_cycle=True)
    o = build_oracle_mn(g, SamplePlan())
    rerun = sum(2 * g.m * k * s.size for k, s in zip(o.ks, o.samples))
    assert o.counters.relaxations <= rerun / 6


def test_counters_track_and_reset():
    g = gen_random_graph(16, 45, 4, 6, require_no_neg_cycle=True)
    o = build_oracle_mn(g, PLAN)
    assert o.counters.relaxations > 0
    o.counters.reset()
    o.query(0, 1, 15)
    per_query = o.counters.adds
    assert per_query > 0
    o.query(0, 1, 15)
    assert o.counters.adds == 2 * per_query
    assert o.storage_cells() == sum(f.size + b.size for f, b in zip(o.fwd, o.bwd))


# ---------------------------------------------------------------------------
# settled rows and per-level query windows


def _full_scan(o, h):
    """d_{<=h} for every (u, v) without the query's windows: every level
    with K_{j-1} <= h, every split a in [0, min(h, K_j)], no level skipped."""
    best = np.full((o.n, o.n), np.inf)
    for j, k in enumerate(o.ks):
        if j and o.ks[j - 1] > h:
            break
        f, b = o.fwd[j], o.bwd[j]
        for a in range(min(h, k) + 1):
            cand = (b[a].T[:, :, None] + f[min(h - a, k)][None]).min(axis=1, initial=np.inf)
            np.minimum(best, cand, out=best)
    np.fill_diagonal(best, 0)
    return best


def _assert_answers(o, want):
    """o.query(u, v, h) == want[h][u, v] for every u, v and h = 1..n-1."""
    for h in range(1, o.n):
        for u in range(o.n):
            for v in range(o.n):
                assert o.query(u, v, h) == want[h][u, v], (o.kind, u, v, h)


def _small_chain_dag(n, seed):
    """A Hamiltonian path of weight -1 per edge plus n heavier forward
    chords: d_<=h keeps improving up to h = n - 1."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = [(int(order[i]), int(order[i + 1]), -1) for i in range(n - 1)]
    chords = set()
    while len(chords) < n:
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if j > i + 1:
            chords.add((i, j))
    edges += [(int(order[i]), int(order[j]), int(rng.integers(0, 2 * n))) for i, j in sorted(chords)]
    return graph_from_edges(n, edges, declared_M=2 * n)


_WINDOW_GRAPHS = {
    "sparse": lambda: gen_random_graph(20, 60, 6, 1, require_no_neg_cycle=True),
    "chain": lambda: _small_chain_dag(20, 0),
    "tree": lambda: build_tree_gadget(3).graph,
}


@pytest.mark.parametrize("C", [1.0, 4.0])
@pytest.mark.parametrize("family", sorted(_WINDOW_GRAPHS))
def test_query_window_equals_full_scan(family, C):
    """The windowed query (cut splits, skipped copy levels) answers every
    (u, v, h) as the full scan does, and both equal apah_brute."""
    g = _WINDOW_GRAPHS[family]()
    brute = apah_brute(g, with_exact=False).le
    for build in (build_oracle_mn, build_oracle_mpp, build_oracle_bounded):
        o = build(g, SamplePlan(C=C, seed=2))
        full = [None] + [_full_scan(o, h) for h in range(1, g.n)]
        for h in range(1, g.n):
            assert np.array_equal(full[h], brute[h]), (o.kind, h)
        _assert_answers(o, full)


def _random_level_oracle(rng, n):
    """A LevelOracle over random tables that are non-increasing in the hop
    and freeze at a random hop per level, with random (sometimes nested,
    sometimes repeated, sometimes empty) levels and budgets from 0, as a
    snapshot may hold: not the tables of any graph, so splits rarely tie."""
    ks, samples, fwd, bwd = [], [], [], []
    for j in range(int(rng.integers(1, 6))):
        k = int(rng.integers(0, n)) if not ks else int(rng.integers(ks[-1], n + 2))
        if ks and rng.random() < 0.3:  # the level below, last slice repeated
            sel = np.sort(rng.choice(len(samples[-1]), size=rng.integers(0, len(samples[-1]) + 1),
                                     replace=False))
            kp, s = ks[-1], samples[-1][sel]
            tabs = [np.concatenate([t[:, sel], np.repeat(t[kp:, sel], k - kp, axis=0)])
                    for t in (fwd[-1], bwd[-1])]
        else:
            s = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            tabs = []
            for _ in range(2):
                t = rng.integers(-20, 40, size=(k + 1, s.size, n)).astype(float)
                t[rng.random(t.shape) < 0.2] = np.inf
                t = np.minimum.accumulate(t, axis=0)
                freeze = int(rng.integers(0, k + 1))
                t[freeze:] = t[freeze]
                tabs.append(t)
        ks.append(k)
        samples.append(s)
        fwd.append(tabs[0])
        bwd.append(tabs[1])
    return LevelOracle("mpp", n, 0, 1.0, ks, samples, fwd, bwd)


def test_query_window_on_random_monotone_tables():
    """The window and the copy skip rest only on monotone tables; on random
    ones, where a single split is often the only optimum, every answer
    still equals the full scan's."""
    rng = np.random.default_rng(4)
    copies = 0
    for _ in range(60):
        o = _random_level_oracle(rng, int(rng.integers(2, 9)))
        copies += sum(o.copies)
        _assert_answers(o, [None] + [_full_scan(o, h) for h in range(1, o.n)])
    assert copies > 0


def test_settled_rows_never_change_a_table():
    """Copying settled rows forward gives the tables that extending every
    row gives, also above a level whose sample missed a shortest walk
    (depth-4 tree gadget, C = 1: level 6 of mpp is not exact)."""
    g = build_tree_gadget(4).graph
    plan = SamplePlan(C=1.0, seed=0)
    copied = build_oracle_mpp(g, plan)
    brute = apah_brute(g, with_exact=False).le
    assert not np.array_equal(copied.fwd[6], brute[: copied.ks[6] + 1, copied.samples[6]])
    settled = []
    real = oracles._settled

    def never(rows, edges):
        settled.append(int(real(rows, edges).sum()))
        return np.zeros(len(rows), dtype=bool)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_settled", never)
        extended = build_oracle_mpp(g, plan)
    assert sum(settled) > 0
    for a, b in zip(copied.fwd + copied.bwd, extended.fwd + extended.bwd):
        assert np.array_equal(a, b)


def _cell_offset(blob, level, array, hop, row, col):
    """Byte offset of one int64 cell of a LevelOracle snapshot (AHDO1)."""
    n = struct.unpack_from("<I", blob, 6)[0]
    pos = 38  # magic(5) + "<BIQdqI"(33)
    for j in range(level + 1):
        budget, size = struct.unpack_from("<II", blob, pos)
        pos += 8 + 8 * size + 4
        for i in range(2):
            pos += 4 + 8 * 3
            if (j, i) == (level, array):
                return pos + 8 * ((hop * size + row) * n + col)
            pos += 8 * (budget + 1) * size * n
    raise AssertionError("no such level")


def test_snapshot_increasing_along_the_hop_axis_is_refused(capsys, tmp_path):
    """A hand-edited snapshot whose table grows along the hop axis is a
    ParseError at load and exit 1 from `oracle query`; a LevelOracle built
    directly from that table is a ValueError."""
    g = gen_random_graph(24, 72, 6, 1, require_no_neg_cycle=True)
    o = build_oracle_mpp(g, SamplePlan(C=4.0, seed=2))
    j = 5
    blob = save_oracle(o)
    at = _cell_offset(blob, j, 1, 0, 3, 7)  # bwd hop 0: d_<=0(7, s_3)
    edited = _patch(blob, at, "<q", -100)
    with pytest.raises(ParseError, match="hop axis"):
        load_oracle(edited)
    snap, queries = tmp_path / "edited.ahdo", tmp_path / "queries.txt"
    snap.write_bytes(edited)
    queries.write_text("7 0 9\n")
    code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("allhops: ") and "hop axis" in err
    bwd = [b.copy() for b in o.bwd]
    bwd[j][0, 3, 7] = -100
    with pytest.raises(ValueError, match="hop axis"):
        LevelOracle(o.kind, o.n, o.seed, o.C, o.ks, o.samples, o.fwd, bwd)


# sha256 of save_oracle at the default C = 4 on a sparse graph whose
# tables settle at H* = 9: the levels with K_j = 12, 18, 26 and 39 hold
# only settled rows.  Computed before settled rows were copied forward.
GOLDEN_SETTLED = {
    "mpp": "55bfc12ebdc709ac2459f78644db108c4e19dfb6a555cb7ee036fcc8395bdc5c",
    "bounded": "389a94fb9aa8e53ea3f8d39063b57d8e06cfa72dfd3a0a9506dd6d011cfa0764",
}


def test_settled_levels_golden_sha256():
    g = gen_random_graph(40, 160, 8, 3, require_no_neg_cycle=True)
    brute = apah_brute(g, with_exact=False).le
    for build in (build_oracle_mpp, build_oracle_bounded):
        o = build(g, SamplePlan())
        assert hashlib.sha256(save_oracle(o)).hexdigest() == GOLDEN_SETTLED[o.kind], o.kind
        for k, s, f, b in zip(o.ks, o.samples, o.fwd, o.bwd):
            assert np.array_equal(f, brute[: k + 1, s, :]), (o.kind, k)
            assert np.array_equal(b, brute[: k + 1][:, :, s].transpose(0, 2, 1)), (o.kind, k)
        assert sum(o.copies) >= 3, o.kind


def test_query_work_guard():
    """Additions per query on a fixed n = 64 sparse graph, counted, not
    timed: the full scan took ~4-5k; the windows take under 1k."""
    g = gen_random_graph(64, 256, 8, 4, require_no_neg_cycle=True)
    rng = np.random.default_rng(0)
    triples = np.column_stack([rng.integers(0, 64, 600), rng.integers(0, 64, 600),
                               rng.integers(1, 64, 600)]).tolist()
    for build in (build_oracle_mn, build_oracle_mpp):
        o = build(g, SamplePlan())
        o.counters.reset()
        for u, v, h in triples:
            o.query(u, v, h)
        assert o.counters.adds / len(triples) < 1500, o.kind
        if o.kind == "mpp":
            assert any(o.copies)
