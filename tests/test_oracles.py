import copy
import gc
import hashlib
import io
import pickle
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _snapshots import cell_offset, fixture, same_oracle, stored_tables
from allhops import _native, oracles
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
    dump_oracle,
    gen_random_graph,
    graph_from_edges,
    load_oracle,
    render_graph,
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


NEG_CYCLE = "3 3\n0 1 -2\n1 0 1\n1 2 3\n"  # the cycle 0 -> 1 -> 0 weighs -1


@pytest.mark.parametrize("kind", ["powers", "bf"])
def test_full_table_answers_a_negative_cycle_through_u_equals_v(capsys, tmp_path, kind):
    """A full kind's table over a graph with a negative cycle holds
    d_<=2(0, 0) = -1, and every route answers it from the table, not with
    the 0 of u == v: `query`, `query_many`, a snapshot round trip and
    `oracle build` / `oracle query`."""
    from allhops import parse_graph

    build = build_oracle_powers if kind == "powers" else build_oracle_bf
    o = build(parse_graph(NEG_CYCLE))
    for x in (o, load_oracle(save_oracle(o))):
        assert x.query(0, 0, 2) == -1 and x.query(0, 0, 1) == 0
        assert x.query_many([0, 0, 1], [0, 0, 1], [1, 2, 2]).tolist() == [0, -1, -1]
    graph, snap, queries = tmp_path / "g.el", tmp_path / "g.ahdo", tmp_path / "q.txt"
    graph.write_text(NEG_CYCLE)
    queries.write_text("0 0 2\n")
    assert main(["oracle", "build", "--kind", kind, "--graph", str(graph), "--out", str(snap)]) == 0
    code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
    out, _ = capsys.readouterr()
    assert code == 0 and out.splitlines()[-1] == "0\t0\t2\t-1"


def test_cut_table_that_still_changes_refuses_budgets_past_its_cut(capsys, tmp_path):
    """bf cut at 3 hops on a chain DAG whose distances change at hop 3
    refuses h = 4 through `query`, `query_many` and `oracle query` (exit
    2), built and reloaded."""
    g = _small_chain_dag(12, 0)
    o = build_oracle_bf(g, 3)
    assert o.tf == [3] and o.hmax == 3
    for x in (o, load_oracle(save_oracle(o))):
        assert x.query(0, 1, 3) == apah_brute(g, 3, with_exact=False).le[3, 0, 1]
        for ask in (x.query, x.query_many):
            with pytest.raises(ValueError, match=r"hop budget 4 outside \[1, 3\]"):
                ask(0, 1, 4)
    graph, snap, queries = tmp_path / "g.el", tmp_path / "g.ahdo", tmp_path / "q.txt"
    graph.write_text(render_graph(g))
    queries.write_text("0 1 3\n0 1 4\n")
    assert main(["oracle", "build", "--kind", "bf", "--graph", str(graph), "--out", str(snap),
                 "--max-hop", "3"]) == 0
    code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("allhops: hop budget 4 outside [1, 3]")


@pytest.mark.parametrize("kind", ["powers", "bf"])
def test_full_table_storage_cells_count_its_table_once(kind):
    """The backward table of a full kind is a transposed view of its one
    table, built and loaded, so storage_cells counts that table once."""
    g = gen_random_graph(12, 36, 4, 3, require_no_neg_cycle=True)
    o = _all_builders(g)[kind]
    for x in (o, load_oracle(save_oracle(o))):
        assert np.shares_memory(x.fwd[0], x.bwd[0])
        assert np.array_equal(x.bwd[0], x.le.transpose(0, 2, 1))
        assert x.storage_cells() == x.le.size == 12**3


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
        assert blob[:5] == b"AHDO2"
        again = load_oracle(blob)
        assert save_oracle(again) == blob, name
        for u, v, h in ((0, 5, 3), (2, 2, 1), (4, 11, 12)):
            assert again.query(u, v, h) == o.query(u, v, h), name


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        load_oracle(b"NOTMAGIC" + b"\0" * 64)


# sha256 of save_oracle on one sampled graph (C=1 leaves levels 3.. of mpp
# and bounded proper subsets; bounded's crossover kstar=6 runs both table
# paths).  Pins the bytes, not just a self round trip: GOLDEN_SNAPSHOTS
# those of the last AHDO1 writer, kept as the fixtures
# tests/data/golden-<kind>.ahdo1.gz, and GOLDEN_AHDO2 the writer's.
GOLDEN_SNAPSHOTS = {
    "powers": "b418d55e75d25fc5d59461a841fc2c47c217d2b4a66a4dfcb27d429aacbedd3a",
    "bf": "c8ef5ee34a36565d2c33a12d2b38b08c59bb5b71b9867147a96d21cf592b62b1",
    "mn": "60a2f2a3b5944ed0335164477f5eedd67cb8b776917cd1725b8067063c6a06a0",
    "mpp": "760bc9e64eed3b712d81a7a7ae1cce4b690d04491538be48776ae06ad9ac5d8a",
    "bounded": "538a65ba64d2dab192fe2440a3f42e3f2042e176da6ccaab65d09a43e5d92790",
}
GOLDEN_AHDO2 = {
    "powers": "6fce8bb46e53bc314919231165b8ce32fde7b6440cb9a6eb0873e65fcc1d5893",
    "bf": "c7816a8310c7503eda99cd1cf3c8da5fe35156f9fd4eba68098c86444e719517",
    "mn": "d0c0de9deeef97b48bfafe135885f0a91ba761a8f5249b90c874e165e4fee53e",
    "mpp": "d023ffb3dd9cfeff09c2a0093df617600d78a0b63703b3306c190a133da1010d",
    "bounded": "9bf838b3d877073f068b8032707d62bc0f6686b12644960f8a3488fcfd3875e5",
}


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def test_snapshot_golden_sha256():
    """The writer's AHDO2 bytes are pinned; each AHDO1 fixture holds its
    pinned bytes and is written back as the AHDO2 bytes of a fresh build."""
    g = gen_random_graph(24, 72, 4, 2, require_no_neg_cycle=True)
    for name, o in _all_builders(g, SamplePlan(C=1.0, seed=5)).items():
        blob = save_oracle(o)
        assert _sha256(blob) == GOLDEN_AHDO2[name], name
        old = fixture(f"golden-{name}")
        assert _sha256(old) == GOLDEN_SNAPSHOTS[name], name
        assert save_oracle(load_oracle(old)) == blob, name


def test_dump_oracle_streams_what_save_oracle_returns(tmp_path):
    """One writer: `dump_oracle` into a BytesIO and into a file gives the
    bytes of `save_oracle`, also from a table that is not C-ordered."""
    g = gen_random_graph(24, 72, 4, 2, require_no_neg_cycle=True)
    for name, o in _all_builders(g, SamplePlan(C=1.0, seed=5)).items():
        buf, path = io.BytesIO(), tmp_path / name
        dump_oracle(o, buf)
        with open(path, "wb") as f:
            dump_oracle(o, f)
        assert buf.getvalue() == path.read_bytes() == save_oracle(o), name
    o = build_oracle_bf(g)
    fortran = oracles._full_table("bf", np.asfortranarray(o.le))
    assert save_oracle(fortran) == save_oracle(o)


def test_level_oracle_seed_fits_the_snapshot_header():
    """A seed outside [0, 2^64) is refused where the oracle is made, so no
    snapshot write fails on it; the largest one round-trips."""
    o = build_oracle_mpp(gen_random_graph(8, 20, 3, 1, require_no_neg_cycle=True), PLAN)

    def with_seed(seed):
        return LevelOracle(o.kind, o.n, seed, o.C, o.ks, o.samples, o.fwd, o.bwd)

    for seed in (2**64, -1):
        with pytest.raises(ValueError, match=r"seed .* outside \[0, 2\*\*64\)"):
            with_seed(seed)
    assert load_oracle(save_oracle(with_seed(2**64 - 1))).seed == 2**64 - 1


def _small_snapshot():
    g = gen_random_graph(6, 14, 3, 1, require_no_neg_cycle=True)
    return save_oracle(build_oracle_mn(g, PLAN))


# Offsets shared by AHDO1 and AHDO2 (see the layout comment in oracles.py):
# n in the header, and the first sample vertex of level 0, after magic(5)
# kind(1) n(4) seed(8) C(8) kstar(8) level_count(4) k(4) |S|(4).
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
    level = struct.pack("<II", budget, 0)
    ahdo1 = b"AHDO1" + header + level + struct.pack("<I", 2) + 2 * (struct.pack("<I", 3) + shape)
    ahdo2 = b"AHDO2" + header + level + struct.pack("<B", 0) + 2 * struct.pack("<I", budget)
    snap, queries = tmp_path / "wide.ahdo", tmp_path / "queries.txt"
    queries.write_text("0 1 1\n")
    for blob in (ahdo1, ahdo2):
        with pytest.raises(ParseError, match="budget"):
            load_oracle(blob)
        snap.write_bytes(blob)
        code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("allhops: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["powers", "bf"])
def test_full_table_budget_zero_is_refused(f1, kind, capsys, tmp_path):
    """No build writes a full table with budget 0, and one would answer no
    query: a ParseError at load and exit 1 from `oracle query`."""
    le = apah_brute(f1, 1, with_exact=False).le[:1]
    blob = save_oracle(oracles._full_table(kind, le))
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
    direct levels: every mn level, the levels of mpp and bounded that start
    from a table over V (mpp's levels 0-4 here) and bounded's levels up to
    kstar.  A level starts from the highest level below whose sample
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
    assert [s.size for s in mpp.samples[:5]] == [g.n] * 4 + [30]
    assert mpp.counters.relaxations == bf_cost(mpp, range(5))
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
    """At C = 1 the top full level (budget 4) still changes at hop 4, so a
    query at h = 15 scans the sampled levels above it."""
    g = gen_random_graph(16, 45, 4, 6, require_no_neg_cycle=True)
    o = build_oracle_mn(g, SamplePlan(C=1.0, seed=PLAN.seed))
    assert o.counters.relaxations > 0
    o.counters.reset()
    o.query(0, 1, 15)
    per_query = o.counters.adds
    assert per_query > 0
    o.query(0, 1, 15)
    assert o.counters.adds == 2 * per_query
    # each buffer once: the levels over V below the top one are its prefixes
    below_top = [j for j, s in enumerate(o.samples) if s.size == o.n][:-1]
    assert below_top
    assert o.storage_cells() == sum(f.size + b.size for j, (f, b) in enumerate(zip(o.fwd, o.bwd))
                                    if j not in below_top)


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
    """o.query(u, v, h) == want[h][u, v] for every u, v and h = 1..hmax,
    and every larger h refused."""
    for h in range(1, o.n):
        for u in range(o.n):
            for v in range(o.n):
                if h > o.hmax:
                    with pytest.raises(ValueError, match=f"hop budget {h} outside"):
                        o.query(u, v, h)
                else:
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


def _windowed_adds(o, u, v, h):
    """The additions of the windowed scan of every level from level 0, with
    no lookup: how every query of a sampled kind was answered before the
    top full level answered h <= K_top with one cell."""
    if u == v:
        return 0
    adds = 0
    for j, k in enumerate(o.ks):
        if j and o.ks[j - 1] > h:
            break
        if not (o.copies[j] or o.samples[j].size == 0):
            hi = min(h, k, o.tb[j])
            adds += (hi - max(0, min(h - o.tf[j], hi)) + 1) * o.samples[j].size
    return adds


@pytest.mark.parametrize("C", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("family", sorted(_WINDOW_GRAPHS))
def test_query_window_equals_full_scan(family, C):
    """The query (the lookup in the top full level, else the windowed scan
    from the highest full level that is not a copy) answers every (u, v, h)
    as the full scan of every level does, built and reloaded, and both
    equal apah_brute; each query makes at most the additions of the
    windowed scan of every level, and where the lookup leaves queries to
    scan, some of those make fewer too: they skip the levels below."""
    g = _WINDOW_GRAPHS[family]()
    brute = apah_brute(g, with_exact=False).le
    for build in (build_oracle_mn, build_oracle_mpp, build_oracle_bounded):
        built = build(g, SamplePlan(C=C, seed=2))
        full = [None] + [_full_scan(built, h) for h in range(1, g.n)]
        for h in range(1, g.n):
            assert np.array_equal(full[h], brute[h]), (built.kind, h)
        for o in (built, load_oracle(save_oracle(built))):
            _assert_answers(o, full)
            fewer = [0, 0]  # by lookup, by scan
            for h in range(1, g.n):
                for u in range(g.n):
                    for v in range(g.n):
                        before = o.counters.adds
                        o.query(u, v, h)
                        adds, most = o.counters.adds - before, _windowed_adds(o, u, v, h)
                        assert adds <= most, (o.kind, u, v, h)
                        fewer[h > o.lookup_to] += adds < most
            assert fewer[0] > 0 and (fewer[1] > 0 or o.lookup_to >= o.hmax), (o.kind, fewer)


def _random_level_oracle(rng, n, full=True):
    """A LevelOracle over random tables that are non-increasing in the hop
    and freeze at a random hop per level, with random (sometimes nested,
    sometimes repeated, sometimes empty) levels and budgets from 0, as a
    snapshot may hold: not the tables of any graph, so splits rarely tie.
    With `full`, levels may hold all of V, each below the top one holding
    its first hops; else none does, so every query scans every level."""
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
            s = np.sort(rng.choice(n, size=int(rng.integers(0, n + full)), replace=False))
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
    over_v = [j for j, s in enumerate(samples) if s.size == n]
    for j in over_v[:-1]:
        fwd[j], bwd[j] = fwd[over_v[-1]][: ks[j] + 1], bwd[over_v[-1]][: ks[j] + 1]
    return LevelOracle("mpp", n, 0, 1.0, ks, samples, fwd, bwd)


def test_query_window_on_random_monotone_tables():
    """The window and the copy skip rest only on monotone tables; on random
    ones, where a single split is often the only optimum, every answer
    still equals the full scan's."""
    rng = np.random.default_rng(4)
    copies = 0
    for _ in range(60):
        o = _random_level_oracle(rng, int(rng.integers(2, 9)), full=False)
        copies += sum(o.copies)
        _assert_answers(o, [None] + [_full_scan(o, h) for h in range(1, o.n)])
    assert copies > 0


@st.composite
def _scan_cases(draw):
    """A LevelOracle, sometimes reloaded from its snapshot: built by a drawn
    kind from a small random graph at C = 1 or 4 (sampled levels, copy
    levels), or random monotone tables (`_random_level_oracle`: copy
    levels, levels over V, empty samples, budgets from 0 and below n - 1,
    so that some h is past every budget and refused)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        g = gen_random_graph(n, min(2 * n, n * (n - 1)), 4, seed, require_no_neg_cycle=True)
        build = draw(st.sampled_from([build_oracle_mn, build_oracle_mpp, build_oracle_bounded]))
        o = build(g, SamplePlan(C=draw(st.sampled_from([1.0, 4.0])), seed=seed))
    else:
        o = _random_level_oracle(rng, n)
    # As a snapshot may hold: budgets up to max(1, n - 1), and no more
    # levels, or hops over them, than a build's ladder.
    ladder = oracles._ladder(o.kind, n)
    fits = len(o.ks) <= len(ladder) and sum(o.ks) + len(o.ks) <= sum(ladder) + len(ladder)
    if draw(st.booleans()) and o.ks[-1] <= max(1, n - 1) and fits:
        o = load_oracle(save_oracle(o))
    return o


@settings(max_examples=120, deadline=None)
@given(o=_scan_cases(), backend=st.sampled_from(["c", "numpy"]),
       as_int=st.sampled_from([int, np.int64, np.int32, np.uint16]))
def test_compiled_scan_equals_the_python_scan(o, backend, as_int):
    """`query` (the compiled scan on the C backend) gives the Python scan's
    answers and additions on every query it answers, u == v among them,
    with Python or numpy integers; `query_many` gives `query`'s, in any
    shape.  Both refuse a budget past `hmax`."""
    n, hmax = o.n, o.hmax
    grid = [a.astype(as_int) for a in np.mgrid[0:n, 0:n, 1 : hmax + 1]]
    queries = list(zip(*(a.ravel().tolist() for a in grid)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_BACKEND", backend)
        o.counters.reset()
        want = [o._scan(u, v, h) for u, v, h in queries]
        want_adds = o.counters.adds
        o.counters.reset()
        got = [o.query(as_int(u), as_int(v), as_int(h)) for u, v, h in queries]
        assert got == want and o.counters.adds == want_adds
        o.counters.reset()
        many = o.query_many(*grid)
        assert many.shape == (n, n, hmax) and many.dtype == np.float64
        assert many.ravel().tolist() == want and o.counters.adds == want_adds
        assert o.query_many([], [], []).shape == (0,)
        if hmax < n - 1:
            for ask in (o.query, o.query_many):
                with pytest.raises(ValueError, match=f"hop budget {hmax + 1} outside"):
                    ask(0, 0, hmax + 1)


def test_query_many_refuses_the_first_bad_query_as_query_does():
    """The first query that `query` refuses raises its error, nothing is
    counted, and the budget past a full table's unstable cut is refused."""
    g = gen_random_graph(12, 36, 4, 3, require_no_neg_cycle=True)
    for o in (build_oracle_mn(g, PLAN), build_oracle_bf(g)):
        o.counters.reset()
        with pytest.raises(ValueError, match="hop budget 12 outside"):
            o.query_many([0, 1, 2, 3], [1, 2, 3, 20], [2, 3, 12, 5])
        with pytest.raises(ValueError, match="vertex out of range"):
            o.query_many([0, -1], [1, 2], [1, 0])
        with pytest.raises(TypeError, match="must be integers"):
            o.query_many([0.5], [1], [1])
        assert o.counters.adds == 0
    cut = build_oracle_bf(_small_chain_dag(12, 0), 3)
    assert cut.hmax == 3
    with pytest.raises(ValueError, match=r"hop budget 4 outside \[1, 3\]"):
        cut.query_many([0, 0], [1, 1], [3, 4])


@pytest.mark.parametrize("build", [build_oracle_mn, build_oracle_mpp, build_oracle_bounded])
def test_full_levels_share_the_top_table(build):
    """Every level over all of V holds hops 0..K_j of the top full level's
    tables, built and loaded: a read-only prefix view of them, with the
    cells and snapshot bytes that separate copies have."""
    g = gen_random_graph(24, 72, 6, 1, require_no_neg_cycle=True)
    o = build(g, SamplePlan(C=4.0, seed=2))
    blob = save_oracle(o)
    copied = LevelOracle(o.kind, o.n, o.seed, o.C, o.ks, o.samples,
                         [t.copy() for t in o.fwd], [t.copy() for t in o.bwd], o.kstar)
    assert save_oracle(copied) == blob
    brute = apah_brute(g, with_exact=False).le
    for x in (o, load_oracle(blob)):
        full = [j for j, s in enumerate(x.samples) if s.size == x.n]
        assert len(full) >= 3, x.kind
        for tables in (x.fwd, x.bwd):
            top = tables[full[-1]]
            assert top.base is not None
            for j in full:
                t = tables[j]
                assert t.base is top.base and t.ctypes.data == top.ctypes.data
                assert t.flags.c_contiguous and not t.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    t[...] = 0
        for j in full:
            hops = brute[: x.ks[j] + 1]
            assert np.array_equal(x.fwd[j], hops), (x.kind, j)
            assert np.array_equal(x.bwd[j], hops.transpose(0, 2, 1)), (x.kind, j)
        shared = sum(x.fwd[j].size + x.bwd[j].size for j in full[:-1])
        assert x.storage_cells() == copied.storage_cells() - shared
        assert save_oracle(x) == blob


def test_copies_and_pickles_scan_their_own_tables():
    """A deep copy or an unpickled oracle answers from its own tables: not
    from the original's, once those are overwritten or gone."""
    g = gen_random_graph(16, 48, 4, 2, require_no_neg_cycle=True)
    o = build_oracle_mn(g, SamplePlan(C=1.0, seed=1))
    queries = [(u, v, h) for u in range(16) for v in range(16) for h in (1, 7, 15)]
    o.query(0, 1, 3)
    want = [o.query(*q) for q in queries]
    copies = [copy.deepcopy(o), pickle.loads(pickle.dumps(o)), copy.copy(o)]
    assert all(c.counters.adds == o.counters.adds for c in copies[:2])
    writable = [t for t in o.fwd + o.bwd if t.flags.writeable]
    assert writable
    for t in writable:
        t[...] = -1000
    assert [o.query(*q) for q in queries] != want
    for c in copies[:2]:
        assert [c.query(*q) for q in queries] == want
    del o, copies[2], t, writable
    gc.collect()
    for c in copies[:2]:
        assert [c.query(*q) for q in queries] == want


def test_loaded_full_level_that_differs_is_refused(capsys, tmp_path):
    """A level over all of V that is not the first hops of the top one (one
    lower cell edited at its last hop) is a ValueError where the oracle is
    made, and a ParseError at load with exit 1 from `oracle query`: in
    AHDO2, where such a level is stored instead of a prefix marker, and in
    AHDO1 (the golden mpp fixture), where every level is stored and the
    cell is edited in place."""
    g = gen_random_graph(24, 72, 6, 1, require_no_neg_cycle=True)
    o = build_oracle_mpp(g, SamplePlan(C=4.0, seed=2))
    k0 = o.ks[0]
    fwd = [t.copy() for t in o.fwd]
    fwd[0][k0, 3, 7] = -100
    with pytest.raises(ValueError, match="level 0 over all of V is not the first hops"):
        LevelOracle(o.kind, o.n, o.seed, o.C, o.ks, o.samples, fwd, o.bwd, o.kstar)
    seed, C, kstar, levels = o._snapshot()
    assert levels[0][2] == oracles._PREFIX
    levels[0] = (k0, o.samples[0], oracles._STORED, [(k0, fwd[0]), (k0, o.bwd[0])])
    ahdo2 = save_oracle(SimpleNamespace(kind=o.kind, n=o.n, _snapshot=lambda: (seed, C, kstar, levels)))
    ahdo1 = fixture("golden-mpp")
    assert load_oracle(ahdo1).ks[0] == k0
    snap, queries = tmp_path / "edited.ahdo", tmp_path / "queries.txt"
    queries.write_text("3 7 1\n")
    for blob in (ahdo2, _patch(ahdo1, cell_offset(ahdo1, 0, 0, k0, 3, 7), "<q", -100)):
        with pytest.raises(ParseError, match="level 0 over all of V is not the first hops"):
            load_oracle(blob)
        snap.write_bytes(blob)
        code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and "first hops of the top one" in err


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


def _assert_rising_table_refused(capsys, tmp_path, kind):
    """A hand-edited snapshot whose table grows along the hop axis is a
    ParseError at load and exit 1 from `oracle query`, in AHDO2 and in AHDO1
    (the golden fixture of the kind); an oracle made directly from that
    table is a ValueError.  The edited cell is d_<=0(7, s_3) in the bwd
    table of the last sampled level stored with a row 3, or d_<=0(3, 7) in
    a full kind's one table."""
    g = gen_random_graph(24, 72, 6, 1, require_no_neg_cycle=True)
    o = _all_builders(g, SamplePlan(C=4.0, seed=2))[kind]
    array = 0 if kind in oracles.FULL_KINDS else 1
    snap, queries = tmp_path / "edited.ahdo", tmp_path / "queries.txt"
    queries.write_text("7 0 9\n")
    for blob in (save_oracle(o), fixture(f"golden-{kind}")):
        j = max(level for level, _, _, shape in stored_tables(blob) if shape[1] > 3)
        edited = _patch(blob, cell_offset(blob, j, array, 0, 3, 7), "<q", -100)
        with pytest.raises(ParseError, match="hop axis"):
            load_oracle(edited)
        snap.write_bytes(edited)
        code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("allhops: ") and "hop axis" in err
    j = max(level for level, _, _, shape in stored_tables(save_oracle(o)) if shape[1] > 3)
    tables = [t.copy() for t in (o.fwd, o.bwd)[array]]
    tables[j][0, 3, 7] = -100
    with pytest.raises(ValueError, match="hop axis"):
        if array == 0:
            oracles._full_table(kind, tables[j])
        else:
            LevelOracle(o.kind, o.n, o.seed, o.C, o.ks, o.samples, o.fwd, tables)


def test_snapshot_increasing_along_the_hop_axis_is_refused(capsys, tmp_path):
    _assert_rising_table_refused(capsys, tmp_path, "mpp")


@pytest.mark.parametrize("kind", ["powers", "bf"])
def test_full_table_increasing_along_the_hop_axis_is_refused(capsys, tmp_path, kind):
    """As a sampled snapshot: the full kinds made no such check before they
    became one-level oracles."""
    _assert_rising_table_refused(capsys, tmp_path, kind)


@pytest.mark.parametrize("backend", ["c", "numpy"])
@pytest.mark.parametrize("kind", ["bf", "mpp"])
@pytest.mark.parametrize("cell", [2**53 + 1, -(2**53) - 1, -(2**63), 2**63 - 2],
                         ids=["past-2^53", "past--2^53", "INT64_MIN", "INT64_MAX-1"])
def test_snapshot_cell_past_2_53_is_refused(capsys, tmp_path, backend, kind, cell):
    """A cell that float64 cannot hold exactly, past +-2^53 and not the +inf
    marker INT64_MAX, is a ParseError at load and exit 1 from `oracle
    query`, on both backends, never a rounded distance, in AHDO2 and in
    AHDO1 (the golden fixture of the kind).  The cell is on the last
    stored hop, which the loader repeats to the budget, of the full table
    or of the last sampled level stored; its whole stored column along the
    hop axis is set, so no other check refuses it.  +-2^53 itself loads, and is
    written back with the same bytes (AHDO2) or as an oracle that
    reloads the same (AHDO1)."""
    g = gen_random_graph(6, 14, 3, 1, require_no_neg_cycle=True)
    o = build_oracle_bf(g) if kind == "bf" else build_oracle_mpp(g, SamplePlan(C=1.0, seed=3))
    snap, queries = tmp_path / "edited.ahdo", tmp_path / "queries.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_BACKEND", backend)
        for blob in (save_oracle(o), fixture(f"golden-{kind}")):
            loaded = load_oracle(blob)
            j, _, _, shape = [t for t in stored_tables(blob) if t[1] == 0][-1]
            row = 2 if kind == "bf" else 0
            k, at = loaded.ks[j], [cell_offset(blob, j, 0, h, row, 3) for h in range(shape[0])]
            assert kind == "bf" or 0 < loaded.samples[j].size < loaded.n

            def edit(value):
                data = blob
                for pos in at:
                    data = _patch(data, pos, "<q", value)
                return data

            queries.write_text(f"2 3 {k}\n")
            with pytest.raises(ParseError, match="oracle snapshot: cell"):
                load_oracle(edit(cell))
            snap.write_bytes(edit(cell))
            code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
            out, err = capsys.readouterr()
            assert code == 1 and out == "" and err.startswith("allhops: ") and err.count("\n") == 1
            for edge in (2**53, -(2**53)):
                again = load_oracle(edit(edge))
                written = save_oracle(again)
                assert same_oracle(load_oracle(written), again)
                assert blob[:5] == b"AHDO1" or written == edit(edge)
                if kind == "bf":
                    assert again.query(2, 3, k) == edge


@pytest.mark.parametrize("backend", ["c", "numpy"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf, 0.5, -2.5, 2.0**53 + 2, -(2.0**53) - 2],
                         ids=["nan", "-inf", "half", "-2.5", "past-2^53", "past--2^53"])
def test_writer_refuses_cells_it_cannot_write_exactly(backend, bad):
    """A cell that is NaN, -inf, a fraction or past +-2^53 is a
    SaturationError on both backends, never a cell that reloads as
    another value.  By then `dump_oracle` has streamed the
    snapshot up to the chunk that holds the refused cell, and no further.
    A table full of -inf is refused too, and +-2^53 round-trips."""
    from allhops.values import SaturationError

    def last_change(t):
        changed = np.flatnonzero((t[1:] != t[:-1]).any(axis=(1, 2)))
        return int(changed[-1]) + 1 if changed.size else 0

    def full_table(le):
        """A writer's stand-in for a bf oracle over `le`, which `LevelOracle`
        would refuse where `bad` makes it rise along the hop axis."""
        level = (len(le) - 1, np.arange(le.shape[1]), oracles._STORED, [(last_change(le), le)])
        return SimpleNamespace(kind="bf", n=le.shape[1], _snapshot=lambda: (0, 1.0, 0, [level]))

    g = gen_random_graph(48, 192, 8, 3, require_no_neg_cycle=True)
    o = build_oracle_bf(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_BACKEND", backend)
        with pytest.raises(SaturationError):
            save_oracle(oracles._full_table("bf", np.full((3, 3, 3), -np.inf)))
        chunk = oracles._CHUNK
        assert o.le.size > 2 * chunk
        assert save_oracle(full_table(o.le)) == save_oracle(o)
        for at in (0, chunk - 1, chunk, o.le.size - 1):
            # `ok` holds a valid cell that differs from its neighbours
            # along the hop axis wherever `bad` does, so both tables are
            # stored to the same last change and `blob` is what would be
            # written with no refusal.
            le, ok = o.le.copy(), o.le.copy()
            le.flat[at], ok.flat[at] = bad, -(2.0**40)
            assert last_change(le) == last_change(ok)
            blob = save_oracle(full_table(ok))
            head = len(blob) - 8 * (last_change(ok) + 1) * o.n * o.n
            assert at < (len(blob) - head) // 8
            f = io.BytesIO()
            with pytest.raises(SaturationError):
                dump_oracle(full_table(le), f)
            assert f.getvalue() == blob[: head + 8 * (at // chunk * chunk)]
        for edge in (2.0**53, -(2.0**53)):
            # the whole hop column of the cell, so the table does not rise
            le = o.le.copy()
            le[(slice(None),) + np.unravel_index(chunk, le.shape)[1:]] = edge
            again = load_oracle(save_oracle(oracles._full_table("bf", le)))
            assert np.array_equal(again.le, le)


# sha256 of save_oracle at the default C = 4 on a sparse graph whose
# tables settle at H* = 9: the levels with K_j = 12, 18, 26 and 39 hold
# only settled rows.  GOLDEN_SETTLED was computed, in AHDO1, before
# settled rows were copied forward; it pins the fixtures
# tests/data/settled-<kind>.ahdo1.gz.  GOLDEN_SETTLED_AHDO2 pins the
# writer's bytes.
GOLDEN_SETTLED = {
    "mpp": "55bfc12ebdc709ac2459f78644db108c4e19dfb6a555cb7ee036fcc8395bdc5c",
    "bounded": "389a94fb9aa8e53ea3f8d39063b57d8e06cfa72dfd3a0a9506dd6d011cfa0764",
}
GOLDEN_SETTLED_AHDO2 = {
    "mpp": "7a42df5de8af587b8f15df075e08a8b91c54aa7558e6b3dd0824ef6744024e35",
    "bounded": "b6e5650c56cd71b460ead2ff0c1084100910b2d1d44b7372194b62343b87b672",
}


def test_settled_levels_golden_sha256():
    g = gen_random_graph(40, 160, 8, 3, require_no_neg_cycle=True)
    brute = apah_brute(g, with_exact=False).le
    for build in (build_oracle_mpp, build_oracle_bounded):
        o = build(g, SamplePlan())
        blob = save_oracle(o)
        assert _sha256(blob) == GOLDEN_SETTLED_AHDO2[o.kind], o.kind
        old = fixture(f"settled-{o.kind}")
        assert _sha256(old) == GOLDEN_SETTLED[o.kind], o.kind
        assert save_oracle(load_oracle(old)) == blob, o.kind
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
