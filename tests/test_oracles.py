import hashlib
import struct

import numpy as np
import pytest

from allhops import (
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


def test_mn_tables_are_bf_rows():
    g = gen_random_graph(30, 80, 5, 12, require_no_neg_cycle=True)
    o = build_oracle_mn(g, PLAN)
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
    """2·m·K_j·|S_j| for each level built by Bellman-Ford from its sample:
    every mn level, level 0 of mpp, and bounded's levels up to kstar."""
    g = gen_random_graph(40, 160, 8, 2, require_no_neg_cycle=True)
    plan = SamplePlan(C=1.0, seed=3)

    def bf_cost(o, levels):
        return sum(2 * g.m * o.ks[j] * o.samples[j].size for j in levels)

    mn = build_oracle_mn(g, plan)
    assert mn.counters.relaxations == bf_cost(mn, range(len(mn.ks)))
    mpp = build_oracle_mpp(g, plan)
    assert mpp.counters.relaxations == 2 * g.m * 1 * g.n
    bounded = build_oracle_bounded(g, plan, kstar=6)
    assert bounded.ks[:5] == [1, 2, 3, 4, 6] and bounded.ks[5] > 6
    assert bounded.counters.relaxations == bf_cost(bounded, range(5))


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
