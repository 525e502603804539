import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allhops import (
    INF,
    allhops_from_powers,
    apah_brute,
    bellman_ford_allhops,
    build_oracle_bf,
    build_oracle_powers,
    detect_negative_cycle,
    gen_random_graph,
    graph_from_edges,
)

from _brute import brute_bellman_ford
from test_graph import graphs


def test_bf_f1(f1):
    row = bellman_ford_allhops(f1, 0, 2)
    assert row.le[1].tolist() == [0, 1, 10]
    assert row.le[2].tolist() == [0, 1, 2]
    assert row.ex[2][2] == 2


def test_bf_f2(f2):
    row = bellman_ford_allhops(f2, 0, 3)
    assert row.ex[2][0] == 1
    assert row.le[3][0] == 0


def test_bf_single_vertex():
    g = graph_from_edges(1, [])
    row = bellman_ford_allhops(g, 0, 1)
    assert row.le[1].tolist() == [0]


def test_bf_argument_checks(f1):
    with pytest.raises(ValueError):
        bellman_ford_allhops(f1, 5, 2)
    with pytest.raises(ValueError):
        bellman_ford_allhops(f1, 0, 0)


def test_bf_matches_brute_dp():
    rng = np.random.default_rng(4)
    for seed in range(12):
        n = int(rng.integers(2, 9))
        g = gen_random_graph(n, int(rng.integers(0, 3 * n)), 5, seed)
        ex, le = brute_bellman_ford(g.n, g.edges, 0, n + 2)
        row = bellman_ford_allhops(g, 0, n + 2)
        assert row.ex.tolist() == ex
        assert row.le.tolist() == le


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_tables_match_brute_dp_on_multigraphs(g, data):
    """Self-loops, parallel edges, isolated vertices and negative cycles:
    prefix tables alone and beside exact-hop tables, from every source."""
    H = data.draw(st.integers(1, g.n + 2))
    prefix, both = apah_brute(g, H, with_exact=False), apah_brute(g, H)
    for s in range(g.n):
        ex, le = brute_bellman_ford(g.n, g.edges, s, H)
        assert prefix.le[:, s].tolist() == le
        assert both.le[:, s].tolist() == le
        assert both.ex[:, s].tolist() == ex


@pytest.mark.parametrize("H", [0, -1])
@pytest.mark.parametrize(
    "build",
    [
        lambda g, H: apah_brute(g, H, with_exact=False),
        apah_brute,
        allhops_from_powers,
        build_oracle_powers,
        build_oracle_bf,
    ],
    ids=["apah_brute-prefix", "apah_brute", "allhops_from_powers", "powers", "bf"],
)
def test_full_tables_refuse_budgets_below_one(f1, build, H):
    """A budget-0 table answers no query, and a negative one cannot be
    allocated."""
    with pytest.raises(ValueError, match="hop budget must be >= 1"):
        build(f1, H)


def test_apah_f1(f1):
    t = apah_brute(f1, 2)
    assert t.le[2, 0, 2] == 2
    assert t.le[2, 1, 0] == INF


def test_apah_f2(f2):
    t = apah_brute(f2, 4)
    assert t.le[1, 0, 1] == -2
    # 1->0 walks within 3 hops weigh 3 (one hop) and 3-2+3=4 (three hops)
    _, le = brute_bellman_ford(f2.n, f2.edges, 1, 3)
    assert le[3][0] == 3
    assert t.le[3, 1, 0] == 3


def test_apah_no_edges():
    t = apah_brute(graph_from_edges(4, []), 3)
    for h in range(4):
        sl = t.le[h]
        assert (np.diag(sl) == 0).all()
        off = sl[~np.eye(4, dtype=bool)]
        assert np.isinf(off).all()


def test_apah_default_budget(f1):
    assert apah_brute(f1).H == 2


def test_powers_h1_is_adjacency(f1):
    from allhops import weight_matrix

    t = allhops_from_powers(f1, 1)
    assert np.array_equal(t.ex[1], weight_matrix(f1))


def test_powers_f2(f2):
    t = allhops_from_powers(f2, 2)
    assert t.ex[2].tolist() == [[1, INF], [INF, 1]]


def test_powers_equals_brute_including_negative_cycles():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        m = int(rng.integers(0, min(3 * n, n * (n - 1)) + 1))
        g = gen_random_graph(n, m, 5, seed)  # negative cycles allowed
        a = apah_brute(g)
        b = allhops_from_powers(g)
        assert np.array_equal(a.le, b.le) and np.array_equal(a.ex, b.ex)


def test_le_is_running_min_of_ex_and_non_increasing():
    g = gen_random_graph(20, 50, 6, 11, require_no_neg_cycle=True)
    t = apah_brute(g)
    assert np.array_equal(t.le, np.minimum.accumulate(t.ex, axis=0))
    assert (t.le[1:] <= t.le[:-1]).all()


def test_stabilization_without_negative_cycles():
    g = gen_random_graph(15, 45, 4, 2, require_no_neg_cycle=True)
    assert not detect_negative_cycle(g)
    t = apah_brute(g, 2 * g.n)
    for h in range(g.n - 1, 2 * g.n + 1):
        assert np.array_equal(t.le[h], t.le[g.n - 1])
    for h in range(t.H + 1):
        assert (np.diag(t.le[h]) == 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_hop_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    m = min(int(rng.integers(0, 2 * n)), n * (n - 1))
    g = gen_random_graph(n, m, 5, seed)
    t = apah_brute(g, 8, with_exact=False)
    for _ in range(20):
        u, v, w = rng.integers(0, n, size=3)
        h1, h2 = rng.integers(1, 5, size=2)
        assert t.le[min(h1 + h2, 8), u, w] <= t.le[h1, u, v] + t.le[h2, v, w]
