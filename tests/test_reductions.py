import numpy as np
import pytest

from allhops import (
    NO_PATH,
    apah_brute,
    atmost_to_exact_selfloops,
    bellman_ford_allhops,
    build_tree_gadget,
    build_triangle_gadget,
    decide_triangle,
    decode_convolution,
    decode_mpp,
    exact_to_atmost_shift,
    gen_random_graph,
    graph_from_edges,
    indexed_combination_bruteforce,
    minplus_product_bruteforce,
    parse_graph,
    reduce_convolution_to_hops,
    reduce_mpp_to_exact_hops,
    triangle_bruteforce,
)
from allhops.reductions import render_names


def _is_dag(g):
    indeg = [0] * g.n
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        indeg[v] += 1
        adj[u].append(v)
    stack = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    return seen == g.n


# ---------------------------------------------------------------------------
# chain-expanded tree


def test_tree_depth1():
    t = build_tree_gadget(1)
    row1 = bellman_ford_allhops(t.graph, t.vertex("u1"), 1)
    row2 = bellman_ford_allhops(t.graph, t.vertex("u2"), 1)
    assert row1.le[1][t.vertex("v")] == 1
    assert row2.le[1][t.vertex("v")] == 2


def test_tree_depth2_distances_are_two_plus_i():
    t = build_tree_gadget(2)
    for i in range(1, 5):
        row = bellman_ford_allhops(t.graph, t.vertex(f"u{i}"), 3)
        assert row.le[3][t.vertex("v")] == 2 + i


@pytest.mark.parametrize("depth", range(1, 7))
def test_tree_closed_forms(depth):
    t = build_tree_gadget(depth)
    hops = (1 << depth) - 1
    v = t.vertex("v")
    for i in range(1, (1 << depth) + 1):
        row = bellman_ford_allhops(t.graph, t.vertex(f"u{i}"), hops)
        assert row.ex[hops][v] == i + (1 << depth) - 2
        # the path is unique: no other hop count reaches the root
        assert all(np.isinf(row.ex[h][v]) for h in range(hops))
    assert t.graph.n <= 2 * depth * (1 << depth)


def test_tree_reversed_copy():
    t = build_tree_gadget(2, reversed_edges=True)
    row = bellman_ford_allhops(t.graph, t.vertex("v"), 3)
    assert row.le[3][t.vertex("u3")] == 5


def test_tree_rejects_bad_depth():
    with pytest.raises(ValueError):
        build_tree_gadget(0)


def test_gadget_builders_refuse_empty_inputs():
    """The builders, not their callers, refuse n = 0: an empty mpp or conv
    input is a ValueError, not a failed lookup part-way through the build."""
    empty = np.zeros((0, 0), dtype=np.int64)
    with pytest.raises(ValueError):
        reduce_mpp_to_exact_hops(empty, empty, 2)
    with pytest.raises(ValueError):
        reduce_convolution_to_hops(empty, empty)


# ---------------------------------------------------------------------------
# min-plus product gadget


def test_mpp_gadget_example():
    A = np.array([[1], [2]])
    B = np.array([[2, 1]])
    gadget = reduce_mpp_to_exact_hops(A, B, 2)
    table = apah_brute(gadget.graph, 2 - 1 + 2 * 2)
    assert decode_mpp(gadget, table).tolist() == [[3, 2], [4, 3]]


def test_mpp_gadget_all_ones():
    A = np.ones((4, 2), dtype=int)
    B = np.ones((2, 4), dtype=int)
    gadget = reduce_mpp_to_exact_hops(A, B, 2)
    table = apah_brute(gadget.graph, 4 - 1 + 2 * 2)
    assert (decode_mpp(gadget, table) == 2).all()


def test_mpp_gadget_random_instances():
    rng = np.random.default_rng(12)
    for trial in range(12):
        n = 8
        x = int(rng.choice([2, 4, 8]))
        A = rng.integers(1, x + 1, size=(n, n // x))
        B = rng.integers(1, x + 1, size=(n // x, n))
        gadget = reduce_mpp_to_exact_hops(A, B, x)
        assert _is_dag(gadget.graph)
        table = apah_brute(gadget.graph, n - 1 + 2 * x)
        got = decode_mpp(gadget, table)
        assert np.array_equal(got, minplus_product_bruteforce(A, B)), trial


def test_mpp_gadget_validation():
    with pytest.raises(ValueError):
        reduce_mpp_to_exact_hops(np.ones((4, 2), int), np.ones((2, 4), int), 3)
    with pytest.raises(ValueError):
        reduce_mpp_to_exact_hops(np.full((4, 2), 5), np.ones((2, 4), int), 2)


# ---------------------------------------------------------------------------
# five-layer gadget


def test_five_layer_example():
    A = np.array([[1, 2], [3, 4]])
    B = np.array([[5, 6], [7, 8]])
    gadget = reduce_convolution_to_hops(A, B)
    table = apah_brute(gadget.graph, 2 * 2 + 2)
    got = decode_convolution(gadget, table)
    assert got[0, 0, 1] == 6  # i=1, j=1, l=2
    assert got[0, 0, 2] == 7  # i=1, j=1, l=3
    assert np.array_equal(got, indexed_combination_bruteforce(A, B))


def test_five_layer_zero_B_picks_row_minimum():
    rng = np.random.default_rng(5)
    n = 4
    A = rng.integers(-5, 9, size=(n, n))
    B = np.zeros((n, n), dtype=int)
    gadget = reduce_convolution_to_hops(A, B)
    table = apah_brute(gadget.graph, 2 * n + 2)
    got = decode_convolution(gadget, table)
    for i in range(n):
        # l = n+1 allows every split x in [1, n]
        assert got[i, 0, n] == A[i].min()


def test_five_layer_random_instances():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 7))
        A = rng.integers(-6, 10, size=(n, n))
        B = rng.integers(-6, 10, size=(n, n))
        gadget = reduce_convolution_to_hops(A, B)
        table = apah_brute(gadget.graph, 2 * n + 2)
        assert np.array_equal(
            decode_convolution(gadget, table), indexed_combination_bruteforce(A, B)
        ), seed


# ---------------------------------------------------------------------------
# weight-shift and self-loop conversions


def test_shift_recovers_exact_hops():
    g = parse_graph("3 3 M\n0 1 1\n1 2 1\n0 2 10\n")
    shifted, recover = exact_to_atmost_shift(g)
    table = apah_brute(shifted, with_exact=False)
    assert recover(2, table.le[2, 0, 2]) == 2


def test_shift_detects_missing_hop_counts():
    g = parse_graph("3 3 M\n0 1 1\n1 2 1\n0 2 10\n")
    shifted, recover = exact_to_atmost_shift(g)
    table = apah_brute(shifted, with_exact=False)
    assert recover(2, table.le[2, 2, 0]) is NO_PATH  # unreachable pair
    assert recover(2, table.le[2, 0, 1]) is NO_PATH  # only a 1-hop path exists


def test_shift_matches_exact_tables_everywhere():
    g = gen_random_graph(12, 40, 6, 2, require_no_neg_cycle=True)
    shifted, recover = exact_to_atmost_shift(g)
    at_most = apah_brute(shifted, with_exact=False)
    exact = apah_brute(g)
    for u in range(g.n):
        for v in range(g.n):
            for h in range(1, g.n):
                got = recover(h, at_most.le[h, u, v])
                want = exact.ex[h, u, v]
                if np.isinf(want):
                    assert got is NO_PATH
                else:
                    assert got == want


def test_shift_requires_declared_M():
    with pytest.raises(ValueError):
        exact_to_atmost_shift(graph_from_edges(2, [(0, 1, 1)]))


def test_selfloops_equate_semantics(f1):
    looped = atmost_to_exact_selfloops(f1)
    exact = apah_brute(looped)
    at_most = apah_brute(f1, with_exact=False)
    assert exact.ex[2, 0, 2] == 2 == at_most.le[2, 0, 2]
    assert exact.ex[2, 0, 1] == 1 == at_most.le[2, 0, 1]
    for h in range(1, f1.n):
        assert np.array_equal(exact.ex[h], at_most.le[h])


# ---------------------------------------------------------------------------
# triangle gadget


def test_triangle_single_positive():
    gadget = build_triangle_gadget(1, [(0, 0)], [(0, 0)], [(0, 0)])
    table = apah_brute(gadget.graph, 5, with_exact=False)
    assert table.le[5, gadget.vertex("s"), gadget.vertex("t")] == 1  # 2 - n
    assert decide_triangle(gadget, table)


def test_triangle_single_negative():
    gadget = build_triangle_gadget(1, [(0, 0)], [(0, 0)], [])
    table = apah_brute(gadget.graph, 5, with_exact=False)
    assert not decide_triangle(gadget, table)


def test_triangle_weights_are_unit():
    gadget = build_triangle_gadget(3, [(0, 1)], [(1, 2)], [(2, 0)])
    assert {w for _, _, w in gadget.graph.edges} <= {-1, 1}


def test_triangle_random_matches_enumeration():
    for seed in range(30):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 11))

        def edges(p):
            return [(a, b) for a in range(n) for b in range(n) if rng.random() < p]

        ij, jk, ki = edges(0.3), edges(0.3), edges(0.3)
        gadget = build_triangle_gadget(n, ij, jk, ki)
        table = apah_brute(gadget.graph, n + 4, with_exact=False)
        assert decide_triangle(gadget, table) == triangle_bruteforce(n, ij, jk, ki)


def test_triangle_validation():
    with pytest.raises(ValueError):
        build_triangle_gadget(2, [(0, 5)], [], [])


def test_render_names():
    gadget = build_tree_gadget(1)
    text = render_names(gadget)
    assert f"v {gadget.vertex('v')}" in text.splitlines()
