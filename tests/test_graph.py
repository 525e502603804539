import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allhops import (
    GenerationError,
    NegativeCycleError,
    ParseError,
    SamplePlan,
    all_pairs_allhops,
    bellman_ford_allhops,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    detect_negative_cycle,
    gen_no_neg_cycle_graph,
    gen_random_graph,
    graph_from_edges,
    parse_graph,
    render_graph,
    reverse,
    single_pair_allhops,
    single_source_allhops,
    weight_matrix,
)
from allhops import graph as graph_module
from allhops.values import INF

from _brute import brute_has_negative_cycle


@st.composite
def graphs(draw, max_n=8, max_w=10):
    n = draw(st.integers(1, max_n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(-max_w, max_w),
            ),
            max_size=3 * n,
        )
    )
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_f1(f1):
    assert f1.n == 3
    assert f1.edges == ((0, 1, 1), (1, 2, 1), (0, 2, 10))
    assert f1.declared_M is None


def test_parse_f2(f2):
    assert f2.edges == ((0, 1, -2), (1, 0, 3))


def test_parse_single_vertex():
    g = parse_graph("1 0\n")
    assert g.n == 1 and g.edges == ()


def test_parse_header_M_token():
    g = parse_graph("2 1 M\n0 1 -7\n")
    assert g.declared_M == 7


def test_parse_comments_and_errors():
    g = parse_graph("# hi\n2 1\n0 1 3\n")
    assert g.m == 1
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("2 1\n0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("2 1\n0 5 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("2 2\n0 1 1\n1 0 99999999999999999999\n")
    with pytest.raises(ParseError):
        parse_graph("2 2\n0 1 1\n")
    with pytest.raises(ParseError):
        parse_graph("")


def _heavy_path(n, heavy):
    """Path 0 -> 1 -> ... -> n-1: first edge weight 1, the others `heavy`."""
    return [(0, 1, 1)] + [(i, i + 1, heavy) for i in range(1, n - 1)]


def test_path_sums_must_stay_exact():
    # 34 * 2**48 > 2**53: the 34-hop sum 1 + 33 * 2**48 rounds in float64.
    edges = _heavy_path(35, 2**48)
    with pytest.raises(ValueError, match=r"2\*\*53"):
        graph_from_edges(35, edges)
    text = "35 34\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges)
    with pytest.raises(ParseError):
        parse_graph(text)
    # On the boundary, 32 * 2**48 == 2**53, and every sum is exact.
    g = graph_from_edges(33, _heavy_path(33, 2**48))
    assert bellman_ford_allhops(g, 0, 32).le[32][32] == 1 + 31 * 2**48


def test_render_roundtrip(f1):
    assert parse_graph(render_graph(f1)).edges == f1.edges


@settings(max_examples=60)
@given(graphs())
def test_render_roundtrip_random(g):
    back = parse_graph(render_graph(g))
    assert back.n == g.n and back.edges == g.edges


# ---------------------------------------------------------------------------
# reversal and adjacency


def test_reverse_f1(f1):
    assert set(reverse(f1).edges) == {(1, 0, 1), (2, 1, 1), (2, 0, 10)}
    assert sorted(reverse(reverse(f1)).edges) == sorted(f1.edges)


def test_reverse_empty():
    g = graph_from_edges(3, [])
    assert reverse(g).edges == ()


@settings(max_examples=60)
@given(graphs())
def test_reverse_transposes_weight_matrix(g):
    assert np.array_equal(weight_matrix(reverse(g)), weight_matrix(g).T)


@pytest.mark.parametrize("edges", [[(0, 1, 1), (1, 2, 1), (0, 2, 10), (2, 2, 0)], []])
def test_in_edges_built_once_and_read_only(edges):
    g = graph_from_edges(3, edges)
    first = g.in_edges()
    assert all(a is b for a, b in zip(first, g.in_edges()))
    for a, dtype in zip(first, (np.int64, np.float64, np.int64, np.int64)):
        assert a.dtype == dtype and a.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
def test_copied_in_edges_carry_their_own_addresses(clone):
    """A copied or unpickled graph's edge addresses are those of its own
    arrays, also where the original had built them before it was copied."""
    g = graph_from_edges(4, [(0, 1, 2), (1, 2, -1), (3, 2, 5), (2, 0, 1)])
    g.in_edges()
    for edges in (clone(g).in_edges(), clone(g.in_edges())):
        assert edges.c_args == (*(a.ctypes.data for a in edges), 3, 4)
        assert all(np.array_equal(a, b) for a, b in zip(edges, g.in_edges()))


def test_weight_matrix_f1(f1):
    w = weight_matrix(f1)
    assert w.tolist() == [[INF, 1, 10], [INF, INF, 1], [INF, INF, INF]]


def test_weight_matrix_f2(f2):
    assert weight_matrix(f2).tolist() == [[INF, -2], [3, INF]]


def test_weight_matrix_parallel_edges_collapse():
    g = graph_from_edges(2, [(0, 1, 5), (0, 1, 3)])
    assert weight_matrix(g)[0, 1] == 3


# ---------------------------------------------------------------------------
# negative cycles


def test_negative_cycle_examples(f1, f2, f3):
    assert not detect_negative_cycle(f2)  # cycle weight -2 + 3 = 1
    assert detect_negative_cycle(f3)  # cycle weight -2 + 1 = -1
    assert not detect_negative_cycle(f1)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=6, max_w=4))
def test_negative_cycle_matches_enumeration(g):
    assert detect_negative_cycle(g) == brute_has_negative_cycle(g.n, g.edges)


def _count_searches(monkeypatch):
    """The graphs searched for a negative cycle from now on, in order."""
    seen, real = [], graph_module._search_negative_cycle
    monkeypatch.setattr(graph_module, "_search_negative_cycle", lambda g: seen.append(g) or real(g))
    return seen


_SOLVE_AND_BUILD = (
    lambda g, plan: all_pairs_allhops(g, plan),
    lambda g, plan: single_source_allhops(g, 0, 2, plan),
    lambda g, plan: single_pair_allhops(g, 0, g.n - 1, 2, plan),
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_bounded,
)


def test_negative_cycle_verdict_is_computed_once_per_graph(monkeypatch, f3):
    """Every solver and sampled oracle build checks the graph, but the
    search runs once per graph, also after `detect_negative_cycle`; a graph
    with a negative cycle is refused by every call all the same."""
    base = gen_random_graph(20, 60, 4, 1, require_no_neg_cycle=True)
    g = graph_from_edges(base.n, base.edges, base.declared_M)  # not searched yet
    seen = _count_searches(monkeypatch)
    plan = SamplePlan(C=1.0, seed=0)
    for call in _SOLVE_AND_BUILD:
        call(g, plan)
    assert not detect_negative_cycle(g)
    assert len(seen) == 1 and seen[0] is g
    bad = graph_from_edges(f3.n, f3.edges, declared_M=2)
    assert detect_negative_cycle(bad)
    for call in _SOLVE_AND_BUILD:
        with pytest.raises(NegativeCycleError):
            call(bad, plan)
    assert len(seen) == 2 and seen[1] is bad


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
def test_copied_graph_keeps_the_negative_cycle_verdict(monkeypatch, f2, f3, clone):
    """A copy of a checked graph reads the verdict it carries; a copy of an
    unchecked one searches itself.  Either way the verdict is the same."""
    seen = _count_searches(monkeypatch)
    for g, cyclic in ((f2, False), (f3, True)):
        fresh = clone(g)
        assert detect_negative_cycle(fresh) is cyclic and seen[-1] is fresh
        assert detect_negative_cycle(g) is cyclic
        assert detect_negative_cycle(clone(g)) is cyclic
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# generation


def test_gen_no_edges():
    g = gen_random_graph(5, 0, 3, 1)
    assert g.n == 5 and g.m == 0


def test_gen_forced_layout():
    g = gen_random_graph(2, 2, 0, 7)
    assert sorted(g.edges) == [(0, 1, 0), (1, 0, 0)]


def test_gen_no_neg_cycle_dense():
    g = gen_random_graph(40, 160, 5, 42, require_no_neg_cycle=True)
    assert g.m == 160 and not detect_negative_cycle(g)
    assert all(abs(w) <= 5 for _, _, w in g.edges)


def test_gen_deterministic():
    a = gen_random_graph(12, 30, 4, 9, require_no_neg_cycle=True)
    b = gen_random_graph(12, 30, 4, 9, require_no_neg_cycle=True)
    assert a.edges == b.edges


def test_gen_infeasible():
    with pytest.raises(GenerationError):
        gen_random_graph(3, 7, 1, 0)
    # M past the exact-integer envelope: per weight, or (n-1) * M > 2**53.
    for gen in (gen_random_graph, gen_no_neg_cycle_graph):
        for n, M in ((2, 2**48 + 1), (34, 2**48)):
            with pytest.raises(GenerationError):
                gen(n, 1, M, 0)
        assert gen(33, 1, 2**48, 0).m == 1


def test_gen_certified_has_negative_edges():
    g = gen_no_neg_cycle_graph(30, 120, 6, 3)
    assert not detect_negative_cycle(g)
    assert any(w < 0 for _, _, w in g.edges)
