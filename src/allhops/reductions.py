"""Constructive reduction gadgets and their decoders.

Each builder returns a GadgetGraph: the graph itself, a name map for the
distinguished vertices, and the constants its decoder needs.  Among them,
params["hops"] is the hop budget the tables handed to the decoder must
reach; the decoder checks it.  Every decoder has a brute-force companion
evaluator used to certify the decoding identity on concrete instances.

Exact-hop tables for the decoders come from the baselines module; the
weight-shift reduction provides the alternative route from at-most-hop
tables to exact-hop values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import AllHopsTable
from .graph import Graph
from .values import INF, MAX_FINITE


@dataclass(frozen=True)
class GadgetGraph:
    graph: Graph
    names: dict[str, int]
    params: dict[str, int]

    def vertex(self, name: str) -> int:
        return self.names[name]


def _check_table(gadget: GadgetGraph, table: AllHopsTable, exact: bool) -> None:
    """The table reaches the gadget's hop budget, with exact-hop rows if
    the decoder reads them."""
    if exact and table.ex is None:
        raise ValueError("decoder needs exact-hop tables")
    if table.H < gadget.params["hops"]:
        raise ValueError(f"table hop budget must reach {gadget.params['hops']}")


def render_names(gadget: GadgetGraph) -> str:
    lines = [f"{name} {idx}" for name, idx in sorted(gadget.names.items())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# chain-expanded binary tree


def build_tree_gadget(depth: int, reversed_edges: bool = False) -> GadgetGraph:
    """Complete binary tree with 2**depth leaves u_1..u_{2^depth} and root v;
    the edge from a height-(i+1) vertex down to its height-i child becomes a
    chain of 2**i unit-weight edges directed leaf-to-root, weight 1 per edge
    on left-child chains and 2 on right-child chains.

    The unique u_i -> v path then has 2**depth - 1 hops and total weight
    i + 2**depth - 2.  `reversed_edges` flips every edge (root-to-leaf copy).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    leaves = 1 << depth
    names: dict[str, int] = {}
    edges: list[tuple[int, int, int]] = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def chain(child: int, parent: int, length: int, w: int) -> None:
        prev = child
        for _ in range(length - 1):
            nxt = fresh()
            edges.append((prev, nxt, w))
            prev = nxt
        edges.append((prev, parent, w))

    root = fresh()
    names["v"] = root

    def grow(node: int, height: int, leaf_lo: int) -> None:
        if height == 0:
            names[f"u{leaf_lo}"] = node
            return
        left, right = fresh(), fresh()
        chain(left, node, 1 << (height - 1), 1)
        chain(right, node, 1 << (height - 1), 2)
        grow(left, height - 1, leaf_lo)
        grow(right, height - 1, leaf_lo + (1 << (height - 1)))

    grow(root, depth, 1)
    if reversed_edges:
        edges = [(v, u, w) for u, v, w in edges]
    g = Graph(counter[0], tuple(edges), 2)
    return GadgetGraph(g, names, {"depth": depth, "leaves": leaves, "hops": leaves - 1})


# ---------------------------------------------------------------------------
# min-plus product from exact-hop distances


def reduce_mpp_to_exact_hops(A: np.ndarray, B: np.ndarray, x: int) -> GadgetGraph:
    """Gadget whose exact-hop distances encode the min-plus product of an
    n x (n/x) matrix A and an (n/x) x n matrix B with entries in [1, x].

    A chain a_1 -> ... -> a_n feeds tree gadgets (one forward and one
    reversed copy per inner index, sinks identified); weight-1 edges select
    leaf A[i,k] on the way in and leaf B[k,j] on the way out.

    Vertex numbers, with T the vertex count of `build_tree_gadget(log2 x)`,
    whose root is its vertex 0: a_i is i - 1 and b_j is n + j - 1.  Inner
    index k (from 0) owns the block from base = 2n + k(2T - 1): forward-tree
    vertex t is base + t, and reversed-tree vertex t >= 1 is base + T + t - 1;
    the reversed root is the forward root, the shared sink.  Edges come in
    this order: the a-chain, then per k the forward tree's edges, the
    reversed tree's (the same edges flipped), the edges a_i -> in_k.u_{A[i,k]}
    and the edges out_k.u_{B[k,j]} -> b_j.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    n = A.shape[0]
    if x < 2 or x & (x - 1):
        raise ValueError("x must be a power of two >= 2")
    if n < 1 or n % x:
        raise ValueError("x must divide n >= 1")
    inner = n // x
    if A.shape != (n, inner) or B.shape != (inner, n):
        raise ValueError("A must be n x (n/x) and B (n/x) x n")
    if (A < 1).any() or (A > x).any() or (B < 1).any() or (B > x).any():
        raise ValueError(f"entries must lie in [1, {x}]")
    tree = build_tree_gadget(x.bit_length() - 1)
    T, local = tree.graph.n, tree.names

    names = {"s": 0}
    for i in range(n):
        names[f"a{i + 1}"] = i
        names[f"b{i + 1}"] = n + i
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    for k in range(inner):
        base = 2 * n + k * (2 * T - 1)
        fwd = [base + t for t in range(T)]
        rev = [base] + [base + T + t - 1 for t in range(1, T)]
        edges += [(fwd[u], fwd[v], w) for u, v, w in tree.graph.edges]
        edges += [(rev[v], rev[u], w) for u, v, w in tree.graph.edges]
        edges += [(i, fwd[local[f"u{A[i, k]}"]], 1) for i in range(n)]
        edges += [(rev[local[f"u{B[k, j]}"]], n + j, 1) for j in range(n)]
        for name, t in local.items():
            names[f"in{k + 1}.{name}"] = fwd[t]
            names[f"out{k + 1}.{name}"] = rev[t]
    g = Graph(2 * n + inner * (2 * T - 1), tuple(edges), None)
    return GadgetGraph(g, names, {"n": n, "x": x, "inner": inner, "hops": n - 1 + 2 * x})


def decode_mpp(gadget: GadgetGraph, table: AllHopsTable) -> np.ndarray:
    """Read C[i,j] = d_{i-1+2x}(a_1, b_j) - (i - 3 + 2x) from an exact-hop
    table whose source set contains a_1."""
    n, x = gadget.params["n"], gadget.params["x"]
    _check_table(gadget, table, exact=True)
    row = table.ex[:, table.sources.index(gadget.vertex("s")), :]
    hops = np.arange(n) + 2 * x  # i - 1 + 2x for i = 1..n
    b = [gadget.vertex(f"b{j}") for j in range(1, n + 1)]
    return row[hops[:, None], b] - (hops - 2)[:, None]


def minplus_product_bruteforce(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Independent oracle for the gadget decoder."""
    n, inner = A.shape
    out = np.full((n, B.shape[1]), INF)
    for i in range(n):
        for j in range(B.shape[1]):
            out[i, j] = min(int(A[i, k]) + int(B[k, j]) for k in range(inner))
    return out


# ---------------------------------------------------------------------------
# indexed sequence combination from hop distances (five-layer gadget)


def reduce_convolution_to_hops(A: np.ndarray, B: np.ndarray) -> GadgetGraph:
    """Five-layer gadget: d_{l+2}(i-node, j-node) equals
    min over x+y=l of A[i,x] + B[j,y] (1-indexed x, y).

    Layers: i-nodes, an x-chain counting down with weight-0 edges, a
    singleton middle vertex, a y-chain counting up, and j-nodes.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    n = A.shape[0]
    if n < 1 or A.shape != (n, n) or B.shape != (n, n):
        raise ValueError("A and B must be nonempty, square and equally sized")
    names: dict[str, int] = {}
    i_ids = list(range(n))
    x_ids = list(range(n, 2 * n))
    s_id = 2 * n
    y_ids = list(range(2 * n + 1, 3 * n + 1))
    j_ids = list(range(3 * n + 1, 4 * n + 1))
    for t in range(n):
        names[f"i{t + 1}"] = i_ids[t]
        names[f"x{t + 1}"] = x_ids[t]
        names[f"y{t + 1}"] = y_ids[t]
        names[f"j{t + 1}"] = j_ids[t]
    names["s"] = s_id
    edges: list[tuple[int, int, int]] = []
    for i in range(n):
        for xx in range(n):
            edges.append((i_ids[i], x_ids[xx], int(A[i, xx])))
    for xx in range(1, n):
        edges.append((x_ids[xx], x_ids[xx - 1], 0))
    edges.append((x_ids[0], s_id, 0))
    edges.append((s_id, y_ids[0], 0))
    for yy in range(1, n):
        edges.append((y_ids[yy - 1], y_ids[yy], 0))
    for j in range(n):
        for yy in range(n):
            edges.append((y_ids[yy], j_ids[j], int(B[j, yy])))
    g = Graph(4 * n + 1, tuple(edges), None)
    return GadgetGraph(g, names, {"n": n, "hops": 2 * n + 2})


def decode_convolution(gadget: GadgetGraph, table: AllHopsTable) -> np.ndarray:
    """out[i-1, j-1, l-1] = d_{l+2}(i-node, j-node) for l in [1, 2n]."""
    n = gadget.params["n"]
    _check_table(gadget, table, exact=True)
    src = [table.sources.index(gadget.vertex(f"i{i}")) for i in range(1, n + 1)]
    tgt = [gadget.vertex(f"j{j}") for j in range(1, n + 1)]
    hops = np.arange(3, 2 * n + 3)  # l + 2 for l = 1..2n
    return table.ex[hops, np.array(src)[:, None, None], np.array(tgt)[:, None]]


def indexed_combination_bruteforce(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """out[i-1, j-1, l-1] = min over x+y=l (1-indexed) of A[i,x] + B[j,y]."""
    n = A.shape[0]
    out = np.full((n, n, 2 * n), INF)
    for i in range(n):
        for j in range(n):
            for ell in range(2, 2 * n + 1):
                best = INF
                for xx in range(max(1, ell - n), min(n, ell - 1) + 1):
                    best = min(best, int(A[i, xx - 1]) + int(B[j, ell - xx - 1]))
                out[i, j, ell - 1] = best
    return out


# ---------------------------------------------------------------------------
# exact-hop <-> at-most-hop conversions


class NoExactHopPath:
    """Sentinel returned when no path with the requested hop count exists."""

    def __repr__(self):
        return "NO_EXACT_HOP_PATH"


NO_PATH = NoExactHopPath()


def exact_to_atmost_shift(g: Graph):
    """Shift every weight by -2*M*n so minimum-weight at-most-h paths are
    forced to use exactly h hops; returns (shifted graph, recover) where
    recover(h, shifted_at_most_value) yields d_h or the no-path sentinel."""
    if g.declared_M is None:
        raise ValueError("shift reduction needs declared_M")
    M = max(1, g.declared_M)
    shift = 2 * M * g.n
    if shift * g.n > MAX_FINITE:
        raise OverflowError("shift would leave the exact-integer range")
    shifted = Graph(g.n, tuple((u, v, w - shift) for u, v, w in g.edges), None)

    def recover(h: int, value):
        if value == INF:
            return NO_PATH
        restored = value + shift * h
        if restored > M * (g.n - 1):
            return NO_PATH
        return restored

    return shifted, recover


def atmost_to_exact_selfloops(g: Graph) -> Graph:
    """Add a weight-0 self-loop at every vertex: exact-hop distances in the
    result equal at-most-hop distances in the input."""
    loops = tuple((v, v, 0) for v in range(g.n))
    return Graph(g.n, g.edges + loops, g.declared_M)


# ---------------------------------------------------------------------------
# triangle existence from one all-hops row


def build_triangle_gadget(n: int, ij_edges, jk_edges, ki_edges) -> GadgetGraph:
    """Tripartite triangle detection: two -1-weight chains through copies of
    the first part, +1 cross edges per input edge; a triangle exists iff
    d_{<=n+4}(s, t) = 2 - n."""
    if n < 1:
        raise ValueError("parts must be nonempty")

    def check(pairs, limit_a, limit_b, tag):
        out = []
        for a, b in pairs:
            if not (0 <= a < limit_a and 0 <= b < limit_b):
                raise ValueError(f"{tag} edge ({a},{b}) out of range")
            out.append((int(a), int(b)))
        return out

    ij = check(ij_edges, n, n, "I-J")
    jk = check(jk_edges, n, n, "J-K")
    ki = check(ki_edges, n, n, "K-I")
    s_id = 0
    i1 = [1 + p for p in range(n)]
    jp = [1 + n + p for p in range(n)]
    kp = [1 + 2 * n + p for p in range(n)]
    i2 = [1 + 3 * n + p for p in range(n)]
    t_id = 1 + 4 * n
    names = {"s": s_id, "t": t_id}
    for p in range(n):
        names[f"i1_{p + 1}"] = i1[p]
        names[f"j_{p + 1}"] = jp[p]
        names[f"k_{p + 1}"] = kp[p]
        names[f"i2_{p + 1}"] = i2[p]
    edges: list[tuple[int, int, int]] = [(s_id, i1[0], -1)]
    for p in range(n - 1):
        edges.append((i1[p], i1[p + 1], -1))
        edges.append((i2[p], i2[p + 1], -1))
    edges.append((i2[n - 1], t_id, -1))
    for a, b in ij:
        edges.append((i1[a], jp[b], 1))
    for a, b in jk:
        edges.append((jp[a], kp[b], 1))
    for a, b in ki:
        edges.append((kp[a], i2[b], 1))
    g = Graph(2 + 4 * n, tuple(edges), 1)
    return GadgetGraph(g, names, {"n": n, "hops": n + 4})


def decide_triangle(gadget: GadgetGraph, table: AllHopsTable) -> bool:
    """d_{<=n+4}(s, t) == 2 - n, read from an at-most-hop table whose
    source set contains s."""
    _check_table(gadget, table, exact=False)
    s, t = gadget.vertex("s"), gadget.vertex("t")
    row = table.le[:, table.sources.index(s), :]
    return row[gadget.params["hops"], t] == 2 - gadget.params["n"]


def triangle_bruteforce(n: int, ij_edges, jk_edges, ki_edges) -> bool:
    ij = {(a, b) for a, b in ij_edges}
    jk = {(a, b) for a, b in jk_edges}
    ki = {(a, b) for a, b in ki_edges}
    return any(
        (i, j) in ij and (j, k) in jk and (k, i) in ki
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
