"""Seeded input generators for the benchmark.

The generators live here, not in the library, so that a change to
`allhops.graph` or `allhops.reductions` cannot change what the benchmark
feeds the program.  Every generator returns `(n, edges)` with integer
weights; `render` turns that into the edge-list text the program parses.
"""

from __future__ import annotations

import numpy as np


def sparse_graph(rng: np.random.Generator, n: int, m: int, M: int):
    """m distinct ordered pairs (no self-loops) with weights in [-M, M] and
    no negative cycle: w(u,v) = b + phi(v) - phi(u) with b >= 0, so every
    cycle sums to a nonnegative value."""
    half = M // 2
    phi = rng.integers(0, half + 1, size=n)
    codes = rng.choice(n * (n - 1), size=m, replace=False)
    us = codes // (n - 1)
    rest = codes % (n - 1)
    vs = rest + (rest >= us)
    ws = rng.integers(0, M - half + 1, size=m) + phi[vs] - phi[us]
    return n, list(zip(us.tolist(), vs.tolist(), ws.tolist()))


def chain_dag(rng: np.random.Generator, n: int, chords: int, M: int):
    """A Hamiltonian path of weight -1 per edge through a random vertex
    order, plus `chords` distinct forward chords of weight 0..M.

    Every chord is heavier than the path segment it skips, so the shortest
    walk between two vertices is the path itself and d_<=h keeps improving
    until h = n - 1.  The graph is acyclic, hence free of negative cycles.
    """
    order = rng.permutation(n)
    edges = [(int(order[i]), int(order[i + 1]), -1) for i in range(n - 1)]
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < chords:
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if j > i + 1:
            pairs.add((i, j))
    for i, j in sorted(pairs):
        edges.append((int(order[i]), int(order[j]), int(rng.integers(0, M + 1))))
    return n, edges


def tree_gadget(depth: int):
    """Chain-expanded complete binary tree with 2**depth leaves, edges
    directed leaf-to-root.  The edge from a height-(i+1) vertex to a child
    becomes a chain of 2**i edges of weight 1 (left child) or 2 (right
    child), so each leaf reaches the root by a unique path of
    2**depth - 1 hops.  Vertex numbering follows the paper's construction
    (root first, then depth-first, left before right)."""
    edges: list[tuple[int, int, int]] = []
    count = 1  # vertex 0 is the root

    def chain(child: int, parent: int, length: int, w: int) -> None:
        nonlocal count
        prev = child
        for _ in range(length - 1):
            edges.append((prev, count, w))
            prev = count
            count += 1
        edges.append((prev, parent, w))

    def grow(node: int, height: int) -> None:
        nonlocal count
        if height == 0:
            return
        left, right = count, count + 1
        count += 2
        chain(left, node, 1 << (height - 1), 1)
        chain(right, node, 1 << (height - 1), 2)
        grow(left, height - 1)
        grow(right, height - 1)

    grow(0, depth)
    return count, edges


def render(n: int, edges) -> str:
    """Edge-list text with the `M` header token, so the parsed graph
    carries declared_M (the bounded oracle needs it)."""
    lines = [f"{n} {len(edges)} M"] + [f"{u} {v} {w}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def max_abs_weight(edges) -> int:
    return max((abs(w) for _, _, w in edges), default=0)


def stabilization_hop(le: np.ndarray) -> int:
    """H*: the least h with d_<=h equal to d_<=H for the table's horizon H."""
    last = le[-1]
    h = le.shape[0] - 1
    while h > 0 and np.array_equal(le[h - 1], last):
        h -= 1
    return h
