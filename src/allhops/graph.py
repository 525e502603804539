"""Directed weighted graphs: edge-list I/O, reversal, adjacency matrix,
edges grouped by head for Bellman-Ford, negative-cycle detection, and a
seeded random generator.

Vertices are 0-indexed.  Edge weights are 64-bit signed integers; parallel
edges are allowed and only the minimum weight per ordered pair can affect
a distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .values import INF, MAX_EXACT, MAX_FINITE


class ParseError(ValueError):
    """Malformed edge-list input; message names the offending line."""


class GenerationError(RuntimeError):
    """Random generation could not satisfy its constraints."""


class NegativeCycleError(ValueError):
    """The input graph violates the no-negative-cycle precondition."""


class InEdges(tuple):
    """(tails, weights, heads, starts), the edges grouped by head as
    `Graph.in_edges()` returns them, with `c_args`: the four arrays'
    addresses, the number of heads and the number of edges, as the
    compiled Bellman-Ford hop takes them, taken once.  The arrays are made
    C-contiguous, int64 but for the float64 weights (copies only where
    they are not), and this tuple keeps them alive.  Weights and tails of
    unequal lengths, or starts and heads, are an IndexError."""

    c_args: tuple

    def __new__(cls, arrays):
        tails, ws, heads, starts = (
            np.ascontiguousarray(a, dtype=t)
            for a, t in zip(arrays, (np.int64, np.float64, np.int64, np.int64))
        )
        if len(ws) != len(tails) or len(starts) != len(heads):
            raise IndexError("edge arrays of unequal lengths")
        self = super().__new__(cls, (tails, ws, heads, starts))
        self.c_args = (*(a.ctypes.data for a in self), len(heads), len(tails))
        return self

    def __reduce__(self):
        """Copies and pickles take the addresses of their own arrays."""
        return InEdges, (tuple(self),)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int, int], ...]
    declared_M: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if abs(w) > MAX_FINITE:
                raise ValueError(f"edge weight {w} exceeds supported range")
        if (self.n - 1) * self.max_abs_weight() > MAX_EXACT:
            raise ValueError("(n-1) * max|w| exceeds 2**53: path sums would not be exact")
        if self.declared_M is not None:
            if self.declared_M < 0:
                raise ValueError("declared_M must be nonnegative")
            for u, v, w in self.edges:
                if abs(w) > self.declared_M:
                    raise ValueError("edge weight exceeds declared_M")

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, weights) as numpy arrays; weights as float64."""
        if not self.edges:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy(), np.zeros(0, dtype=np.float64)
        e = np.asarray(self.edges, dtype=np.int64)
        return e[:, 0], e[:, 1], e[:, 2].astype(np.float64)

    def in_edges(self) -> InEdges:
        """(tails, weights, heads, starts): the edges sorted by head, with
        `heads` the distinct heads and `starts` where each head's edges
        begin, the layout `minplus.relax` reduces over.  Built once per
        graph, with the addresses the compiled loops take; the arrays are
        read-only and C-contiguous, int64 but for the float64 weights."""
        return self._in_edges

    @cached_property
    def _in_edges(self) -> InEdges:
        us, vs, ws = self.edge_arrays()
        order = np.argsort(vs, kind="stable")
        heads, starts = np.unique(vs[order], return_index=True)
        arrays = InEdges((us[order], ws[order], heads, starts.astype(np.int64)))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def _has_neg_cycle(self) -> bool:
        """The verdict of `detect_negative_cycle`, searched for once: the
        edges are an immutable tuple.  Copies and pickles carry it along."""
        return _search_negative_cycle(self)

    def max_abs_weight(self) -> int:
        return max((abs(w) for _, _, w in self.edges), default=0)


def graph_from_edges(n: int, edges, declared_M: int | None = None) -> Graph:
    return Graph(n, tuple((int(u), int(v), int(w)) for u, v, w in edges), declared_M)


def parse_graph(text: bytes | str) -> Graph:
    """Parse the edge-list format: header `n m [M]`, then m lines `u v w`.

    Lines starting with `#` are comments.  If the header carries the `M`
    token, declared_M is set to the maximum |w| read.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as e:
            raise ParseError(f"byte {e.start}: not ASCII text") from None
    header = None
    edges = []
    want_M = False
    m_expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "M"):
                raise ParseError(f"line {lineno}: bad header {line!r}")
            try:
                n, m_expected = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header {line!r}") from None
            if n < 1 or m_expected < 0:
                raise ParseError(f"line {lineno}: bad header values")
            want_M = len(parts) == 3
            header = (n, m_expected)
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected `u v w`, got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field in {line!r}") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex index out of range")
        if abs(w) > MAX_FINITE:
            raise ParseError(f"line {lineno}: weight outside supported range")
        edges.append((u, v, w))
    if header is None:
        raise ParseError("line 1: missing header")
    if len(edges) != m_expected:
        raise ParseError(f"expected {m_expected} edges, found {len(edges)}")
    declared = max((abs(w) for _, _, w in edges), default=0) if want_M else None
    try:
        return Graph(header[0], tuple(edges), declared)
    except ValueError as e:  # the per-line checks above leave only the path-sum bound
        raise ParseError(str(e)) from None


def render_graph(g: Graph) -> str:
    """Canonical renderer: edges in input order, LF endings."""
    head = f"{g.n} {g.m} M" if g.declared_M is not None else f"{g.n} {g.m}"
    lines = [head] + [f"{u} {v} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"


def reverse(g: Graph) -> Graph:
    """Flip the direction of every edge."""
    return Graph(g.n, tuple((v, u, w) for u, v, w in g.edges), g.declared_M)


def weight_matrix(g: Graph) -> np.ndarray:
    """Adjacency matrix: (u,v) = min weight of a u->v edge, else +inf.

    The diagonal stays +inf unless a self-loop exists; hop-0 identity rows
    are handled separately by the distance semantics.
    """
    w = np.full((g.n, g.n), INF)
    for u, v, wt in g.edges:
        if wt < w[u, v]:
            w[u, v] = wt
    return w


def detect_negative_cycle(g: Graph) -> bool:
    """True iff some directed cycle has negative total weight.

    n rounds of Bellman-Ford relaxation from a virtual super-source
    (all-zero initial labels), then one more improvement check.  They run
    on the first call for a graph; the verdict is cached on the graph, so
    every later check of it, by any solver or oracle build, reads it.
    """
    return g._has_neg_cycle


def _search_negative_cycle(g: Graph) -> bool:
    if not g.edges:
        return False
    us, vs, ws = g.edge_arrays()
    dist = np.zeros(g.n)
    for _ in range(g.n):
        cand = dist[us] + ws
        nxt = dist.copy()
        np.minimum.at(nxt, vs, cand)
        if np.array_equal(nxt, dist):
            return False
        dist = nxt
    return bool((dist[us] + ws < dist[vs]).any())


def require_no_neg_cycle(g: Graph) -> None:
    """NegativeCycleError unless `detect_negative_cycle` clears the graph."""
    if detect_negative_cycle(g):
        raise NegativeCycleError("graph has a negative cycle")


def _check_gen_args(n: int, m: int, M: int) -> None:
    """Every drawn |w| is at most M, so M inside the envelope keeps every
    generated graph inside it."""
    if m > n * (n - 1):
        raise GenerationError(f"m={m} infeasible for n={n} without self-loops")
    if M < 0:
        raise GenerationError("M must be nonnegative")
    if M > MAX_FINITE or (n - 1) * M > MAX_EXACT:
        raise GenerationError(f"M={M} leaves the exact-integer envelope for n={n}")


def _random_pairs(rng: np.random.Generator, n: int, m: int):
    codes = rng.choice(n * (n - 1), size=m, replace=False) if m else np.zeros(0, int)
    us = codes // (n - 1)
    rem = codes % (n - 1)
    vs = rem + (rem >= us)
    return us, vs


_GEN_RETRIES = 50  # uniform draws tried before the certified fallback


def gen_random_graph(
    n: int,
    m: int,
    M: int,
    seed: int,
    require_no_neg_cycle: bool = False,
) -> Graph:
    """m distinct ordered pairs without replacement, weights uniform in
    {-M,...,M}.  Deterministic for fixed arguments.

    With require_no_neg_cycle, uniform draws are rejection-sampled first;
    at densities where a negative-cycle-free uniform draw is hopeless
    (already at m ~ 4n the expected number of negative 3-cycles alone makes
    the per-draw success probability e**-10-ish), generation falls back to
    gen_no_neg_cycle_graph, which certifies the property by construction.
    """
    _check_gen_args(n, m, M)
    rng = np.random.default_rng(seed)
    for _ in range(_GEN_RETRIES):
        us, vs = _random_pairs(rng, n, m)
        ws = rng.integers(-M, M + 1, size=m)
        g = Graph(n, tuple(zip(us.tolist(), vs.tolist(), ws.tolist())), M)
        if not require_no_neg_cycle or not detect_negative_cycle(g):
            return g
    return gen_no_neg_cycle_graph(n, m, M, seed)


def gen_no_neg_cycle_graph(n: int, m: int, M: int, seed: int) -> Graph:
    """Random graph with negative edges but certified no negative cycle.

    Weights are b(u,v) + phi(v) - phi(u) with b >= 0, so every cycle sums
    to a nonnegative value; potentials phi spread weights across [-M, M].
    Used where plain rejection sampling would practically never succeed.
    """
    _check_gen_args(n, m, M)
    rng = np.random.default_rng(seed)
    half = M // 2
    phi = rng.integers(0, half + 1, size=n)
    us, vs = _random_pairs(rng, n, m)
    base = rng.integers(0, M - half + 1, size=m)
    ws = base + phi[vs] - phi[us]
    g = Graph(n, tuple(zip(us.tolist(), vs.tolist(), ws.tolist())), M)
    assert not detect_negative_cycle(g)
    return g
