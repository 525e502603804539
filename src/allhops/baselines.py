"""Exact reference algorithms: Bellman-Ford all-hops tables from one
source, all-pairs all-hops by repetition, and the same tables via iterated
min-plus powers.  These are the ground truth every other module is tested
against.

Bellman-Ford runs on the one hop in `minplus` (`relax`, `relax_hops`),
which the oracles and solvers share; the powers route
(`allhops_from_powers`) stays off it, as the independent check of
`apah_brute`.  Every hop budget is at least 1.

Hop-0 rows are stored explicitly (0 on the diagonal, +inf elsewhere) so the
convolution identities hold without special cases.  Bounded-hop values stay
well defined even in graphs with negative cycles; the minimizing walks need
not be simple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, weight_matrix
from .matrices import identity_rows
from .minplus import mp_array, relax, relax_hops
from .values import INF


@dataclass(frozen=True)
class AllHopsRow:
    source: int
    H: int
    le: np.ndarray  # (H+1, n): le[h][v] = d_{<=h}(source, v)
    ex: np.ndarray | None = None  # (H+1, n): ex[h][v] = d_h(source, v)


@dataclass(frozen=True)
class AllHopsTable:
    sources: tuple[int, ...]
    H: int
    le: np.ndarray  # (H+1, |sources|, n), hop-major
    ex: np.ndarray | None = None

    def row(self, source: int) -> AllHopsRow:
        i = self.sources.index(source)
        return AllHopsRow(
            source,
            self.H,
            self.le[:, i, :],
            None if self.ex is None else self.ex[:, i, :],
        )


def bellman_ford_allhops(g: Graph, s: int, L: int) -> AllHopsRow:
    """Dynamic program ex[h][v] = min over edges (u,v,w) of ex[h-1][u] + w;
    le[h] is the running minimum.  O(mL) time; negative cycles permitted."""
    if not (0 <= s < g.n):
        raise ValueError("source out of range")
    table = _bf_multi(g, (s,), L, with_exact=True)
    return table.row(s)


def _bf_multi(g: Graph, sources, L: int, with_exact: bool) -> AllHopsTable:
    """Hops 0..L from `sources` by `minplus.relax`.  Prefix rows relax
    from le[h-1] (`relax_hops`); exact-hop rows relax from ex[h-1], and
    le[h] takes the minimum with le[h-1] in the same loop."""
    if L < 1:
        raise ValueError("hop budget must be >= 1")
    sources = tuple(sources)
    edges = g.in_edges()
    le = np.empty((L + 1, len(sources), g.n))
    le[0] = identity_rows(sources, g.n)
    if not with_exact:
        relax_hops(le, 0, edges)
        return AllHopsTable(sources, L, le)
    ex = np.full(le.shape, INF)
    ex[0] = le[0]
    for h in range(1, L + 1):
        np.minimum(le[h - 1], relax(ex[h - 1], edges, ex[h]), out=le[h])
    return AllHopsTable(sources, L, le, ex)


def apah_brute(g: Graph, H: int | None = None, with_exact: bool = True) -> AllHopsTable:
    """Bellman-Ford from every vertex with budget H (default n-1)."""
    if H is None:
        H = max(1, g.n - 1)
    return _bf_multi(g, range(g.n), H, with_exact)


def allhops_from_powers(g: Graph, H: int | None = None) -> AllHopsTable:
    """Exact-hop tables W, W^2, ..., W^H by iterated min-plus product;
    must agree with apah_brute entry-for-entry."""
    if H is None:
        H = max(1, g.n - 1)
    if H < 1:
        raise ValueError("hop budget must be >= 1")
    n = g.n
    w = weight_matrix(g)
    ex = np.full((H + 1, n, n), INF)
    ex[0] = identity_rows(range(n), n)
    le = ex.copy()
    for h in range(1, H + 1):
        ex[h] = w if h == 1 else mp_array(ex[h - 1], w)
        le[h] = np.minimum(le[h - 1], ex[h])
    return AllHopsTable(tuple(range(n)), H, le, ex)
