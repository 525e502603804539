"""Preprocess/query all-hops distance oracles.

Five kinds share one query contract (d_{<=h}(u,v) for 1 <= h <= n-1) and
one type, `LevelOracle`: levels j of sampled vertices S_j, each with
forward and backward tables d_{<=h}(S_j, V) and d_{<=h}(V, S_j) for h up
to a hop budget K_j.

* powers / bf: one level over V with budget H, its backward table a
  transposed view of the forward one; built either by iterated min-plus
  powers or by Bellman-Ford from every vertex (`baselines.apah_brute`);
  bit-identical, with hop budgets of at least 1.
* mn / mpp / bounded: levels over samples.  One level build serves all
  three (`_level`), with one start rule: below level 0 sits a root, the
  hop-0 identity over V, and every level starts from the highest table
  below it whose sample contains S_j.  Rows that no edge relaxes
  (`_settled`) are copied forward, and the live rows continue to K_j, by
  Bellman-Ford (`minplus.relax_hops`) on a direct level and by
  `minplus.extend_hops` through S_{j-1} on the others, whose nested
  samples make level j-1 their start.  A level is direct when it starts
  from a table over V (the root, or a level that holds all of V), because
  through V the split of exact tables is Bellman-Ford itself, or when its
  budget is at most a direct budget.  The kinds differ only in their
  schedules:
  - mn: log-many unnested samples, doubling budgets, every level direct;
  - mpp: geometric (3/2) budgets over nested samples, direct on the
    levels that start from V;
  - bounded: the same ladder with its own sample sizes, also direct on
    levels with K_j <= kstar (the crossover).
  The schedules come from `sampling`: level j of mn holds
  `level_size(n, C, 2^j)` vertices, mpp's nested levels are drawn for
  stretches 1.5^j and bounded's for K_j (`nested_samples`), and both
  follow the (3/2) ladder `geometric_ladder`.

Every level over all of V holds exact d_{<=h}(V, V), so each is a
read-only prefix view of one table, the top full level's, at build and at
load, and an oracle whose levels over V differ is refused.  A query with
h at most that level's budget K_top, or any h once its tables stop
changing below K_top, is the one cell d_{<=min(h, K_top)}(u, v) of it.
Any other query scans the splits at the sampled vertices of the levels
from the highest full level that is not a copy upward (`LevelOracle.query`).
Tables never increase along the hop axis; `LevelOracle` refuses one that
does.  On each level the scan reads only the splits up to the last hop at
which its tables change, skipping levels that repeat the one below.
Neither the copied rows, the lookup nor the window changes a stored byte
or an answer.  The scan runs compiled (`_native.level_scan`, its
arguments packed once per oracle) where the library loads, else in Python
(`LevelOracle._scan`, the reference); `query_many` answers arrays of
queries in one C loop.

Oracles are immutable after build; `query` only touches the work counters.
A versioned binary snapshot (magic AHDO2) makes build and query separable
processes; int64 cells within +-2^53, with the maximum value reserved for
+inf.  It stores each table only up to its last change, a copy level and a
full level below the top one as a one-byte marker, and one table for a
full kind; the loader rebuilds the same oracle, and reads the older AHDO1
(every table whole) too; it refuses more levels, or more hops over them,
than a build's ladder.  As with `pickle.dump` and `dumps`, `dump_oracle`
streams one into a binary file and `save_oracle` returns its bytes,
through the one writer.  `LevelOracle` refuses a seed outside [0, 2^64)
and a crossover outside int64, so no write fails half-way on a header
field it cannot pack.
"""

from __future__ import annotations

import ctypes
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .baselines import apah_brute
from .graph import Graph, ParseError, require_no_neg_cycle, reverse, weight_matrix
from .matrices import identity_rows
from .minplus import extend_hops, mp_array, relax, relax_hops
from .sampling import SamplePlan, geometric_ladder, level_size, nested_samples, round_sample
from .values import INF, SaturationError, pack_cells, unpack_cells

MAGIC = b"AHDO2"
AHDO1 = b"AHDO1"  # read, never written
KINDS = ("powers", "bf", "mn", "mpp", "bounded")
FULL_KINDS = ("powers", "bf")


class MemoryBudgetError(MemoryError):
    """Estimated table size exceeds the configured cap."""


@dataclass
class WorkCounters:
    """Work tallies of one oracle: additions made by queries, Bellman-Ford
    relaxations made by the build.  Plain counters: nothing in the package
    queries one oracle from several threads."""

    adds: int = 0
    relaxations: int = 0

    def reset(self) -> None:
        self.adds = 0
        self.relaxations = 0


# ---------------------------------------------------------------------------
# full-table kinds (powers / bf)


def _full_budget(n: int, H: int | None, mem_cap_bytes: int) -> int:
    """The budget H of a full table, max(1, n - 1) by default: at least 1,
    and the (H + 1, n, n) table within the cap."""
    H = max(1, n - 1) if H is None else H
    if H < 1:
        raise ValueError("hop budget must be >= 1")
    if (H + 1) * n * n * 8 > mem_cap_bytes:
        raise MemoryBudgetError(f"full table needs {(H + 1) * n * n * 8} bytes, cap is {mem_cap_bytes}")
    return H


def _full_table(kind: str, le: np.ndarray) -> LevelOracle:
    """The oracle of a full kind over the table d_{<=h} for h = 0..H: one
    level over V with budget H, whose backward table is a transposed view
    of `le`, never a copy."""
    H, n = le.shape[0] - 1, le.shape[1]
    return LevelOracle(kind, n, 0, 1.0, [H], [np.arange(n)], [le], [le.transpose(0, 2, 1)])


def build_oracle_powers(
    g: Graph, H: int | None = None, mem_cap_bytes: int = 4 << 30
) -> LevelOracle:
    """Running minima of the min-plus powers W, W^2, ..., W^H."""
    n, H = g.n, _full_budget(g.n, H, mem_cap_bytes)
    le = np.full((H + 1, n, n), INF)
    le[0] = identity_rows(range(n), n)
    power = None
    w = weight_matrix(g)
    for h in range(1, H + 1):
        power = w if h == 1 else mp_array(power, w)
        le[h] = np.minimum(le[h - 1], power)
    return _full_table("powers", le)


def build_oracle_bf(
    g: Graph, H: int | None = None, mem_cap_bytes: int = 4 << 30
) -> LevelOracle:
    """Bellman-Ford from every vertex; must be bit-identical to powers."""
    return _full_table("bf", apah_brute(g, _full_budget(g.n, H, mem_cap_bytes), with_exact=False).le)


# ---------------------------------------------------------------------------
# the oracle type


@dataclass
class LevelOracle:
    """Levels j with hop budgets ks[j] (non-decreasing) and sorted samples S_j:
    fwd[j][h][i, v] = d_{<=h}(samples[j][i], v) and
    bwd[j][h][i, u] = d_{<=h}(u, samples[j][i]) for h = 0..ks[j]."""

    kind: str
    n: int
    seed: int
    C: float
    ks: list[int]
    samples: list[np.ndarray]
    fwd: list[np.ndarray]
    bwd: list[np.ndarray]
    kstar: int = 0  # bounded's crossover budget; 0 for the other kinds
    counters: WorkCounters = field(default_factory=WorkCounters)
    # Per-level query windows, read off the tables (see __post_init__).
    tf: list[int] = field(init=False, repr=False)
    tb: list[int] = field(init=False, repr=False)
    copies: list[bool] = field(init=False, repr=False)
    # The top full level, the largest h its one cell answers, the largest
    # h answered at all, and the levels a scan does not read.
    top: int | None = field(init=False, repr=False)
    lookup_to: int = field(init=False, repr=False)
    hmax: int = field(init=False, repr=False)
    skip: list[bool] = field(init=False, repr=False)
    # The compiled scan's leading arguments and what they point at.
    _scan_args: tuple = field(init=False, repr=False, compare=False)
    _scan_keep: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """tf[j] / tb[j]: the last hop at which level j's fwd / bwd table
        changes, so every later slice repeats it.  copies[j]: S_j <= S_{j-1}
        and level j is level j-1 with its last slice repeated.  Both rest on
        tables that do not increase along the hop axis, as every build makes
        them; a table that does (a hand-edited snapshot) is a ValueError, as
        is one whose shape is not (K_j + 1, |S_j|, n), a level over all of V
        that is not the first hops of the top one, and a seed and a
        crossover that the snapshot header cannot hold.

        The top full level answers every h <= K_top with one cell; once its
        tables stop changing below K_top (or K_top >= n - 1) it answers
        every h, and only then is a budget past the last level's answered.
        Other queries scan from the highest full level that is not a copy:
        any level below it offers, at each split, a candidate at least the
        one that level offers there, since its budget is no larger and its
        tables hold the weights of real walks."""
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")
        if not -(2**63) <= self.kstar < 2**63:
            raise ValueError(f"crossover kstar {self.kstar} outside the 64-bit integer range")
        tables = self.fwd + self.bwd
        shapes = [(k + 1, s.size, self.n) for k, s in zip(self.ks, self.samples)] * 2
        if len(tables) != len(shapes) or any(t.shape != s for t, s in zip(tables, shapes)):
            raise ValueError("a level's table does not match its budget and sample")
        last = _last_changes(tables)
        self.tf, self.tb = last[: len(self.ks)], last[len(self.ks) :]
        full = [j for j, s in enumerate(self.samples) if s.size == self.n]
        self.top = top = full[-1] if full else None
        for j in full[:-1]:  # a view of the top table's first hops, as at build, or its cells
            if not all(_slices(t[j]) == _slices(t[top]) or np.array_equal(t[j], t[top][: len(t[j])])
                       for t in (self.fwd, self.bwd)):
                raise ValueError(f"level {j} over all of V is not the first hops of the top one")
        self.copies = [j > 0 and self._repeats(j) for j in range(len(self.ks))]
        k = self.ks[top] if full else 0
        stable = full and (k >= self.n - 1 or max(self.tf[top], self.tb[top]) < k)
        self.lookup_to = max(k, self.n - 1) if stable else k
        self.hmax = min(self.n - 1, max(self.ks[-1], self.lookup_to))
        base = max((j for j in full if not self.copies[j]), default=0)
        self.skip = [self.lookup_to >= self.hmax or j < base or c or s.size == 0
                     for j, (c, s) in enumerate(zip(self.copies, self.samples))]
        self._pack_levels()

    @property
    def le(self) -> np.ndarray | None:
        """The top full level's forward table, d_{<=h}(V, V) for h = 0..K_top."""
        return None if self.top is None else self.fwd[self.top]

    def _pack_levels(self) -> None:
        """Take the compiled scan's arguments once per oracle: the int64
        array of `_native.level_scan` (the lookup: the top table's address,
        K_top and `lookup_to`; then per level the table addresses, K_j,
        |S_j|, tf_j, tb_j and skip flags), L, n and the address of the adds
        out-cell.  Only the levels a scan reads (not `skip`) are packed;
        their tables (contiguous float64: the oracle's own where they are),
        the top table, the level array and the cell stay alive in
        `_scan_keep`."""
        top = [] if self.top is None else [np.ascontiguousarray(self.le, dtype=np.float64)]
        tables = [[None if skip else np.ascontiguousarray(t, dtype=np.float64)
                   for t, skip in zip(half, self.skip)] for half in (self.fwd, self.bwd)]
        addrs = [[0 if t is None else t.ctypes.data for t in half] for half in tables]
        head = [top[0].ctypes.data, len(top[0]) - 1] if top else [0, 0]
        columns = (*addrs, self.ks, [s.size for s in self.samples], self.tf, self.tb, self.skip)
        levels = np.array(head + [self.lookup_to] + [x for c in columns for x in c], dtype=np.int64)
        cell = ctypes.c_int64(0)
        self._scan_keep = (levels, top, tables, cell)
        self._scan_args = (levels.ctypes.data, len(self.ks), self.n, ctypes.addressof(cell))

    def __reduce__(self):
        """Copies and pickles are built anew, so that their packed addresses
        point at their own tables, never at this oracle's."""
        return LevelOracle, (self.kind, self.n, self.seed, self.C, self.ks, self.samples,
                             self.fwd, self.bwd, self.kstar, self.counters)

    def _repeats(self, j: int) -> bool:
        """Level j is level j-1 restricted to S_j, last slice repeated."""
        kp = self.ks[j - 1]
        if max(self.tf[j], self.tb[j]) > kp:
            return False
        sel = _positions(self.samples[j - 1], self.samples[j])
        return sel is not None and all(
            np.array_equal(t[j][: kp + 1], t[j - 1][:, sel]) for t in (self.fwd, self.bwd)
        )

    def storage_cells(self) -> int:
        """The cells the tables hold, each buffer counted once: a prefix
        view or a transposed view adds none."""
        return sum(t.size for t in _longest(self.fwd + self.bwd).values())

    def query(self, u: int, v: int, h: int):
        """d_{<=h}(u, v): one cell of the top full level where `lookup_to`
        covers h, else the minimum over levels and splits a of
        d_{<=a}(u, s) + d_{<=h-a}(s, v), 0 where u == v.

        Every candidate is the weight of a walk with at most h hops, so no
        answer undercuts d_{<=h}(u, v); a sampled vertex on a shortest walk
        makes it exact.  Level j serves walks longer than K_{j-1} hops, so
        the scan stops at the first level with K_{j-1} > h; it skips the
        levels below the highest full one that is not a copy (see
        __post_init__).

        A level scans only a in [lo, hi], hi = min(h, K_j, tb_j) and
        lo = max(0, min(h - tf_j, hi)), and copy levels are skipped.  On
        tables that are non-increasing in the hop, every skipped candidate
        is at least one still scanned: past tb_j the bwd term is constant
        and the fwd term only grows; below h - tf_j the fwd term is
        constant and the bwd term only grows; a copy level's candidates are
        the level below's with the fwd hop cut at K_{j-1}.  So the answer
        equals the scan of every split a in [0, min(h, K_j)].

        The lookup runs before the u == v shortcut: a full kind's table
        over a graph with a negative cycle holds d_{<=h}(u, u) < 0.  The
        scan runs compiled (`_native.level_scan`) when the library loads,
        else in Python (`_scan`, its reference); both give the same bits
        and count the same additions.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("query vertex out of range")
        if not (1 <= h <= self.hmax):
            raise ValueError(f"hop budget {h} outside [1, {self.hmax}]")
        if h > self.lookup_to and (lib := _native.library()) is not None:
            best = lib.level_scan(*self._scan_args, u, v, h)
            self._count_scanned()
            return best
        return self._scan(u, v, h)

    def query_many(self, u, v, h) -> np.ndarray:
        """`query` over integer arrays of queries, broadcast together: the
        answers as a float64 array, with the additions of one `query` per
        query counted.  All are checked at once; the first query that
        `query` refuses raises its error, and then nothing is answered."""
        arrays = np.broadcast_arrays(*(np.asarray(x) for x in (u, v, h)))
        if any(a.size and a.dtype.kind not in "biu" for a in arrays):
            raise TypeError("query vertices and hop budgets must be integers")
        u, v, h = (np.ascontiguousarray(a, dtype=np.int64) for a in arrays)
        ok = (0 <= u) & (u < self.n) & (0 <= v) & (v < self.n) & (1 <= h) & (h <= self.hmax)
        if not ok.all():
            self.query(*(int(a.flat[np.argmin(ok)]) for a in (u, v, h)))
        lib = _native.library()
        if lib is None:
            answers = [self._scan(*q) for q in zip(u.flat, v.flat, h.flat)]
            return np.array(answers, dtype=np.float64).reshape(u.shape)
        out = np.empty(u.shape)
        lib.level_scan_many(*self._scan_args, u.ctypes.data, v.ctypes.data, h.ctypes.data,
                            u.size, out.ctypes.data)
        self._count_scanned()
        return out

    def _count_scanned(self) -> None:
        """Move the compiled scan's out-cell into the counters."""
        cell = self._scan_keep[-1]
        self.counters.adds += cell.value
        cell.value = 0

    def _scan(self, u: int, v: int, h: int):
        """`query` in Python, on a query it has checked."""
        if h <= self.lookup_to:
            le = self.le
            return le[min(h, len(le) - 1), u, v]
        h = int(h)  # an unsigned numpy h would wrap in h - tf
        if u == v:
            return 0.0
        best = INF
        for j, k in enumerate(self.ks):
            if j and self.ks[j - 1] > h:
                break
            if self.skip[j]:
                continue
            # fwd hops h-lo..h-hi; past tf (only when lo == hi) read tf
            tf, tb = self.tf[j], self.tb[j]
            hi = min(h, k, tb)
            lo = max(0, min(h - tf, hi))
            to_s = self.bwd[j][lo : hi + 1, :, u]
            from_s = self.fwd[j][min(h - hi, tf) : min(h - lo, tf) + 1, :, v][::-1]
            self.counters.adds += to_s.size
            best = min(best, (to_s + from_s).min())
        return best

    def _snapshot(self):
        """(seed, C, kstar, [(budget, sample, marker, [(t, table)])]) as
        `dump_oracle` writes it: a level over all of V below the top one is
        a prefix marker, any other copy level a copy marker, and every
        other level stored to tf_j / tb_j, or whole past max(1, n - 1) hops,
        where `load_oracle` repeats no hop; a full kind stores one table."""
        levels = []
        for j, (k, s, f, b) in enumerate(zip(self.ks, self.samples, self.fwd, self.bwd)):
            if j != self.top and s.size == self.n:
                levels.append((k, s, _PREFIX, []))
            elif j != self.top and self.copies[j]:
                levels.append((k, s, _COPY, []))
            else:
                hops = [k if k > max(1, self.n - 1) else x for x in (self.tf[j], self.tb[j])]
                count = 1 if self.kind in FULL_KINDS else 2
                levels.append((k, s, _STORED, list(zip(hops, (f, b)))[:count]))
        return self.seed, self.C, self.kstar, levels


def scans_agree(oracle: LevelOracle) -> bool:
    """Whether `query` and `query_many`, compiled when the library loads,
    answer every query of `oracle` as the Python scan `_scan` does, and
    count the same additions."""
    n, counters = oracle.n, oracle.counters
    u, v, h = (a.ravel() for a in np.mgrid[0:n, 0:n, 1 : oracle.hmax + 1])
    queries = list(zip(u.tolist(), v.tolist(), h.tolist()))
    runs = []
    for answer in (lambda: [oracle._scan(*q) for q in queries],
                   lambda: [oracle.query(*q) for q in queries],
                   lambda: oracle.query_many(u, v, h).tolist()):
        before = counters.adds
        runs.append((answer(), counters.adds - before))
    return runs[0] == runs[1] == runs[2]


def _positions(below: np.ndarray, verts: np.ndarray) -> np.ndarray | None:
    """Indices of the sorted `verts` in the sorted `below`; None unless
    every vertex of `verts` is in `below`."""
    sel = np.searchsorted(below, verts)
    if sel.size and (sel[-1] >= below.size or (below[sel] != verts).any()):
        return None
    return sel


def _slices(t: np.ndarray) -> tuple:
    """What identifies t's hop slices in memory: tables with the same key
    hold the same slices, each with its axes in either order, one table's
    hops a prefix of the other's (a level over V and the top one, a full
    kind's backward and forward table)."""
    return t.ctypes.data, t.strides[0], tuple(sorted(zip(t.shape[1:], t.strides[1:])))


def _longest(tables: list[np.ndarray]) -> dict:
    """The table with the most hops of each `_slices` key."""
    return {_slices(t): t for t in sorted(tables, key=len)}


def _last_changes(tables: list[np.ndarray]) -> list[int]:
    """For each table, the last hop whose slice differs from the one before
    it (0 if none), after one pass over each buffer (`_longest`) that
    refuses a table that increases along the hop axis (ValueError)."""
    changes = {}
    for key, t in _longest(tables).items():
        if not (t[1:] <= t[:-1]).all():
            raise ValueError("a level's table increases along the hop axis")
        changes[key] = np.flatnonzero((t[1:] != t[:-1]).any(axis=(1, 2))) + 1
    hops = [changes[_slices(t)] for t in tables]
    return [int(np.max(h[h < len(t)], initial=0)) for h, t in zip(hops, tables)]


def build_oracle_mn(g: Graph, plan: SamplePlan) -> LevelOracle:
    """Doubling budgets 2^(i+1) over shrinking samples, Bellman-Ford tables."""
    require_no_neg_cycle(g)
    n = g.n
    rng = np.random.default_rng(plan.seed)
    ks = _ladder("mn", n)
    samples = [round_sample(rng, n, level_size(n, plan.C, 2**i), plan.pinned)
               for i in range(len(ks))]
    return _build_levels("mn", g, plan, ks, samples, ks[-1])


def _ladder(kind: str, n: int) -> list[int]:
    """The level budgets of every build of a sampled `kind` over n vertices,
    so the most levels and hops `load_oracle` takes: for mn 2^(i+1) for
    i = 0..floor(log2 n), else the (3/2) ladder, each capped at
    max(1, n - 1)."""
    if kind == "mn":
        return [min(2 ** (i + 1), max(1, n - 1)) for i in range(n.bit_length())]
    return geometric_ladder(n)


def _settled(rows: np.ndarray, edges) -> np.ndarray:
    """Rows r = d_{<=K}(s, .) that no edge relaxes: r[v] <= r[x] + w(x, v).

    Since r[s] <= 0, such a row is at most the weight of every walk from s,
    and each of its entries is the weight of a real walk, so it already is
    d_{<=h}(s, .) for every h >= K.  Continuing it could only return it
    again, because every candidate is a real walk too.  This holds even
    where a sampled level below missed a walk; on exact tables it covers
    every row whose slices K-1 and K are equal."""
    return (rows <= relax(rows, edges, np.full_like(rows, INF))).all(axis=1)


def _level(
    n: int, k: int, verts: np.ndarray, built: list[tuple[np.ndarray, np.ndarray]],
    direct: bool, edges, out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """d_{<=h}(S_j, V) for h = 0..k, in `out` if given, and the number of
    Bellman-Ford row-hops it ran.

    `built` holds (table, sample) pairs: the root, the hop-0 identity over
    V, then levels 0..j-1.  The rows start from the highest of them whose
    sample contains S_j, at its hops 0..K.  Rows that `_settled` finds
    stable are copied forward, and the live ones continue to k: by
    Bellman-Ford on a direct level or from a table over V, else by
    `extend_hops`, splitting at every vertex of S_{j-1} (nested samples
    put S_j inside S_{j-1}, so the rows start from level j-1).  Where
    `out` and the start are prefixes of one table (levels over V, see
    `_build_levels`), the start's hops are already in place."""
    if out is None:
        out = np.empty((k + 1, len(verts), n))
    start, start_verts, sel = next(
        (t, s, sel) for t, s in reversed(built) if (sel := _positions(s, verts)) is not None
    )
    direct = direct or len(start_verts) == n
    k0 = start.shape[0] - 1
    if not np.may_share_memory(start, out):
        out[: k0 + 1] = start[:, sel]
    live = ~_settled(out[k0], edges)
    out[k0 + 1 :, ~live] = out[k0, ~live]
    if live.any():
        part = out if live.all() else out[:, live]
        if direct:
            relax_hops(part, k0, edges)
        else:
            extend_hops(part, start, sel[live], np.arange(len(start_verts)), start_verts)
        if part is not out:
            out[k0 + 1 :, live] = part[k0 + 1 :]
    return out, int(live.sum()) * (k - k0) if direct else 0


def _build_levels(
    kind: str, g: Graph, plan: SamplePlan, ks: list[int], samples: list[np.ndarray],
    direct_upto: int,
) -> LevelOracle:
    """The LevelOracle over levels (ks[j], samples[j]), each built by
    `_level` forward and on the reversed graph.  Every level that starts
    from a table over V, level 0 among them, and every level with
    K_j <= direct_upto is direct (Bellman-Ford); they come first, so a
    direct level starts from exact rows.  The counters tally m relaxations
    per row and hop that Bellman-Ford ran.  Only `bounded` records
    direct_upto, as its crossover kstar.

    A level over all of V holds exact d_{<=h}(V, V) for h = 0..K_j, so
    every such level is built as a prefix of one table, the top full
    level's, each continuing the one below in place; they end as
    read-only prefix views of it.  `load_oracle` shares them the same way."""
    n, row_hops = g.n, 0
    root = (identity_rows(range(n), n)[None], np.arange(n))
    full_ks = [k for k, s in zip(ks, samples) if s.size == n]

    def tables(graph: Graph) -> list[np.ndarray]:
        nonlocal row_hops
        built, edges = [root], graph.in_edges()
        top = np.empty((full_ks[-1] + 1, n, n)) if full_ks else None
        for j, k in enumerate(ks):
            out = top[: k + 1] if samples[j].size == n else None
            table, ran = _level(n, k, samples[j], built, k <= direct_upto, edges, out)
            built.append((table, samples[j]))
            row_hops += ran
        if top is not None:
            top.flags.writeable = False
        return [top[: k + 1] if s.size == n else t for k, s, (t, _) in zip(ks, samples, built[1:])]

    kstar = direct_upto if kind == "bounded" else 0
    oracle = LevelOracle(
        kind, g.n, plan.seed, plan.C, ks, samples, tables(g), tables(reverse(g)), kstar
    )
    oracle.counters.relaxations += g.m * row_hops
    return oracle


def build_oracle_mpp(g: Graph, plan: SamplePlan) -> LevelOracle:
    require_no_neg_cycle(g)
    ks = _ladder("mpp", g.n)
    samples = nested_samples(g.n, plan, [1.5**j for j in range(len(ks))])
    return _build_levels("mpp", g, plan, ks, samples, 0)


def default_crossover(n: int, M: int) -> int:
    return math.ceil(n ** (2 / 3) / max(1, M) ** (1 / 3))


def build_oracle_bounded(
    g: Graph, plan: SamplePlan, kstar: int | None = None
) -> LevelOracle:
    if g.declared_M is None:
        raise ValueError("bounded oracle needs declared_M on the graph")
    require_no_neg_cycle(g)
    n = g.n
    ks = _ladder("bounded", n)
    samples = nested_samples(n, plan, ks)
    if kstar is None:
        kstar = default_crossover(n, g.declared_M)
    return _build_levels("bounded", g, plan, ks, samples, kstar)


# ---------------------------------------------------------------------------
# snapshots
#
# AHDO2 layout, little-endian: magic, kind index (B), n (I), seed (Q), C (d),
# kstar (q), level count (I); per level: budget (I), sample size (I), the
# sample (int64 each) and a marker (B).  Marker 0 (stored) is followed by
# the level's tables (one for a full kind, else fwd then bwd), each as its
# stored hop count t (I) and the int64 cells of hops 0..t; every later hop
# repeats hop t.  Marker 1 (copy): level j-1 restricted to S_j, its last
# slice repeated.  Marker 2 (prefix): a level over all of V that holds the
# first hops of the top full level, which is stored.  A full table is one
# level over all of V.  AHDO1 stores every table whole, with no markers:
# per level the sample is followed by an array count (I) and, per array,
# ndim (I), shape (Q each) and the cells.

_STORED, _COPY, _PREFIX = 0, 1, 2

# Cells per write of `dump_oracle`: the int64 buffer they pass through.
_CHUNK = 1 << 15


def _pack_tables(f, tables, buf: np.ndarray) -> None:
    """Each (t, table): t, then the cells of hops 0..t, a chunk at a time
    converted into `buf` (`values.pack_cells`) and written from it."""
    for t, a in tables:
        f.write(struct.pack("<I", t))
        cells = np.ascontiguousarray(a[: t + 1], dtype=np.float64).reshape(-1)
        for i in range(0, cells.size, buf.size):
            part = cells[i : i + buf.size]
            pack_cells(part, buf[: part.size])
            f.write(buf[: part.size])


def dump_oracle(oracle, f) -> None:
    """Write the AHDO2 snapshot of `oracle` to the binary file `f`, its cells
    through one int64 buffer of at most `_CHUNK` cells.  A cell that the
    format cannot hold exactly (NaN, -inf, a fraction or past +-2^53) is a
    SaturationError; by then `f` holds the snapshot up to the start of the
    chunk of the refused cell, and nothing of that chunk."""
    seed, C, kstar, levels = oracle._snapshot()
    f.write(MAGIC)
    header = (KINDS.index(oracle.kind), oracle.n, seed, C, kstar, len(levels))
    f.write(struct.pack("<BIQdqI", *header))
    largest = max((a[: t + 1].size for *_, tables in levels for t, a in tables), default=0)
    buf = np.empty(min(_CHUNK, max(largest, 1)), dtype="<i8")
    for budget, sample, marker, tables in levels:
        f.write(struct.pack("<II", budget, sample.size))
        f.write(sample.astype("<i8"))
        f.write(struct.pack("<B", marker))
        _pack_tables(f, tables, buf)


def save_oracle(oracle) -> bytes:
    """The AHDO2 snapshot of `oracle`, as `dump_oracle` writes it."""
    buf = io.BytesIO()
    dump_oracle(oracle, buf)
    return buf.getvalue()


class _Reader:
    """Cursor over snapshot bytes, read as views, not copies; reading past
    the end is a ParseError."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, size: int) -> memoryview:
        if size > len(self.data) - self.pos:
            raise ParseError("truncated oracle snapshot")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def int64s(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<i8")


def _read_level(r: _Reader, n: int, full: bool, ahdo1: bool):
    """One level, checked against n: a sorted sample of distinct vertices
    (all of V for a full table), its marker and its stored tables, int64
    views of the snapshot's cells of shape (t+1, |S|, n) with t <= budget.
    AHDO1 reads as stored tables with t = budget.  A sampled level's budget
    is at most max(1, n - 1), the most any build writes: an empty level
    holds no cells whatever its budget, yet `LevelOracle` allocates along
    its whole hop axis.  For the same reason only a table stored whole may
    have a budget past max(1, n - 1).  A full table's budget is at least 1,
    as every build's is: with budget 0 it would answer no query."""
    budget, size = r.unpack("<II")
    if not full and budget > max(1, n - 1):
        raise ParseError(f"oracle snapshot: sampled level budget {budget} exceeds n - 1")
    if full and budget < 1:
        raise ParseError("oracle snapshot: full table budget 0")
    sample = r.int64s(size).astype(np.int64)
    if size and (sample[0] < 0 or sample[-1] >= n or (np.diff(sample) <= 0).any()):
        raise ParseError("oracle snapshot: sample is not sorted distinct vertices of [0, n)")
    if full and size != n:
        raise ParseError("oracle snapshot: full table must cover every vertex")
    count = 1 if full else 2
    if ahdo1:
        marker, (arrays,) = _STORED, r.unpack("<I")
        if arrays != count:
            raise ParseError(f"oracle snapshot: {arrays} arrays in a level")
    else:
        (marker,) = r.unpack("<B")
        if marker not in (_STORED, _COPY, _PREFIX):
            raise ParseError(f"oracle snapshot: unknown level marker {marker}")
        if marker != _STORED and full:
            raise ParseError("oracle snapshot: a full table holds a marker")
        if marker == _PREFIX and size != n:
            raise ParseError("oracle snapshot: prefix marker on a level not over all of V")
    tables = []
    for _ in range(count if marker == _STORED else 0):
        if ahdo1:
            (ndim,) = r.unpack("<I")
            shape = r.unpack(f"<{ndim}Q")
            if shape != (budget + 1, size, n):
                raise ParseError(f"oracle snapshot: array shape {shape} does not match its level")
            t = budget
        else:
            (t,) = r.unpack("<I")
            if t > budget:
                raise ParseError(f"oracle snapshot: {t} hops stored past budget {budget}")
            if t < budget and budget > max(1, n - 1):
                raise ParseError(f"oracle snapshot: budget {budget} past n - 1 on a cut table")
        tables.append(r.int64s((t + 1) * size * n).reshape(t + 1, size, n))
    return budget, sample, marker, tables


def _table(k: int, head: np.ndarray) -> np.ndarray:
    """float64 hops 0..k: `head`, hops 0..t as snapshot cells (converted in
    one pass, `values.unpack_cells`) or as a float64 table, then hop t
    repeated.  A cell that float64 cannot hold exactly is a SaturationError."""
    out = np.empty((k + 1,) + head.shape[1:])
    if head.dtype == np.float64:
        out[: len(head)] = head
    else:
        unpack_cells(head, out[: len(head)])
    out[len(head) :] = out[len(head) - 1]
    return out


def _assembled(
    n: int, ks: list[int], samples: list[np.ndarray], markers: list[int], cells: list
) -> list[np.ndarray]:
    """One direction's float64 tables from their levels' markers and stored
    cells.  A copy level is level j-1 restricted to S_j, last slice
    repeated (`LevelOracle._repeats`).  As at build, the levels over all of
    V share the top full level's table, which must be stored: a prefix
    marker, and a stored level whose cells equal its first hops, is a
    read-only prefix view of it (`LevelOracle` refuses any other level
    over V)."""
    full = [j for j, s in enumerate(samples) if s.size == n]
    top = None
    if full and markers[full[-1]] == _STORED:
        top = _table(ks[full[-1]], cells[full[-1]])
        top.flags.writeable = False
    tables = []
    for j, (k, s, marker, c) in enumerate(zip(ks, samples, markers, cells)):
        if marker == _COPY:
            sel = _positions(samples[j - 1], s) if j else None
            if sel is None:
                raise ParseError(f"copy marker on level {j}, whose sample is not in the level below")
            t = _table(k, tables[j - 1][:, sel])
        elif top is not None and (marker == _PREFIX or j == full[-1]):
            t = top[: k + 1]
        elif marker == _PREFIX:
            raise ParseError("prefix marker with no stored full level above it")
        else:
            t = _table(k, c)
            if top is not None and s.size == n and np.array_equal(t, top[: k + 1]):
                t = top[: k + 1]
        tables.append(t)
    return tables


def load_oracle(data: bytes):
    """Parse an AHDO2 or AHDO1 snapshot; any malformed input raises ParseError.

    A sampled oracle may have no more levels, and no more hops over its
    levels (the sum of K_j + 1), than the `_ladder` of its kind at n, which
    every build fills exactly.  Each table the loader makes holds K_j + 1
    hops of rows that the snapshot stores at least once (in its own
    stored table, the top full level's, or, for a copy, a level below),
    so its float64 tables take at most that sum of hops (under 4.2 n)
    times the cells the snapshot stores."""
    magic = bytes(data[: len(MAGIC)])
    if magic not in (MAGIC, AHDO1):
        raise ParseError("not an AHDO2 or AHDO1 oracle snapshot")
    r = _Reader(data)
    r.take(len(MAGIC))
    kind_idx, n, seed, C, kstar, level_count = r.unpack("<BIQdqI")
    if kind_idx >= len(KINDS):
        raise ParseError(f"oracle snapshot: unknown kind {kind_idx}")
    kind = KINDS[kind_idx]
    full = kind in FULL_KINDS
    ladder = [] if full else _ladder(kind, n)
    if n < 1 or level_count < 1 or level_count > (1 if full else len(ladder)):
        raise ParseError(f"oracle snapshot: {level_count} levels over {n} vertices")
    levels = [_read_level(r, n, full, magic == AHDO1) for _ in range(level_count)]
    if r.pos != len(data):
        raise ParseError("oracle snapshot: trailing bytes")
    ks, samples, markers, cells = (list(x) for x in zip(*levels))
    if ks != sorted(ks):
        raise ParseError("oracle snapshot: level budgets decrease")
    hops, most = sum(ks) + len(ks), sum(ladder) + len(ladder)
    if not full and hops > most:
        raise ParseError(f"oracle snapshot: {hops} hops over its levels, past a build's {most}")
    try:
        fwd = _assembled(n, ks, samples, markers, [c[0] if c else None for c in cells])
        if full:
            return _full_table(kind, fwd[0])
        bwd = _assembled(n, ks, samples, markers, [c[1] if c else None for c in cells])
        return LevelOracle(kind, n, seed, C, ks, samples, fwd, bwd, kstar)
    except (ValueError, SaturationError) as e:
        raise ParseError(f"oracle snapshot: {e}") from None
