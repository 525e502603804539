"""Preprocess/query all-hops distance oracles.

Five kinds share one query contract (d_{<=h}(u,v) for 1 <= h <= n-1):

* powers / bf - FullTableOracle: full 3-D tables, O(1) lookup; built either
  by iterated min-plus powers or by Bellman-Ford from every vertex
  (`baselines.apah_brute`); bit-identical, with hop budgets of at least 1.
* mn / mpp / bounded - LevelOracle: levels j of sampled vertices S_j, each
  with forward and backward tables d_{<=h}(S_j, V) and d_{<=h}(V, S_j) for
  h up to a hop budget K_j.  A query splits at the sampled vertices of
  every level with K_{j-1} <= h.  One level build serves all three
  (`_level`), with one start rule: below level 0 sits a root, the hop-0
  identity over V, and every level starts from the highest table below it
  whose sample contains S_j.  Rows that no edge relaxes (`_settled`) are
  copied forward, and the live rows continue to K_j, by Bellman-Ford
  (`minplus.relax_hops`) on a direct level (level 0 and every level with
  K_j up to a direct budget) and by `minplus.extend_hops` through S_{j-1}
  on the others, whose nested samples make level j-1 their start.  The
  kinds differ only in their schedules:
  - mn: log-many unnested samples, doubling budgets, every level direct;
  - mpp: geometric (3/2) budgets over nested samples, only level 0 direct;
  - bounded: the same ladder with its own sample sizes, levels with
    K_j <= kstar (the crossover) direct.
  The schedules come from `sampling`: level j of mn holds
  `level_size(n, C, 2^j)` vertices, mpp's nested levels are drawn for
  stretches 1.5^j and bounded's for K_j (`nested_samples`), and both
  follow the (3/2) ladder `geometric_ladder`.
  Tables never increase along the hop axis; `LevelOracle` refuses one
  that does.  A query scans on each level only the splits up to the last
  hop at which its tables change, skipping levels that repeat the one
  below (`LevelOracle.query`).  Neither the copied rows nor the window
  changes a stored byte or an answer.

Oracles are immutable after build; `query` only touches the work counters.
A versioned binary snapshot (magic AHDO1) makes build and query separable
processes; int64 cells with the maximum value reserved for +inf.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .baselines import apah_brute
from .graph import Graph, ParseError, require_no_neg_cycle, reverse, weight_matrix
from .matrices import identity_rows
from .minplus import extend_hops, mp_array, relax, relax_hops
from .sampling import SamplePlan, geometric_ladder, level_size, nested_samples, round_sample
from .values import INF, from_int64, to_int64

MAGIC = b"AHDO1"
KINDS = ("powers", "bf", "mn", "mpp", "bounded")


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


def _check_query(n: int, u: int, v: int, h: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("query vertex out of range")
    if not (1 <= h <= n - 1):
        raise ValueError(f"hop budget {h} outside [1, {n - 1}]")


# ---------------------------------------------------------------------------
# full-table oracles (powers / bf)


@dataclass
class FullTableOracle:
    """d_{<=h} for h = 0..H.  A budget h > H is answered with d_{<=H} only
    when the table is stable: H >= n-1, or le[H] == le[H-1], after which
    no later hop changes a value (le[h+1] is a function of le[h] alone).
    Otherwise such a budget is out of range."""

    kind: str
    n: int
    H: int
    le: np.ndarray  # (H+1, n, n)
    counters: WorkCounters = field(default_factory=WorkCounters)
    stable: bool = field(init=False)

    def __post_init__(self):
        self.stable = self.H >= self.n - 1 or (
            self.H >= 1 and np.array_equal(self.le[self.H], self.le[self.H - 1])
        )

    def query(self, u: int, v: int, h: int):
        _check_query(self.n, u, v, h)
        if h > self.H and not self.stable:
            raise ValueError(f"hop budget {h} outside [1, {self.H}]")
        return self.le[min(h, self.H), u, v]

    def _snapshot(self):
        """(seed, C, kstar, [(budget, sample, arrays)]) as save_oracle writes it."""
        return 0, 1.0, 0, [(self.H, np.arange(self.n), [self.le])]


def _check_mem(cells: int, mem_cap_bytes: int) -> None:
    if cells * 8 > mem_cap_bytes:
        raise MemoryBudgetError(
            f"full table needs {cells * 8} bytes, cap is {mem_cap_bytes}"
        )


def build_oracle_powers(
    g: Graph, H: int | None = None, mem_cap_bytes: int = 4 << 30
) -> FullTableOracle:
    """Running minima of the min-plus powers W, W^2, ..., W^H."""
    n = g.n
    if H is None:
        H = max(1, n - 1)
    if H < 1:
        raise ValueError("hop budget must be >= 1")
    _check_mem((H + 1) * n * n, mem_cap_bytes)
    le = np.full((H + 1, n, n), INF)
    le[0] = identity_rows(range(n), n)
    power = None
    w = weight_matrix(g)
    for h in range(1, H + 1):
        power = w if h == 1 else mp_array(power, w)
        le[h] = np.minimum(le[h - 1], power)
    return FullTableOracle("powers", n, H, le)


def build_oracle_bf(
    g: Graph, H: int | None = None, mem_cap_bytes: int = 4 << 30
) -> FullTableOracle:
    """Bellman-Ford from every vertex; must be bit-identical to powers."""
    n = g.n
    if H is None:
        H = max(1, n - 1)
    _check_mem((H + 1) * n * n, mem_cap_bytes)
    return FullTableOracle("bf", n, H, apah_brute(g, H, with_exact=False).le)


# ---------------------------------------------------------------------------
# sampled-level oracles (mn / mpp / bounded)


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
    kstar: int = 0  # bounded's crossover budget; 0 for mn and mpp
    counters: WorkCounters = field(default_factory=WorkCounters)
    # Per-level query windows, read off the tables (see __post_init__).
    tf: list[int] = field(init=False, repr=False)
    tb: list[int] = field(init=False, repr=False)
    copies: list[bool] = field(init=False, repr=False)

    def __post_init__(self):
        """tf[j] / tb[j]: the last hop at which level j's fwd / bwd table
        changes, so every later slice repeats it.  copies[j]: S_j <= S_{j-1}
        and level j is level j-1 with its last slice repeated.  Both rest on
        tables that do not increase along the hop axis, as every build makes
        them; a table that does (a hand-edited snapshot) is a ValueError."""
        if not all((t[1:] <= t[:-1]).all() for t in self.fwd + self.bwd):
            raise ValueError("a level's table increases along the hop axis")
        self.tf = [_last_change(f) for f in self.fwd]
        self.tb = [_last_change(b) for b in self.bwd]
        self.copies = [j > 0 and self._repeats(j) for j in range(len(self.ks))]

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
        return sum(a.size for a in self.fwd) + sum(a.size for a in self.bwd)

    def query(self, u: int, v: int, h: int):
        """Minimum over levels and splits a of d_{<=a}(u, s) + d_{<=h-a}(s, v).

        Every candidate is the weight of a walk with at most h hops, so no
        answer undercuts d_{<=h}(u, v); a sampled vertex on a shortest walk
        makes it exact.  Level j serves walks longer than K_{j-1} hops, so
        the scan stops at the first level with K_{j-1} > h.

        A level scans only a in [lo, hi], hi = min(h, K_j, tb_j) and
        lo = max(0, min(h - tf_j, hi)), and copy levels are skipped.  On
        tables that are non-increasing in the hop, every skipped candidate
        is at least one still scanned: past tb_j the bwd term is constant
        and the fwd term only grows; below h - tf_j the fwd term is
        constant and the bwd term only grows; a copy level's candidates are
        the level below's with the fwd hop cut at K_{j-1}.  So the answer
        equals the scan of every split a in [0, min(h, K_j)].
        """
        _check_query(self.n, u, v, h)
        if u == v:
            return 0.0
        best = INF
        for j, k in enumerate(self.ks):
            if j and self.ks[j - 1] > h:
                break
            if self.copies[j] or self.samples[j].size == 0:
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
        levels = zip(self.ks, self.samples, self.fwd, self.bwd)
        return self.seed, self.C, self.kstar, [(k, s, [f, b]) for k, s, f, b in levels]


def _positions(below: np.ndarray, verts: np.ndarray) -> np.ndarray | None:
    """Indices of the sorted `verts` in the sorted `below`; None unless
    every vertex of `verts` is in `below`."""
    sel = np.searchsorted(below, verts)
    if sel.size and (sel[-1] >= below.size or (below[sel] != verts).any()):
        return None
    return sel


def _last_change(t: np.ndarray) -> int:
    """The last hop whose slice differs from the one before it; 0 if none."""
    changed = np.flatnonzero((t[1:] != t[:-1]).any(axis=(1, 2)))
    return int(changed[-1]) + 1 if changed.size else 0


def build_oracle_mn(g: Graph, plan: SamplePlan) -> LevelOracle:
    """Doubling budgets 2^(i+1) over shrinking samples, Bellman-Ford tables."""
    require_no_neg_cycle(g)
    n = g.n
    rng = np.random.default_rng(plan.seed)
    ks, samples = [], []
    top = max(0, n.bit_length() - 1)  # floor(log2 n)
    for i in range(top + 1):
        samples.append(round_sample(rng, n, level_size(n, plan.C, 2**i), plan.pinned))
        ks.append(min(2 ** (i + 1), max(1, n - 1)))
    return _build_levels("mn", g, plan, ks, samples, ks[-1])


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
    direct: bool, edges,
) -> tuple[np.ndarray, int]:
    """d_{<=h}(S_j, V) for h = 0..k, and the number of Bellman-Ford
    row-hops it ran.

    `built` holds (table, sample) pairs: the root, the hop-0 identity over
    V, then levels 0..j-1.  The rows start from the highest of them whose
    sample contains S_j, at its hops 0..K.  Rows that `_settled` finds
    stable are copied forward, and the live ones continue to k: by
    Bellman-Ford on a direct level, else by `extend_hops`, splitting at
    every vertex of S_{j-1} (nested samples put S_j inside S_{j-1}, so the
    rows start from level j-1)."""
    out = np.empty((k + 1, len(verts), n))
    start, start_verts, sel = next(
        (t, s, sel) for t, s in reversed(built) if (sel := _positions(s, verts)) is not None
    )
    k0 = start.shape[0] - 1
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
    `_level` forward and on the reversed graph.  Level 0 and every level
    with K_j <= direct_upto are direct (Bellman-Ford); they come first, so
    a direct level starts from exact rows.  The counters tally m
    relaxations per row and hop that Bellman-Ford ran.  Only `bounded`
    records direct_upto, as its crossover kstar."""
    row_hops = 0
    root = (identity_rows(range(g.n), g.n)[None], np.arange(g.n))

    def tables(graph: Graph) -> list[np.ndarray]:
        nonlocal row_hops
        built, edges = [root], graph.in_edges()
        for j, k in enumerate(ks):
            table, ran = _level(g.n, k, samples[j], built, j == 0 or k <= direct_upto, edges)
            built.append((table, samples[j]))
            row_hops += ran
        return [table for table, _ in built[1:]]

    kstar = direct_upto if kind == "bounded" else 0
    oracle = LevelOracle(
        kind, g.n, plan.seed, plan.C, ks, samples, tables(g), tables(reverse(g)), kstar
    )
    oracle.counters.relaxations += g.m * row_hops
    return oracle


def build_oracle_mpp(g: Graph, plan: SamplePlan) -> LevelOracle:
    require_no_neg_cycle(g)
    ks = geometric_ladder(g.n)
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
    ks = geometric_ladder(n)
    samples = nested_samples(n, plan, ks)
    if kstar is None:
        kstar = default_crossover(n, g.declared_M)
    return _build_levels("bounded", g, plan, ks, samples, kstar)


# ---------------------------------------------------------------------------
# snapshots
#
# AHDO1 layout, little-endian: magic, kind index (B), n (I), seed (Q), C (d),
# kstar (q), level count (I); per level: budget (I), sample size (I), the
# sample (int64 each), then its arrays: count (I), per array ndim (I), shape
# (Q each) and int64 cells.  A full table is one level over all of V.


def _pack_arrays(buf: io.BytesIO, arrays) -> None:
    buf.write(struct.pack("<I", len(arrays)))
    for a in arrays:
        a = np.ascontiguousarray(a)
        buf.write(struct.pack("<I", a.ndim))
        buf.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        buf.write(to_int64(a.astype(np.float64) if a.dtype != np.float64 else a).tobytes())


def save_oracle(oracle) -> bytes:
    seed, C, kstar, levels = oracle._snapshot()
    buf = io.BytesIO()
    buf.write(MAGIC)
    header = (KINDS.index(oracle.kind), oracle.n, seed, C, kstar, len(levels))
    buf.write(struct.pack("<BIQdqI", *header))
    for budget, sample, arrays in levels:
        buf.write(struct.pack("<II", budget, sample.size))
        buf.write(sample.astype("<i8").tobytes())
        _pack_arrays(buf, arrays)
    return buf.getvalue()


class _Reader:
    """Cursor over snapshot bytes; reading past the end is a ParseError."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, size: int) -> bytes:
        if size > len(self.data) - self.pos:
            raise ParseError("truncated oracle snapshot")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def int64s(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<i8")


def _read_level(r: _Reader, n: int, full: bool):
    """One level, checked against n: a sorted sample of distinct vertices
    (all of V for a full table) and arrays of shape (budget+1, |S|, n).  A
    sampled level's budget is at most max(1, n - 1), the most any build
    writes: an empty level holds no cells whatever its budget, yet
    `LevelOracle` allocates along its whole hop axis.  A full table's
    budget is at least 1, as every build's is: with budget 0 it would
    answer no query."""
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
    (count,) = r.unpack("<I")
    if count != (1 if full else 2):
        raise ParseError(f"oracle snapshot: {count} arrays in a level")
    arrays = []
    for _ in range(count):
        (ndim,) = r.unpack("<I")
        shape = r.unpack(f"<{ndim}Q")
        if shape != (budget + 1, size, n):
            raise ParseError(f"oracle snapshot: array shape {shape} does not match its level")
        arrays.append(from_int64(r.int64s(math.prod(shape)).reshape(shape)))
    return budget, sample, arrays


def load_oracle(data: bytes):
    """Parse an AHDO1 snapshot; any malformed input raises ParseError."""
    if data[: len(MAGIC)] != MAGIC:
        raise ParseError("not an AHDO1 oracle snapshot")
    r = _Reader(data)
    r.take(len(MAGIC))
    kind_idx, n, seed, C, kstar, level_count = r.unpack("<BIQdqI")
    if kind_idx >= len(KINDS):
        raise ParseError(f"oracle snapshot: unknown kind {kind_idx}")
    kind = KINDS[kind_idx]
    full = kind in ("powers", "bf")
    if n < 1 or level_count < 1 or (full and level_count != 1):
        raise ParseError(f"oracle snapshot: {level_count} levels over {n} vertices")
    levels = [_read_level(r, n, full) for _ in range(level_count)]
    if r.pos != len(data):
        raise ParseError("oracle snapshot: trailing bytes")
    ks = [budget for budget, _, _ in levels]
    if ks != sorted(ks):
        raise ParseError("oracle snapshot: level budgets decrease")
    if full:
        return FullTableOracle(kind, n, ks[0], levels[0][2][0])
    samples = [sample for _, sample, _ in levels]
    fwd = [arrays[0] for _, _, arrays in levels]
    bwd = [arrays[1] for _, _, arrays in levels]
    try:
        return LevelOracle(kind, n, seed, C, ks, samples, fwd, bwd, kstar)
    except ValueError as e:
        raise ParseError(f"oracle snapshot: {e}") from None
