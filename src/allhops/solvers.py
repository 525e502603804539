"""Fast all-hops solvers built on hitting-set sample hierarchies.

Three entry points, all returning values that must match the Bellman-Ford
baselines exactly (with high probability over the sample plan's seed; at
small n the level-size schedules clamp to all of V and the outputs are
deterministic):

* single_pair_allhops  - shrinking hierarchy, windowed self-convolutions
  of hop-indexed matrix sequences plus doubling prefix extensions, or
  Bellman-Ford on a level whose parent is all of V or where it costs
  less; one Bellman-Ford from s where the last level's parent is all of V.
* single_source_allhops - growing hierarchy; per level either repeated
  pinned-target single-pair solves or prefix tables by Bellman-Ford from
  the previous level's sample, combined with the previous level by one
  min-plus convolution, which a level whose previous sample is all of V
  skips while the rows are exact.
* all_pairs_allhops   - geometric rounds extending every pair's sequence
  by min-plus convolution through the round's sample plus a stagnation
  candidate; the hop extension is `minplus.extend_hops`, the same kernel
  the sampled oracles build their levels with, or Bellman-Ford in a
  round whose sample is all of V or where it costs less.

The schedule lives in `sampling`: every sample holds
`level_size(n, C, q)` vertices for its stretch q, each hierarchy level
carries its hop budget (`SampleHierarchy.budgets`), and the all-pairs
rounds follow `geometric_ladder`.

Each entry point refuses a graph with a negative cycle with
`graph.NegativeCycleError`, which this module also exports.

Every table the solvers build is a prefix table, d_{<=h} for h = 0..H;
exact-hop tables d_h belong to the ground truth (`baselines`) and to the
reduction decoders that read them.

Internally everything runs on raw float64 stacks.  Bellman-Ford
(`minplus.relax_hops`) runs wherever a split set is all of V: the ladder
levels whose parent is V (level 0 counted as such) and the all-pairs
rounds whose sample is V, because through V the split of exact prefix
tables is d_{<=a} (x) d_{<=b} = d_{<=a+b}.  Elsewhere one rule picks the
kernel by counted work: before a ladder level whose parent is a sample,
and before an all-pairs round whose sample is not V, it counts
Bellman-Ford as rows * m * hops and the convolution as
`minplus.conv_cells` summed over the `conv_window` calls the step would
make, and runs the cheaper, Bellman-Ford on a tie.  Bellman-Ford from a
step's own rows is exact, so that choice can only make an answer exact.
The samples are drawn every round either way, so later draws stay the
same.  The solvers read only the rows they return: where the ladder's
last level has V as its parent (`sampling.shrinking_parent_is_v` tells
without drawing the ladder), its rows are Bellman-Ford from their own
vertices, so the pointwise solvers run it from s alone and build no
ladder; and a single-source combining step through V leaves exact rows
as they are.  The convolutions still run in the ladder levels and
all-pairs rounds that the count gives to them, and in every single-source
combining step through a sample (and through V after one); they are the
windowed kernel `minplus.conv_window`, asked for exactly the output hops
the caller reads.  The ladder's `polynomial` strategy goes through
`matseq_convolution` instead, which takes every split; the compiled
kernel skips the splits of prefix tables that another split beats, with
the same minimum.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import AllHopsTable, _bf_multi
from .graph import Graph, NegativeCycleError, require_no_neg_cycle
from .matrices import MatrixSeq
from .minplus import (
    conv_cells, conv_window, extend_hops, matseq_convolution, relax_hops, running_min,
)
from .sampling import (
    SamplePlan,
    checked_pins,
    geometric_ladder,
    growing_hierarchy,
    level_size,
    round_sample,
    shrinking_hierarchy,
    shrinking_parent_is_v,
)
from .values import INF


def _conv(a3, aoff, b3, boff, lo, hi, strategy):
    """Hops lo..hi of the min-plus convolution of two raw hop-indexed stacks
    (offsets aoff, boff).  `naive` calls the windowed kernel directly;
    `polynomial` goes through `matseq_convolution`."""
    if strategy == "naive":
        base = aoff + boff
        return conv_window(a3, b3, lo - base, hi - base)
    (_, R, K), C = a3.shape, b3.shape[2]
    A = MatrixSeq(aoff, range(R), range(K), a3)
    B = MatrixSeq(boff, range(K), range(C), b3)
    return matseq_convolution(A, B, strategy=strategy, window=(lo, hi)).data


# ---------------------------------------------------------------------------
# single pair


def _ladder_steps(H: int, Nr: int):
    """The hops of a ladder level that convolves, from its parent's budget
    H >= 2 and its own Nr: window i holds hops spans[i] =
    (max(2^i - floor(H/2), 0), 2^i + ceil(H/2)), and each prefix
    extension (i, lo, hi) fills hops lo..hi from window i.  No window past
    the last extension's is built."""
    half_lo, half_hi = H // 2, (H + 1) // 2
    exts, known_hi = [], min(H, Nr)
    for i in range(Nr.bit_length()):
        target = min(1 << (i + 1), Nr)
        if target > known_hi:
            exts.append((i, known_hi + 1, target))
            known_hi = target
    last = exts[-1][0] if exts else 0
    return [(max((1 << i) - half_lo, 0), (1 << i) + half_hi) for i in range(last + 1)], exts


def _ladder_cells(H: int, spans, exts, rows: int, mid: int) -> int:
    """`conv_cells` summed over the convolutions of `_ladder_steps`."""
    cells = 0
    for (a, b), (lo, hi) in zip(spans, spans[1:]):
        w = (b - a + 1, mid, mid)
        cells += conv_cells(w, w, lo - 2 * a, hi - 2 * a)
    for i, lo, hi in exts:
        a, b = ((1 << i) + 1, rows, mid), ((H + 1) // 2 + 1, mid, mid)
        cells += conv_cells(a, b, lo - (1 << i), hi - (1 << i))
    return cells


def _sp_level_tables(g: Graph, k: int, plan: SamplePlan, strategy: str = "naive"):
    """Shrinking-hierarchy ladder: returns (levels, tables) where
    tables[r][j] = d_{<=j}(S_r, S_r) for j up to the level's hop budget
    N_r = min(n, ceil(n^(r/k))).

    Level 0 (N_0 = 1), a level whose parent is V, and a level whose
    Bellman-Ford from S_r costs no more than its convolutions
    (|S_r| * m * N_r against `_ladder_cells`) run Bellman-Ford from S_r,
    which is exact.  Each other level doubles windowed sequences of the
    previous level's matrices and extends its own prefix by convolution
    through S_{r-1}, always taking entrywise minima with the best
    previously known values.
    """
    n = g.n
    hier = shrinking_hierarchy(n, k, plan)
    levels = hier.levels
    tables = []
    for r, (cur_verts, Nr) in enumerate(zip(levels, hier.budgets)):
        prev_verts, rows = levels[r - 1], len(cur_verts)
        sampled = r > 0 and len(prev_verts) < n
        if sampled:  # then H >= 2
            H = hier.budgets[r - 1]
            spans, exts = _ladder_steps(H, Nr)
        if not sampled or rows * g.m * Nr <= _ladder_cells(H, spans, exts, rows, len(prev_verts)):
            tables.append(_bf_multi(g, cur_verts, Nr, with_exact=False).le[:, :, cur_verts])
            continue
        prev = tables[r - 1]  # (H+1, nP, nP)

        # Window i holds d_{<=j}(S_{r-1}, S_{r-1}) for j in spans[i]:
        # window 0 is read off the known prefix, each later one is the
        # self-convolution of the one before, lowered to the known prefix
        # wherever that reaches.
        windows = [prev[spans[0][0] : spans[0][1] + 1]]
        for (off, _), (lo, hi) in zip(spans, spans[1:]):
            conv = _conv(windows[-1], off, windows[-1], off, lo, hi, strategy)
            top = min(hi, H)
            if top >= lo:
                np.minimum(conv[: top - lo + 1], prev[lo : top + 1], out=conv[: top - lo + 1])
            windows.append(conv)

        # Prefix extension: rows S_r, cols S_{r-1}, doubling the known range.
        sel = np.searchsorted(prev_verts, cur_verts)
        P = np.full((Nr + 1, rows, len(prev_verts)), INF)
        base = min(H, Nr)
        P[: base + 1] = prev[: base + 1][:, sel, :]
        for i, lo, target in exts:
            sub = windows[i][(1 << i) - spans[i][0] :]  # hops 2^i .. 2^i + ceil(H/2)
            conv = _conv(P[: (1 << i) + 1], 0, sub, 1 << i, lo, target, strategy)
            np.minimum(P[lo : target + 1], conv, out=P[lo : target + 1])
            running_min(P[lo - 1 : target + 1])

        tables.append(P[:, :, sel])

    return levels, tables


def single_pair_allhops(
    g: Graph, s: int, t: int, k: int, plan: SamplePlan, strategy: str = "naive"
) -> np.ndarray:
    """d_{<=h}(s, t) for h = 1..n-1 (empty for n == 1)."""
    n = g.n
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("endpoint out of range")
    if k < 1:
        raise ValueError("level count must be >= 1")
    require_no_neg_cycle(g)
    plan = plan.with_pins({s, t})
    if shrinking_parent_is_v(n, k, plan):  # the ladder ends in Bellman-Ford
        return _bf_multi(g, [s], max(1, n - 1), with_exact=False).le[1:n, 0, t].copy()
    levels, tables = _sp_level_tables(g, k, plan, strategy)
    final_verts, final = levels[-1], tables[-1]
    si = int(np.searchsorted(final_verts, s))
    ti = int(np.searchsorted(final_verts, t))
    seq = final[:, si, ti]  # hops 0..ceil(n^(k/k)) >= n-1
    return seq[1:n].copy()


# ---------------------------------------------------------------------------
# single source


def single_source_allhops(
    g: Graph, s: int, k: int, plan: SamplePlan, split: int | None = None
) -> AllHopsTable:
    """d_{<=h}(s, v) for h = 1..n-1 and all v, via the growing hierarchy.

    Levels r <= split run the pinned-target single-pair solver for every
    vertex of S_r (one shared hierarchy build per level: with identical
    plans the per-target solves compute identical tables, so the rows are
    read from a single build).  That reduces to one Bellman-Ford from s,
    restricted to S_split, wherever the ladder's last level runs
    Bellman-Ford: at k = 1, or when the ladder's S_{k-1}, pinned with
    S_split, is all of V.  Level r > split runs Bellman-Ford from
    S_{r-1} for the prefix table d_{<=h'}(S_{r-1}, S_r), h' = 0..H1 with
    H1 = n^(1-(r-1)/k), and sets, for every hop j,

        cur_r[j](s, v) = min over x in S_{r-1}, j' + h' = j of
                         cur_{r-1}[j'](s, x) + d_{<=h'}(x, v).

    Every candidate is the weight of a walk from s with at most j hops, so
    no value falls below d_{<=j}(s, v).  The split at x = s with h' = 0
    hops carries each vertex's previous value over, and the split at
    x = s with j' = 0 gives d_{<=h'}(s, v) directly (cur[0] is 0 at s, and
    s is in every level).  A shortest walk with more than H1 hops has a
    vertex x of S_{r-1} among its last H1 + 1 whenever the sample hits
    that stretch (see `SamplePlan`), and the split there is exact.  The
    table never increases in j, because each split of j is also a split
    of j + 1 with one more hop allowed on the right.

    Where S_{r-1} is V and cur_{r-1} is exact by construction (from
    Bellman-Ford, through V at every level since), the split at x = v,
    h' = 0 is cur_{r-1} itself and no candidate is lower, so the level
    keeps cur as it is.  After a level through a sample, cur may miss a
    walk, and a level through V keeps its convolution, which can lower it.
    """
    n = g.n
    if not (0 <= s < n):
        raise ValueError("source out of range")
    if k < 1:
        raise ValueError("level count must be >= 1")
    if split is None:
        split = math.ceil(k / 2)
    if not (0 <= split <= k):
        raise ValueError("split must lie in [0, k]")
    require_no_neg_cycle(g)

    plan = plan.with_pins({s})
    hier = growing_hierarchy(n, k, plan)
    levels = hier.levels
    HH = max(1, n - 1)

    # Levels below `split` are computed by the self-contained first
    # algorithm and never read again, so the ladder runs once, at r = split,
    # for every vertex of S_split.  Its last level's budget is
    # min(n, ceil(n^(k/k))) = n >= HH.  `exact`: cur is d_{<=h}(s, S_r) by
    # construction, from Bellman-Ford and combining steps through V only.
    sp_plan = plan.with_pins(levels[split].tolist())
    exact = shrinking_parent_is_v(n, k, sp_plan)
    if exact:
        cur = _bf_multi(g, [s], HH, with_exact=False).le[:, 0, levels[split]]
    else:
        sp_levels, sp_tables = _sp_level_tables(g, k, sp_plan)
        fv, ft = sp_levels[-1], sp_tables[-1]
        si = int(np.searchsorted(fv, s))
        pos = np.searchsorted(fv, levels[split])
        cur = np.ascontiguousarray(ft[: HH + 1, si, pos])  # (HH+1, |S_r|): d_{<=h}(s, S_r)
    for r in range(split + 1, k + 1):
        verts, prev_verts = levels[r], levels[r - 1]
        if exact and len(prev_verts) == n:
            continue  # S_r = S_{r-1} = V, and the split at x = v, h' = 0 is cur
        exact = False
        # d_{<=h'}(S_{r-1}, S_r) for h' = 0..H1, transposed to put S_r on
        # the left; one convolution with cur over S_{r-1} gives every hop.
        T = _bf_multi(g, prev_verts, hier.budgets[r - 1], with_exact=False).le[:, :, verts]
        cur = conv_window(T.transpose(0, 2, 1), cur[:, :, None], 0, HH)[:, :, 0]
    return AllHopsTable((s,), HH, cur[:, None, :], None)


# ---------------------------------------------------------------------------
# all pairs


def all_pairs_allhops(g: Graph, plan: SamplePlan) -> AllHopsTable:
    """d_{<=h}(u, v) for all pairs and h = 1..n-1.

    Round k extends every pair's sequence from length K_{k-1} to
    K_k = ceil((3/2)^k) (`sampling.geometric_ladder`): splits
    d_{<=h-g}(u, x) + d_{<=g}(x, v) through the round's x, sampled for
    stretch K_{k-1}, contribute candidates, and the stagnation value
    d_{<=h-1}(u, v) closes the short-path case.  A round whose sample is
    all of V runs Bellman-Ford from K_{k-1} instead: the rounds before it
    sampled V too, so the table is exact, and through V the splits give
    d_{<=h} itself.  So does a round whose Bellman-Ford, n * m *
    (K_k - K_{k-1}) relaxations, costs no more than its extension by
    `minplus.conv_cells`; from exact rows it is exact.  Once two
    consecutive hop slices are identical the table has stabilized and the
    remaining hops are copies (the one-step recurrence is a function of
    the previous slice alone).
    """
    n = g.n
    require_no_neg_cycle(g)
    checked_pins(n, plan.pinned)
    HH = max(1, n - 1)
    le = np.full((HH + 1, n, n), INF)
    le[:2] = _bf_multi(g, range(n), 1, with_exact=False).le
    edges = g.in_edges()
    rng = np.random.default_rng(plan.seed)
    ks = geometric_ladder(n)
    for K_prev, K_new in zip(ks, ks[1:]):
        if np.array_equal(le[K_prev], le[K_prev - 1]):
            le[K_prev + 1 :] = le[K_prev]
            break
        # Drawn even when it is all of V, so later rounds draw the same.
        sample = round_sample(rng, n, level_size(n, plan.C, K_prev), plan.pinned)
        ends = (K_prev + 1, n, len(sample)), (K_prev + 1, len(sample), n)
        if len(sample) == n or n * g.m * (K_new - K_prev) <= conv_cells(*ends, K_prev + 1, K_new):
            relax_hops(le[: K_new + 1], K_prev, edges)
        else:
            extend_hops(le[: K_new + 1], le[: K_prev + 1], np.arange(n), sample, sample)
    return AllHopsTable(tuple(range(n)), HH, le, None)
