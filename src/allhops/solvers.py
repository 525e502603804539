"""Fast all-hops solvers built on hitting-set sample hierarchies.

Three entry points, all returning values that must match the Bellman-Ford
baselines exactly (with high probability over the sample plan's seed; at
small n the level-size schedules clamp to all of V and the outputs are
deterministic):

* single_pair_allhops  - shrinking hierarchy, windowed self-convolutions
  of hop-indexed matrix sequences plus doubling prefix extensions.
* single_source_allhops - growing hierarchy; per level either repeated
  pinned-target single-pair solves or prefix tables by Bellman-Ford from
  the previous level's sample, combined with the previous level by one
  min-plus convolution.
* all_pairs_allhops   - geometric rounds extending every pair's sequence
  by min-plus convolution through the round's sample plus a stagnation
  candidate; the hop extension is `minplus.extend_hops`, the same kernel
  the sampled oracles build their levels with.

The schedule lives in `sampling`: every sample holds
`level_size(n, C, q)` vertices for its stretch q, each hierarchy level
carries its hop budget (`SampleHierarchy.budgets`), and the all-pairs
rounds follow `geometric_ladder`.

Each entry point refuses a graph with a negative cycle with
`graph.NegativeCycleError`, which this module also exports.

Every table the solvers build is a prefix table, d_{<=h} for h = 0..H;
exact-hop tables d_h belong to the ground truth (`baselines`) and to the
reduction decoders that read them.

Internally everything runs on raw float64 stacks.  The matrix-sequence
convolutions of the single-pair ladder (which the single-source solver
also runs), of the single-source combining step and of the all-pairs hop
extension are the windowed kernel `minplus.conv_window`, asked for
exactly the output hops the caller reads.  When the split set is all of
V, the kernel takes one split per output hop, which is exact on exact
prefix tables.  The ladder's `polynomial` strategy goes through
`matseq_convolution` instead and takes every split.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import AllHopsTable, _bf_multi
from .graph import Graph, NegativeCycleError, require_no_neg_cycle
from .matrices import MatrixSeq
from .minplus import conv_window, extend_hops, matseq_convolution
from .sampling import (
    SamplePlan,
    checked_pins,
    geometric_ladder,
    growing_hierarchy,
    level_size,
    round_sample,
    shrinking_hierarchy,
)
from .values import INF


def _conv(a3, aoff, b3, boff, lo, hi, strategy, one_split):
    """Hops lo..hi of the min-plus convolution of two raw hop-indexed stacks
    (offsets aoff, boff).  `naive` calls the windowed kernel directly, with
    one split per output hop when `one_split` holds (see `conv_window`);
    `polynomial` goes through `matseq_convolution` and takes every split."""
    if strategy == "naive":
        base = aoff + boff
        return conv_window(a3, b3, lo - base, hi - base, one_split=one_split)
    (_, R, K), C = a3.shape, b3.shape[2]
    A = MatrixSeq(aoff, range(R), range(K), a3)
    B = MatrixSeq(boff, range(K), range(C), b3)
    return matseq_convolution(A, B, strategy=strategy, window=(lo, hi)).data


# ---------------------------------------------------------------------------
# single pair


def _sp_level_tables(g: Graph, k: int, plan: SamplePlan, strategy: str = "naive"):
    """Shrinking-hierarchy ladder: returns (levels, tables) where
    tables[r][j] = d_{<=j}(S_r, S_r) for j up to the level's hop budget
    min(n, ceil(n^(r/k))).

    Level 0 holds hops 0..1 (the identity and one Bellman-Ford hop).
    Each later level doubles windowed sequences of the previous level's
    matrices and extends its own prefix by convolution, always taking
    entrywise minima with the best previously known values.
    """
    n = g.n
    hier = shrinking_hierarchy(n, k, plan)
    levels = hier.levels

    tables = [_bf_multi(g, range(n), 1, with_exact=False).le]

    for r in range(1, k + 1):
        prev_verts = levels[r - 1]
        cur_verts = levels[r]
        prev = tables[r - 1]  # (H+1, nP, nP)
        H = prev.shape[0] - 1
        Nr = hier.budgets[r]
        half_lo, half_hi = H // 2, (H + 1) // 2
        L = max(0, Nr.bit_length() - 1)  # floor(log2(Nr))
        # Split sets only shrink: the ladder's levels, the all-pairs rounds'
        # samples and the oracles' nested levels.  So a split set of all of
        # V is only preceded by full ones, the tables it splits are exact
        # prefix tables, and one split per output hop gives every split's
        # value (`minplus.conv_window`).
        one_split = len(prev_verts) == n

        # Known exact prefix over S_{r-1}; extend once by self-convolution
        # when the first window pokes past it (only happens for H == 1).
        known = prev
        if 1 + half_hi > H:
            boot = _conv(prev, 0, prev, 0, H + 1, 1 + half_hi, strategy, one_split)
            known = np.concatenate([prev, boot])

        # Window i holds d_{<=j}(S_{r-1}, S_{r-1}) for j in
        # [max(2^i - half_lo, 0), 2^i + half_hi]: window 0 is read off the
        # known prefix, each later one is the self-convolution of the one
        # before, lowered to the known prefix wherever that reaches.
        lo = max(1 - half_lo, 0)
        windows = [(known[lo : 2 + half_hi], lo)]
        for i in range(1, L + 1):
            d_win, d_off = windows[-1]
            lo, hi = max((1 << i) - half_lo, 0), (1 << i) + half_hi
            conv = _conv(d_win, d_off, d_win, d_off, lo, hi, strategy, one_split)
            top = min(hi, known.shape[0] - 1)
            if top >= lo:
                np.minimum(conv[: top - lo + 1], known[lo : top + 1], out=conv[: top - lo + 1])
            windows.append((conv, lo))

        # Prefix extension: rows S_r, cols S_{r-1}, doubling the known range.
        sel = np.searchsorted(prev_verts, cur_verts)
        P = np.full((Nr + 1, len(cur_verts), len(prev_verts)), INF)
        base = min(known.shape[0] - 1, Nr)
        P[: base + 1] = known[: base + 1][:, sel, :]
        known_hi = base
        for i in range(L + 1):
            target = min(1 << (i + 1), Nr)
            if target <= known_hi:
                continue
            w_data, w_off = windows[i]
            s_lo, s_hi = 1 << i, (1 << i) + half_hi
            sub = w_data[s_lo - w_off : s_hi - w_off + 1]
            lo = known_hi + 1
            conv = _conv(P[: (1 << i) + 1], 0, sub, s_lo, lo, target, strategy, one_split)
            np.minimum(P[lo : target + 1], conv, out=P[lo : target + 1])
            np.minimum.accumulate(P[known_hi : target + 1], axis=0, out=P[known_hi : target + 1])
            known_hi = target

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
    levels, tables = _sp_level_tables(g, k, plan.with_pins({s, t}), strategy)
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
    read from a single build).  Level r > split runs Bellman-Ford from
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
    # min(n, ceil(n^(k/k))) = n >= HH.
    sp_levels, sp_tables = _sp_level_tables(g, k, plan.with_pins(levels[split].tolist()))
    fv, ft = sp_levels[-1], sp_tables[-1]
    si = int(np.searchsorted(fv, s))
    pos = np.searchsorted(fv, levels[split])
    cur = np.ascontiguousarray(ft[: HH + 1, si, pos])  # (HH+1, |S_r|): d_{<=h}(s, S_r)
    for r in range(split + 1, k + 1):
        verts, prev_verts = levels[r], levels[r - 1]
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
    d_{<=h-1}(u, v) closes the short-path case.  Once two consecutive hop
    slices are identical the table has stabilized and the remaining hops
    are copies (the one-step recurrence is a function of the previous slice
    alone).
    """
    n = g.n
    require_no_neg_cycle(g)
    checked_pins(n, plan.pinned)
    HH = max(1, n - 1)
    le = np.full((HH + 1, n, n), INF)
    le[:2] = _bf_multi(g, range(n), 1, with_exact=False).le
    rng = np.random.default_rng(plan.seed)
    ks = geometric_ladder(n)
    for K_prev, K_new in zip(ks, ks[1:]):
        if np.array_equal(le[K_prev], le[K_prev - 1]):
            le[K_prev + 1 :] = le[K_prev]
            break
        sample = round_sample(rng, n, level_size(n, plan.C, K_prev), plan.pinned)
        extend_hops(le[: K_new + 1], le[: K_prev + 1], np.arange(n), sample, sample)
    return AllHopsTable(tuple(range(n)), HH, le, None)
