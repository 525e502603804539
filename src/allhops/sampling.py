"""Seeded vertex sampling: the one hitting-set schedule behind every
solver and oracle.

A level drawn for a stretch q holds `level_size(n, C, q)` vertices.
Hierarchies and the mpp/bounded oracles draw nested levels
(`nested_samples`); the all-pairs rounds and the mpp/bounded levels
follow the (3/2) hop ladder (`geometric_ladder`); a hierarchy level's
hop budget is `min(n, ceil(q))` (`SampleHierarchy.budgets`).

All draws come from a PCG64 generator seeded by the plan, so every
structure built from the same (n, plan) is identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SamplePlan:
    """Oversampling constant C (finite, >= 1), seed and vertices pinned into
    every level.

    A solver is exact when every sampled split set hits each stretch of q
    consecutive vertices on the shortest paths its level relies on.  A
    level drawn for stretch q holds s = level_size(n, C, q) =
    min(n, ceil(C*n*ln n / q)) vertices.  A uniform s-sample of n vertices
    misses q*f fixed ones with probability at most exp(-q*f*s/n) <= n^(-C*f),
    and a level has at most n^2 stretches (one per pair of end vertices),
    so the chance of a wrong table is at most:

    * single_pair_allhops: (k-1) * n^(2-C/2).  S_r (r = 1..k-1) is drawn
      for q = n^(r/k) and must hit every q/2 in a row.
    * single_source_allhops: that bound for the ladder run at level split,
      plus (k-split) * n^(2-C), because S_r (r = split..k-1) is drawn for
      q = n^(1-r/k) and must hit every q in a row.
    * all_pairs_allhops: log_1.5(n) * n^(2-C/2).  A round that extends
      past K hops is drawn for q = K and must hit every K/2 in a row.

    These union bounds treat each draw as uniform and independent of the
    graph, and ignore the pins.  They fall below 1 only for C > 4 (C > 2
    for the single-source levels past split), so at the default C = 4
    exactness is observed, not guaranteed; at C = 1 wrong tables do occur.
    """

    C: float = 4.0
    seed: int = 0
    pinned: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C >= 1):
            raise ValueError("oversampling constant C must be finite and >= 1")
        object.__setattr__(self, "pinned", frozenset(int(v) for v in self.pinned))

    def with_pins(self, extra) -> "SamplePlan":
        return SamplePlan(self.C, self.seed, self.pinned | frozenset(int(v) for v in extra))


@dataclass(frozen=True)
class SampleHierarchy:
    """Sorted vertex arrays S_0..S_k; level r is drawn for a stretch q_r and
    carries the hop budget budgets[r] = min(n, ceil(q_r))."""

    direction: str  # "shrinking" | "growing"
    levels: tuple[np.ndarray, ...]
    budgets: tuple[int, ...]


def level_size(n: int, C: float, q: float) -> int:
    """min(n, ceil(C * n * ln n / q)): a uniform draw of this many vertices
    misses a fixed stretch of q of them with probability at most n^-C.  A
    size of n or more (+inf too, where a huge C overflows) is all of V."""
    size = C * n * math.log(n) / q
    return n if size >= n else math.ceil(size)


def geometric_ladder(n: int) -> list[int]:
    """K_0 = 1, then ceil((3/2)^j) capped at n-1, strictly increasing."""
    hh = max(1, n - 1)
    ks = [1]
    while ks[-1] < hh:
        ks.append(min(math.ceil(1.5 ** len(ks)), hh))
    return ks


def nested_samples(n: int, plan: SamplePlan, stretches) -> list[np.ndarray]:
    """S_0 = V, then S_j <= S_{j-1} drawn for stretch stretches[j]; a level
    holds at least one vertex (at n = 1, ln n = 0)."""
    checked_pins(n, plan.pinned)
    rng = np.random.default_rng(plan.seed)
    samples = [np.arange(n, dtype=np.int64)]
    for q in stretches[1:]:
        size = max(1, level_size(n, plan.C, q))
        samples.append(round_sample(rng, n, size, plan.pinned, within=samples[-1]))
    return samples


def _budgets(n: int, stretches) -> tuple[int, ...]:
    return tuple(min(n, math.ceil(q)) for q in stretches)


def shrinking_hierarchy(n: int, k: int, plan: SamplePlan) -> SampleHierarchy:
    """V = S_0 >= S_1 >= ... >= S_k for stretches q_r = n^(r/k), pinned
    vertices in every level, each level drawn from its parent."""
    stretches = [n ** (r / k) for r in range(k + 1)]
    levels = nested_samples(n, plan, stretches)
    return SampleHierarchy("shrinking", tuple(levels), _budgets(n, stretches))


def shrinking_parent_is_v(n: int, k: int, plan: SamplePlan) -> bool:
    """Whether S_{k-1}, the parent of the last level of
    `shrinking_hierarchy(n, k, plan)`, is all of V, without drawing it.  A
    nested level holds its pins and min(its size, its parent's size) in
    all, and the sizes fall as the stretches grow, so S_{k-1} is V iff
    k = 1, the pins are all of V, or its own size is n."""
    pins = checked_pins(n, plan.pinned)
    return k == 1 or pins.size == n or max(1, level_size(n, plan.C, n ** ((k - 1) / k))) >= n


def growing_hierarchy(n: int, k: int, plan: SamplePlan) -> SampleHierarchy:
    """S_0 <= S_1 <= ... <= S_k = V for stretches q_r = n^(1-r/k), pinned
    vertices in every level, each level extending the previous with fresh
    draws."""
    stretches = [n ** (1 - r / k) for r in range(k + 1)]
    rng = np.random.default_rng(plan.seed)
    cur, levels = plan.pinned, []
    for q in stretches:
        cur = round_sample(rng, n, max(1, level_size(n, plan.C, q)), cur)
        levels.append(cur)
    return SampleHierarchy("growing", tuple(levels), _budgets(n, stretches))


def checked_pins(n: int, pinned) -> np.ndarray:
    """The pinned vertices, sorted; ValueError unless each is in [0, n).
    Every build that takes a plan checks its pins here, including builds
    that end up drawing nothing."""
    pins = np.array(sorted(set(int(v) for v in pinned)), dtype=np.int64)
    if pins.size and (pins[0] < 0 or pins[-1] >= n):
        raise ValueError("pinned vertex out of range")
    return pins


def round_sample(
    rng: np.random.Generator, n: int, size: int, pinned=(), within: np.ndarray | None = None
) -> np.ndarray:
    """One sorted sample of `size` vertices (clamped), pinned first;
    `within` restricts the pool (used for nested level draws).  A sample
    of all of V is still drawn, so that the generator moves on as for any
    other, but it is returned as `arange(n)`."""
    pins = checked_pins(n, pinned)
    if within is None:
        free = np.ones(n, dtype=bool)
        free[pins] = False
        pool = np.flatnonzero(free)
    else:
        pool = np.setdiff1d(within, pins)
    count = min(size - pins.size, pool.size)
    if count <= 0:  # the pins fill the sample: no draw, so no RNG step
        return pins
    picks = rng.choice(pool.size, size=count, replace=False)
    if pins.size + count == n:
        return np.arange(n, dtype=np.int64)
    return np.sort(np.concatenate([pins, pool[picks]]))
