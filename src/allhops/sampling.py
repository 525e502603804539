"""Seeded vertex sampling: plans, nested hierarchies, and level-size
schedules for the hierarchical solvers and the distance oracles.

All draws come from a PCG64 generator seeded by the plan, so every
structure built from the same (n, plan) is identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SamplePlan:
    """Oversampling constant C, seed and vertices pinned into every level.

    A solver is exact when every sampled split set hits each stretch of q
    consecutive vertices on the shortest paths its level relies on.  A
    uniform s-sample of n vertices misses q fixed ones with probability at
    most exp(-q*s/n), and a level has at most n^2 stretches (one per pair
    of end vertices), so the chance of a wrong table is at most:

    * single_pair_allhops: (k-1) * n^(2-C/2).  S_r (r = 1..k-1) holds
      C*n^(1-r/k)*ln n vertices and must hit every n^(r/k)/2 in a row.
    * single_source_allhops: that bound for the ladder run at level split,
      plus (k-split) * n^(2-C), because S_r (r = split..k-1) holds
      C*n^(r/k)*ln n vertices and must hit every n^(1-r/k) in a row.
    * all_pairs_allhops: log_1.5(n) * n^(2-C/2).  A round that extends
      past K hops samples C*n*ln(n)/K vertices, which must hit every K/2
      in a row.

    These union bounds treat each draw as uniform and independent of the
    graph, and ignore the pins.  They fall below 1 only for C > 4 (C > 2
    for the single-source levels past split), so at the default C = 4
    exactness is observed, not guaranteed; at C = 1 wrong tables do occur.
    """

    C: float = 4.0
    seed: int = 0
    pinned: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.C < 1:
            raise ValueError("oversampling constant C must be >= 1")
        object.__setattr__(self, "pinned", frozenset(int(v) for v in self.pinned))

    def with_pins(self, extra) -> "SamplePlan":
        return SamplePlan(self.C, self.seed, self.pinned | frozenset(int(v) for v in extra))


@dataclass(frozen=True)
class SampleHierarchy:
    direction: str  # "shrinking" | "growing"
    levels: tuple[np.ndarray, ...]  # sorted vertex-index arrays
    plan: SamplePlan


def _check_pins(n: int, plan: SamplePlan) -> np.ndarray:
    pins = np.array(sorted(plan.pinned), dtype=np.int64)
    if pins.size and (pins[0] < 0 or pins[-1] >= n):
        raise ValueError("pinned vertex out of range")
    return pins


def shrinking_schedule(n: int, k: int, r: int, C: float) -> int:
    """|S_r| = min(n, ceil(C * n^(1-r/k) * ln n)); S_0 is all of V."""
    if r == 0:
        return n
    return min(n, math.ceil(C * n ** (1 - r / k) * math.log(n)) if n > 1 else 1)


def growing_schedule(n: int, k: int, r: int, C: float) -> int:
    """|S_r| = min(n, ceil(C * n^(r/k) * ln n)); S_k is all of V."""
    if r == k:
        return n
    return min(n, math.ceil(C * n ** (r / k) * math.log(n)) if n > 1 else 1)


def shrinking_hierarchy(n: int, k: int, plan: SamplePlan) -> SampleHierarchy:
    """V = S_0 >= S_1 >= ... >= S_k, pinned vertices in every level,
    remainder drawn without replacement from the parent level."""
    pins = _check_pins(n, plan)
    rng = np.random.default_rng(plan.seed)
    levels = [np.arange(n, dtype=np.int64)]
    for r in range(1, k + 1):
        size = shrinking_schedule(n, k, r, plan.C)
        levels.append(round_sample(rng, n, size, pins, within=levels[-1]))
    return SampleHierarchy("shrinking", tuple(levels), plan)


def growing_hierarchy(n: int, k: int, plan: SamplePlan) -> SampleHierarchy:
    """S_0 <= S_1 <= ... <= S_k = V, pinned vertices in every level,
    each level extending the previous with fresh draws."""
    rng = np.random.default_rng(plan.seed)
    cur = _check_pins(n, plan)
    levels = []
    for r in range(k + 1):
        cur = round_sample(rng, n, growing_schedule(n, k, r, plan.C), cur)
        levels.append(cur)
    return SampleHierarchy("growing", tuple(levels), plan)


def round_sample(
    rng: np.random.Generator, n: int, size: int, pinned=(), within: np.ndarray | None = None
) -> np.ndarray:
    """One sorted sample of `size` vertices (clamped), pinned first;
    `within` restricts the pool (used for nested level draws)."""
    pins = np.array(sorted(set(int(v) for v in pinned)), dtype=np.int64)
    pool = np.arange(n, dtype=np.int64) if within is None else np.asarray(within)
    pool = np.setdiff1d(pool, pins)
    count = min(size - pins.size, pool.size)
    if count <= 0:  # the pins fill the sample: no draw, so no RNG step
        return pins
    drawn = pool[rng.choice(pool.size, size=count, replace=False)]
    return np.sort(np.concatenate([pins, drawn]))
