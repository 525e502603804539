import math

import numpy as np
import pytest

from allhops import (
    SamplePlan,
    all_pairs_allhops,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    gen_random_graph,
    graph_from_edges,
    growing_hierarchy,
    shrinking_hierarchy,
    single_pair_allhops,
    single_source_allhops,
)
from allhops.sampling import checked_pins, level_size, round_sample, shrinking_parent_is_v


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(C=0.5)
    for C in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="oversampling constant C must be finite and >= 1"):
            SamplePlan(C=C)
    plan = SamplePlan(pinned={3, 1})
    assert plan.with_pins({2}).pinned == {1, 2, 3}


def test_level_size_is_min_of_n_and_the_ceiling():
    """level_size is min(n, ceil(C·n·ln n / q)); a C so large that the
    product overflows to +inf is all of V, not a float conversion error."""
    for n in (1, 2, 17, 64):
        for C in (1.0, 4.0, 7.5, 1e6, 1e300, 1e308):
            for q in (1, 1.5, 8, n ** 0.5):
                size = level_size(n, C, q)
                exact = C * n * math.log(n) / q
                assert size == (n if exact == math.inf else min(n, math.ceil(exact)))
    assert level_size(64, 1e308, 1.0) == 64


@pytest.mark.parametrize("C", [1.0, 2.0, 4.0, 1e308])
def test_shrinking_parent_is_v_without_drawing(C):
    """The rule agrees with the drawn hierarchy's S_{k-1} for every n up to
    130, k up to 4, and 0 to 3 pins or every vertex pinned."""
    for n in range(1, 131):
        for pins in (*({(7 * i) % n for i in range(p)} for p in range(4)), range(n)):
            plan = SamplePlan(C=C, seed=n, pinned=pins)
            for k in range(1, 5):
                want = len(shrinking_hierarchy(n, k, plan).levels[k - 1]) == n
                assert shrinking_parent_is_v(n, k, plan) == want, (n, k, sorted(pins))


def test_shrinking_levels_nested_and_pinned():
    plan = SamplePlan(C=4.0, seed=3, pinned={0, 7})
    h = shrinking_hierarchy(50, 3, plan)
    assert h.direction == "shrinking"
    assert h.levels[0].tolist() == list(range(50))
    for r in range(1, 4):
        cur, prev = set(h.levels[r].tolist()), set(h.levels[r - 1].tolist())
        assert cur <= prev
        assert {0, 7} <= cur
        want = min(50, math.ceil(4.0 * 50 ** (1 - r / 3) * math.log(50)))
        assert len(cur) == max(want, 2)


def test_growing_levels_nested_and_sized():
    plan = SamplePlan(C=4.0, seed=3, pinned={5})
    h = growing_hierarchy(60, 3, plan)
    assert h.levels[-1].tolist() == list(range(60))
    for r in range(3):
        assert set(h.levels[r].tolist()) <= set(h.levels[r + 1].tolist())
        assert 5 in h.levels[r]
        want = min(60, math.ceil(4.0 * 60 ** (r / 3) * math.log(60)))
        assert len(h.levels[r]) == max(want, 1)


def test_hierarchies_deterministic():
    plan = SamplePlan(C=4.0, seed=11, pinned={2})
    a = shrinking_hierarchy(40, 2, plan)
    b = shrinking_hierarchy(40, 2, plan)
    for x, y in zip(a.levels, b.levels):
        assert np.array_equal(x, y)


ALL = "all"


@pytest.mark.parametrize("build, n, k, C, seed, pins, want", [
    (shrinking_hierarchy, 24, 2, 1.0, 5, (), [
        ALL, [0, 1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 16, 17, 19, 21], [1, 6, 12, 21]]),
    (shrinking_hierarchy, 40, 3, 1.0, 2, (1, 3), [
        ALL, ALL, [1, 3, 4, 8, 16, 17, 18, 19, 23, 24, 28, 33, 34], [1, 3, 16, 34]]),
    (growing_hierarchy, 24, 2, 1.0, 5, (), [
        [0, 14, 17, 19], [0, 1, 3, 4, 5, 7, 8, 10, 14, 17, 18, 19, 20, 21, 22, 23], ALL]),
    (growing_hierarchy, 40, 3, 1.0, 1, (0,), [
        [0, 18, 20, 30], [0, 5, 8, 10, 15, 18, 20, 26, 30, 32, 33, 36, 38], ALL, ALL]),
    (growing_hierarchy, 24, 1, 2.0, 3, (4, 9), [[1, 3, 4, 5, 9, 16, 23], ALL]),
    # n = 1: ln n = 0, yet every level holds the vertex.
    (shrinking_hierarchy, 1, 2, 1.0, 0, (), [ALL, ALL, ALL]),
    (shrinking_hierarchy, 1, 1, 1.0, 0, (0,), [ALL, ALL]),
    (growing_hierarchy, 1, 2, 1.0, 0, (), [ALL, ALL, ALL]),
    (growing_hierarchy, 1, 1, 1.0, 0, (0,), [ALL, ALL]),
    (shrinking_hierarchy, 2, 2, 1.0, 0, (), [ALL, [1], [1]]),
    (shrinking_hierarchy, 2, 1, 1.0, 0, (0,), [ALL, [0]]),
    (growing_hierarchy, 2, 2, 1.0, 0, (), [[1], [1], ALL]),
    (growing_hierarchy, 2, 1, 1.0, 0, (0,), [[0], ALL]),
])
def test_hierarchy_draws_pinned(build, n, k, C, seed, pins, want):
    """The exact levels a plan draws: solver outputs at small C depend on
    them, so a change to the draw order shows here first."""
    h = build(n, k, SamplePlan(C=C, seed=seed, pinned=set(pins)))
    got = [lv.tolist() for lv in h.levels]
    assert got == [list(range(n)) if w == ALL else w for w in want]


def test_pin_out_of_range():
    with pytest.raises(ValueError):
        shrinking_hierarchy(5, 2, SamplePlan(pinned={9}))


_PIN_ENTRY_POINTS = {
    "single-pair": lambda g, plan: single_pair_allhops(g, 0, 5, 2, plan),
    "single-source": lambda g, plan: single_source_allhops(g, 0, 2, plan),
    "all-pairs": all_pairs_allhops,
    "mn": build_oracle_mn,
    "mpp": build_oracle_mpp,
    "bounded": build_oracle_bounded,
}


@pytest.mark.parametrize("entry", sorted(_PIN_ENTRY_POINTS))
def test_pin_out_of_range_at_every_entry_point(entry):
    g = gen_random_graph(12, 30, 4, 0, require_no_neg_cycle=True)
    with pytest.raises(ValueError, match="pinned vertex out of range"):
        _PIN_ENTRY_POINTS[entry](g, SamplePlan(pinned={99}))


# Builds that draw no sample: mpp and bounded at n <= 2 (the ladder is
# [1]), all pairs on a graph whose hop-1 table is already stable.
_NO_DRAW_CASES = {
    "mpp-n1": lambda: build_oracle_mpp(graph_from_edges(1, []), SamplePlan(pinned={99})),
    "mpp-n2": lambda: build_oracle_mpp(graph_from_edges(2, [(0, 1, 3)]), SamplePlan(pinned={2})),
    "bounded-n2": lambda: build_oracle_bounded(
        graph_from_edges(2, [(0, 1, 3)], declared_M=3), SamplePlan(pinned={99})
    ),
    "all-pairs-no-edges": lambda: all_pairs_allhops(graph_from_edges(4, []), SamplePlan(pinned={99})),
    "all-pairs-n2": lambda: all_pairs_allhops(graph_from_edges(2, [(0, 1, 3)]), SamplePlan(pinned={-1})),
}


@pytest.mark.parametrize("case", sorted(_NO_DRAW_CASES))
def test_pin_out_of_range_when_nothing_is_drawn(case):
    with pytest.raises(ValueError, match="pinned vertex out of range"):
        _NO_DRAW_CASES[case]()


def _round_sample_with_setdiff(rng, n, size, pinned=(), within=None):
    """The earlier body of `round_sample`, which builds every pool with
    `np.setdiff1d`: the reference for its draws and generator steps."""
    pins = checked_pins(n, pinned)
    pool = np.arange(n, dtype=np.int64) if within is None else np.asarray(within)
    pool = np.setdiff1d(pool, pins)
    count = min(size - pins.size, pool.size)
    if count <= 0:
        return pins
    drawn = pool[rng.choice(pool.size, size=count, replace=False)]
    return np.sort(np.concatenate([pins, drawn]))


def test_round_sample_draws_as_the_setdiff_body():
    """Every n up to 100, every size, 0-3 pins, from V and from a nested
    pool: the same sample, and the generator left in the same state, so
    every later draw is the same too."""
    cases = np.random.default_rng(5)
    for n in range(1, 101):
        for size in range(1, n + 1):
            pins = cases.choice(n, size=int(cases.integers(0, min(3, n) + 1)), replace=False)
            parent = np.sort(cases.choice(n, size=int(cases.integers(1, n + 1)), replace=False))
            for within in (None, parent):
                seed = n * 1000 + size
                new, old = np.random.default_rng(seed), np.random.default_rng(seed)
                got = round_sample(new, n, size, pins, within)
                want = _round_sample_with_setdiff(old, n, size, pins, within)
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, size, within)
                assert new.bit_generator.state == old.bit_generator.state, (n, size, within)
