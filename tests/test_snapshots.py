"""The AHDO2 snapshot layout: what `load_oracle` rebuilds from it and from
the AHDO1 fixtures, and what it refuses.  `test_snapshots_numpy.py`
collects every test here again with the cell conversions and the query
scan on their numpy bodies."""

from types import SimpleNamespace

import numpy as np
import pytest

from _snapshots import GOLDEN_KINDS, SETTLED_KINDS, fixture, same_oracle, stored_tables
from allhops import (
    ParseError,
    SamplePlan,
    _native,
    build_oracle_bf,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_powers,
    build_tree_gadget,
    gen_random_graph,
    load_oracle,
    oracles,
    save_oracle,
)
from allhops.cli import main

# The backend of the compiled entry points in this module.
BACKEND = "c"


@pytest.fixture(autouse=True)
def backend(request, monkeypatch):
    monkeypatch.setattr(_native, "_BACKEND", request.module.BACKEND)


def _builds(g, plan):
    return {
        "powers": lambda: build_oracle_powers(g),
        "bf": lambda: build_oracle_bf(g),
        "mn": lambda: build_oracle_mn(g, plan),
        "mpp": lambda: build_oracle_mpp(g, plan),
        "bounded": lambda: build_oracle_bounded(g, plan),
    }


def _fixture_builds():
    """(fixture name, the build of the oracle it holds), as test params."""
    golden = _builds(gen_random_graph(24, 72, 4, 2, require_no_neg_cycle=True),
                     SamplePlan(C=1.0, seed=5))
    settled = _builds(gen_random_graph(40, 160, 8, 3, require_no_neg_cycle=True), SamplePlan())
    for prefix, builds, kinds in (("golden", golden, GOLDEN_KINDS), ("settled", settled, SETTLED_KINDS)):
        for kind in kinds:
            yield pytest.param(f"{prefix}-{kind}", builds[kind], id=f"{prefix}-{kind}")


def _assert_same_answers(a, b) -> None:
    """Every query of a and b, by `query_many`, and the additions counted."""
    n = a.n
    u, v, h = (x.ravel() for x in np.mgrid[0:n, 0:n, 1:n])
    answers = []
    for o in (a, b):
        o.counters.reset()
        answers.append((o.query_many(u, v, h).tolist(), o.counters.adds))
    assert answers[0] == answers[1]


def _assert_full_levels_shared(o) -> None:
    """Every level over all of V is a read-only prefix view of the top
    full level's table, in both directions, as a build makes them."""
    full = [j for j, s in enumerate(o.samples) if s.size == o.n]
    for tables in (o.fwd, o.bwd):
        for j in full:
            t, top = tables[j], tables[full[-1]]
            assert t.base is not None and t.base is top.base and t.ctypes.data == top.ctypes.data
            assert not t.flags.writeable


@pytest.mark.parametrize("name, build", list(_fixture_builds()))
def test_ahdo1_fixture_loads_as_a_fresh_build(name, build):
    """An AHDO1 fixture loads into the oracle a fresh build makes: the same
    tables, tf / tb / copies, answers and additions, with its full levels
    sharing the top one's table."""
    built, loaded = build(), load_oracle(fixture(name))
    assert same_oracle(built, loaded)
    _assert_same_answers(built, loaded)
    if isinstance(built, oracles.LevelOracle):
        _assert_full_levels_shared(loaded)


def _oracles():
    """Oracles of every kind on graphs where copy levels, sampled levels
    above full ones, and tables that change up to the last hop all occur."""
    graphs = [
        ("sparse", gen_random_graph(24, 72, 6, 1, require_no_neg_cycle=True)),
        ("dense", gen_random_graph(16, 120, 4, 3, require_no_neg_cycle=True)),
        ("tree", build_tree_gadget(3).graph),
    ]
    for gname, g in graphs:
        for C in (1.0, 4.0):
            for kind, build in _builds(g, SamplePlan(C=C, seed=2)).items():
                yield pytest.param(build, id=f"{gname}-C{C:g}-{kind}")


@pytest.mark.parametrize("build", list(_oracles()))
def test_ahdo2_round_trip_rebuilds_the_oracle(build):
    """Built and AHDO2-loaded oracles are equal: tables, shapes, tf / tb /
    copies, answers and additions; full levels share the top table; the
    reloaded oracle writes the same bytes; and the snapshot stores each
    table only up to its last change."""
    o = build()
    blob = save_oracle(o)
    again = load_oracle(blob)
    assert same_oracle(o, again)
    _assert_same_answers(o, again)
    assert save_oracle(again) == blob
    if isinstance(o, oracles.FullTableOracle):
        assert [shape[0] - 1 for *_, shape in stored_tables(blob)] == [oracles._last_change(o.le)]
        return
    _assert_full_levels_shared(again)
    stored = {(j, i): shape[0] - 1 for j, i, _, shape in stored_tables(blob)}
    for (j, i), t in stored.items():
        assert t == (o.tf, o.tb)[i][j]
    full = [j for j, s in enumerate(o.samples) if s.size == o.n]
    for j in range(len(o.ks)):
        marked = (j, 0) not in stored
        assert marked == (j in full[:-1] or (o.copies[j] and j not in full)), j


# ---------------------------------------------------------------------------
# refusals


def _written(o, edit) -> bytes:
    """The AHDO2 writer's bytes for `o`, with its level list, entries
    (budget, sample, marker, [(t, table)]), first changed by `edit`."""
    seed, C, kstar, levels = o._snapshot()
    levels = [list(level) for level in levels]
    edit(levels)
    stub = SimpleNamespace(kind=o.kind, n=o.n,
                           _snapshot=lambda: (seed, C, kstar, [tuple(x) for x in levels]))
    return save_oracle(stub)


def _past_budget(levels):
    """Level 3 stores its fwd table to one hop past its budget."""
    budget, _, _, ((_, f), b) = levels[3]
    levels[3][3] = [(budget + 1, np.concatenate([f, f[-1:]])), b]


def _copy_on_level_0(levels):
    """Level 0 alone, as a copy marker: its sample is inside the last
    level's (itself), so only the level-0 check refuses it."""
    del levels[1:]
    levels[0][2:] = [oracles._COPY, []]


def _copy_not_inside(levels):
    """Level 7, a copy of level 6, takes a vertex that level 6 lacks."""
    below, sample = set(levels[6][1].tolist()), levels[7][1]
    outside = min(set(range(24)) - below - set(sample.tolist()))
    levels[7][1] = np.sort(np.append(sample[1:], outside))


def _set_marker(j, marker):
    def edit(levels):
        levels[j][2:] = [marker, []]
    return edit


# Each edit of the golden mpp oracle (n = 24, C = 1), whose levels hold 24,
# 24, 24, 23, 16, 11, 7, 5 and 3 vertices: 0 and 1 are prefix markers, 7
# and 8 copy markers, and the top full level 2 is stored.
REFUSALS = {
    "hops-past-budget": (_past_budget, "hops stored past budget"),
    "copy-on-level-0": (_copy_on_level_0, "copy marker on level 0"),
    "copy-not-inside": (_copy_not_inside, "copy marker on level 7, whose sample is not in"),
    "prefix-not-full": (_set_marker(3, oracles._PREFIX), "prefix marker on a level not over all"),
    "prefix-no-stored-full": (_set_marker(2, oracles._PREFIX), "no stored full level above"),
    "unknown-marker": (_set_marker(4, 3), "unknown level marker 3"),
}


def _golden_mpp():
    o = load_oracle(fixture("golden-mpp"))
    assert [m for _, _, m, _ in o._snapshot()[3]] == [2, 2, 0, 0, 0, 0, 0, 1, 1]
    return o


def _assert_refused(capsys, tmp_path, blob: bytes, message: str) -> None:
    """`load_oracle` raises ParseError with `message`, and `oracle query`
    on the file exits 1 with one stderr line that holds it."""
    with pytest.raises(ParseError, match=message):
        load_oracle(blob)
    snap, queries = tmp_path / "bad.ahdo", tmp_path / "queries.txt"
    snap.write_bytes(blob)
    queries.write_text("0 1 1\n")
    code = main(["oracle", "query", "--oracle", str(snap), "--queries", str(queries)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("allhops: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_ahdo2_malformed_level_is_refused(capsys, tmp_path, case):
    edit, message = REFUSALS[case]
    _assert_refused(capsys, tmp_path, _written(_golden_mpp(), edit), message)


def test_ahdo2_truncation_inside_a_level_is_refused(capsys, tmp_path):
    """A cut anywhere inside level 3 (budget, sample, marker, stored hop
    count or cells) or inside the copy level 7 is a truncation."""
    blob = save_oracle(_golden_mpp())
    tables = stored_tables(blob)
    fwd3, bwd3 = (at for j, _, at, _ in tables if j == 3)
    start = fwd3 - 4 - 1 - 8 * 23 - 8  # budget and sample size of level 3
    level8 = len(blob) - (8 + 8 * 3 + 1)  # the last level: a copy marker over 3 vertices
    cuts = [start + 3, start + 8 + 5, fwd3 - 5, fwd3 - 2, fwd3 + 7, bwd3 - 4, bwd3 + 800, level8 - 1]
    for cut in cuts:
        _assert_refused(capsys, tmp_path, blob[:cut], "truncated")


@pytest.mark.parametrize("edit, message", [
    (lambda levels: levels[0].__setitem__(2, oracles._COPY), "full table holds a marker"),
    (lambda levels: levels[0].__setitem__(0, 30), "budget 30 past n - 1 on a cut table"),
], ids=["marker", "cut-past-n-1"])
def test_ahdo2_full_table_refusals(capsys, tmp_path, edit, message):
    """A full table is stored, never a marker; and it may have a budget
    past n - 1 only when stored whole, so that no small file asks for a
    long hop axis.  The writer stores such a table whole."""
    o = load_oracle(fixture("golden-bf"))
    _assert_refused(capsys, tmp_path, _written(o, edit), message)
    long = oracles.FullTableOracle("bf", o.n, 30, np.concatenate([o.le] + [o.le[-1:]] * 7))
    blob = save_oracle(long)
    assert [shape[0] for *_, shape in stored_tables(blob)] == [31]
    assert same_oracle(load_oracle(blob), long)


def _stub_blob(kind, n, levels) -> bytes:
    """The AHDO2 writer's bytes for a level list of its own."""
    return save_oracle(SimpleNamespace(kind=kind, n=n, _snapshot=lambda: (0, 1.0, 0, levels)))


def test_ahdo2_more_levels_than_a_build_is_refused(capsys, tmp_path):
    """A copy marker is a few bytes, yet the loader makes its level's
    tables: mpp at n = 32, level 0 over V stored to hop 0, then 50 copy
    levels over V at budget 31, is a 29,945-byte file that would make 102
    tables of 32 x 32 x 32 cells.  No build writes more levels than the
    ladder of its kind at n (10 here), so this is refused before any table
    is made."""
    n = 32
    ident = np.where(np.eye(n, dtype=bool), 0.0, np.inf)[None]
    levels = [(n - 1, np.arange(n), oracles._STORED, [(0, ident), (0, ident)])]
    levels += [(n - 1, np.arange(n), oracles._COPY, [])] * 50
    blob = _stub_blob("mpp", n, levels)
    assert len(blob) == 29945
    _assert_refused(capsys, tmp_path, blob, "51 levels over 32 vertices")
    _assert_refused(capsys, tmp_path, _stub_blob("mpp", n, levels[:11]), "11 levels over 32")


@pytest.mark.parametrize("kind", ["mn", "mpp", "bounded"])
def test_ahdo2_more_hops_than_a_build_is_refused(capsys, tmp_path, kind):
    """One vertex stored to hop 0 on level 0 and copied on every level
    above takes 2 (K_j + 1) n cells per level from 17 + 8 bytes.  At the
    budgets of the kind's ladder it loads; with one hop more on level 0 the
    levels hold more hops than any build's, and it is refused."""
    n = 32
    ladder = oracles._ladder(kind, n)
    row = np.where(np.arange(n) == 0, 0.0, np.inf)[None, None]
    one = np.array([0])

    def levels(ks):
        return [(ks[0], one, oracles._STORED, [(0, row), (0, row)])] + [
            (k, one, oracles._COPY, []) for k in ks[1:]]

    loaded = load_oracle(_stub_blob(kind, n, levels(ladder)))
    assert loaded.ks == ladder and loaded.copies == [False] + [True] * (len(ladder) - 1)
    wide = [ladder[0] + 1] + ladder[1:]
    most = sum(ladder) + len(ladder)
    _assert_refused(capsys, tmp_path, _stub_blob(kind, n, levels(wide)),
                    f"{most + 1} hops over its levels, past a build's {most}")
