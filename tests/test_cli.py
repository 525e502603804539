import ctypes
import functools
import hashlib
import io
import json
import subprocess
import sys
import types

import numpy as np
import pytest

from allhops import (
    SamplePlan,
    apah_brute,
    build_oracle_bf,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_powers,
    gen_random_graph,
    load_oracle,
    parse_graph,
    render_graph,
    save_oracle,
)
from _snapshots import fixture
from allhops import values
from allhops.cli import main
from allhops.oracles import KINDS

F1 = "3 3\n0 1 1\n1 2 1\n0 2 10\n"
F3 = "2 2\n0 1 -2\n1 0 1\n"
F1_M = F1.replace("3 3", "3 3 M", 1)  # with declared_M, for the bounded oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def f1_path(tmp_path):
    p = tmp_path / "f1.el"
    p.write_text(F1)
    return str(p)


def test_single_pair_stdout_bytes(capsys, f1_path):
    code, out, _ = run_cli(capsys, "single-pair", "--graph", f1_path, "--s", "0", "--t", "2")
    assert code == 0
    assert out == "1\t10\n2\t2\n"


def test_check_exit_codes(capsys, tmp_path, f1_path):
    code, out, _ = run_cli(capsys, "check", "--graph", f1_path)
    assert code == 0 and out == "no negative cycle\n"
    bad = tmp_path / "f3.el"
    bad.write_text(F3)
    code, _, err = run_cli(capsys, "check", "--graph", str(bad))
    assert code == 2 and "negative cycle" in err


def test_usage_and_io_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "single-pair", "--graph", "missing.el", "--s", "0", "--t", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    bad = tmp_path / "bad.el"
    bad.write_text("junk\n")
    code, _, err = run_cli(capsys, "check", "--graph", str(bad))
    assert code == 1 and "line 1" in err
    # Every weight is in range, but a 34-hop path sum would leave float64's
    # exact integers.
    heavy = "".join(f"{i} {i + 1} {1 if i == 0 else 2**48}\n" for i in range(34))
    bad.write_text("35 34\n" + heavy)
    code, out, err = run_cli(capsys, "bf", "--graph", str(bad), "--s", "0")
    assert code == 1 and out == "" and "2**53" in err
    code, out, _ = run_cli(capsys, "gen", "--n", "40", "--m", "60", "--M", str(2**48))
    assert code == 1 and out == ""


def test_gen_bf_oracle_pipeline(capsys, tmp_path):
    graph_path = str(tmp_path / "g.el")
    code, _, _ = run_cli(
        capsys, "gen", "--n", "10", "--m", "25", "--M", "4", "--seed", "3",
        "--require-no-neg-cycle", "--out", graph_path,
    )
    assert code == 0
    code, bf_out, _ = run_cli(capsys, "bf", "--graph", graph_path, "--s", "0")
    assert code == 0
    bf_vals = {}
    for line in bf_out.splitlines():
        if line.startswith("#"):
            continue
        u, v, h, d = line.split("\t")
        bf_vals[(int(u), int(v), int(h))] = d

    oracle_path = str(tmp_path / "g.ahdo")
    code, _, _ = run_cli(
        capsys, "oracle", "build", "--kind", "mn", "--graph", graph_path,
        "--out", oracle_path, "--C", "8",
    )
    assert code == 0
    queries = tmp_path / "q.txt"
    queries.write_text("0 3 2\n0 7 9\n0 0 1\n")
    code, out, _ = run_cli(
        capsys, "oracle", "query", "--oracle", oracle_path, "--queries", str(queries)
    )
    assert code == 0
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        u, v, h, d = line.split("\t")
        assert bf_vals[(int(u), int(v), int(h))] == d


def test_format_duality(capsys, f1_path):
    _, tsv, _ = run_cli(capsys, "single-pair", "--graph", f1_path, "--s", "0", "--t", "1")
    _, jsl, _ = run_cli(
        capsys, "--format", "json-lines", "single-pair", "--graph", f1_path, "--s", "0", "--t", "1"
    )
    tsv_records = [line.split("\t") for line in tsv.splitlines()]
    json_records = [json.loads(line) for line in jsl.splitlines()]
    assert [(int(h), d) for h, d in tsv_records] == [
        (rec["h"], str(rec["d"])) for rec in json_records
    ]


def test_parser_is_built_once_per_process():
    from allhops.cli import _build_parser

    assert _build_parser() is _build_parser()


def _help(argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    return stop.value.code


@pytest.mark.parametrize("before, cmd, after, code, out, err", [
    (["--format", "json-lines"], "single-pair", ["--max-hop", "1"], 0, '{"h": 1, "d": 10}\n', ""),
    ([], "single-pair", ["--strategy", "polynomial", "--C", "2"], 0, "1\t10\n2\t2\n", ""),
    ([], "single-pair", ["--max-hop", "0"], 1, "", "allhops: --max-hop must be >= 1\n"),
    ([], "single-pair", ["--s", "x"], 1, "", "allhops: argument --s: invalid int value: 'x'\n"),
    ([], "frobnicate", [], 1, "", None),
])
def test_one_call_carries_nothing_to_the_next(capsys, f1_path, before, cmd, after, code, out,
                                              err):
    """main parses every call with the one cached parser into a fresh
    namespace: after a call with --format, other flags or a usage error
    (exit 1), a call with none of them prints the default tsv."""
    argv = ["--graph", f1_path, "--s", "0", "--t", "2"]
    got = run_cli(capsys, *before, cmd, *argv, *after)
    assert got[:2] == (code, out)
    assert got[2] == err if err is not None else got[2].startswith("allhops: ")
    assert run_cli(capsys, "single-pair", *argv) == (0, "1\t10\n2\t2\n", "")


def test_single_pair_strategies_print_the_same_rows_where_the_ladder_convolves(
        capsys, tmp_path, monkeypatch):
    """--strategy picks how a convolving ladder level convolves.  On a
    10-vertex chain DAG with 64 heavier copies of each edge, at C = 1 and
    k = 3, level 3 splits at a 5-vertex sample and convolves: `naive` and
    `polynomial` print the same rows, the chain's distances."""
    from allhops import solvers

    strategies = []
    conv = solvers._conv

    def conv_spy(*args):
        strategies.append(args[-1])
        return conv(*args)

    monkeypatch.setattr(solvers, "_conv", conv_spy)
    chain = [(i, i + 1, -1) for i in range(9)] + [(0, 5, 1), (2, 9, 3)]
    edges = chain + [(u, v, w + 1) for u, v, w in chain] * 64
    p = tmp_path / "multi.el"
    p.write_text(f"10 {len(edges)}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges))
    argv = ["single-pair", "--graph", str(p), "--s", "0", "--t", "9", "--k", "3", "--C", "1",
            "--seed", "1", "--strategy"]
    naive = run_cli(capsys, *argv, "naive")
    poly = run_cli(capsys, *argv, "polynomial")
    assert naive[0] == 0 and naive == poly
    assert naive[1] == "1\tinf\n2\tinf\n3\t1\n4\t1\n5\t-3\n6\t-3\n7\t-3\n8\t-3\n9\t-9\n"
    assert "naive" in strategies and "polynomial" in strategies


def test_help_then_a_call(capsys, f1_path):
    """--help prints usage and raises SystemExit(0), as argparse does; the
    calls after it, and a second --help, behave as in a fresh process."""
    for argv in (["--help"], ["oracle", "build", "--help"]):
        assert _help(argv) == 0
        help_text = capsys.readouterr().out
        assert help_text.startswith("usage: allhops")
        assert run_cli(capsys, "check", "--graph", f1_path) == (0, "no negative cycle\n", "")
        assert _help(argv) == 0
        assert capsys.readouterr().out == help_text


def test_infinity_rendering(capsys, tmp_path):
    p = tmp_path / "iso.el"
    p.write_text("2 0\n")
    _, tsv, _ = run_cli(capsys, "single-pair", "--graph", str(p), "--s", "0", "--t", "1")
    assert tsv == "1\tinf\n"
    _, jsl, _ = run_cli(
        capsys, "--format", "json-lines", "single-pair", "--graph", str(p), "--s", "0", "--t", "1"
    )
    assert json.loads(jsl)["d"] == "inf"


def test_byte_determinism(capsys, tmp_path):
    graph_path = str(tmp_path / "g.el")
    run_cli(capsys, "gen", "--n", "12", "--m", "30", "--M", "5", "--seed", "9",
            "--require-no-neg-cycle", "--out", graph_path)
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "all-pairs", "--graph", graph_path, "--seed", "4")
        outs.add(out)
    assert len(outs) == 1


def test_all_pairs_matches_bf_rows(capsys, tmp_path, f1_path):
    _, ap_out, _ = run_cli(capsys, "all-pairs", "--graph", f1_path)
    _, bf_out, _ = run_cli(capsys, "bf", "--graph", f1_path, "--s", "0")
    ap_rows = {tuple(l.split("\t")) for l in ap_out.splitlines() if not l.startswith("#")}
    bf_rows = {tuple(l.split("\t")) for l in bf_out.splitlines() if not l.startswith("#")}
    assert bf_rows <= ap_rows


def test_single_source_paranoid(capsys, f1_path):
    code, out, _ = run_cli(
        capsys, "single-source", "--graph", f1_path, "--s", "0", "--paranoid"
    )
    assert code == 0
    assert "0\t2\t2\t2" in out.splitlines()


@pytest.mark.parametrize("cmd,solver", [
    (["single-pair", "--s", "0", "--t", "2"], "single_pair_allhops"),
    (["single-source", "--s", "0"], "single_source_allhops"),
    (["all-pairs"], "all_pairs_allhops"),
])
def test_paranoid_reruns_at_twice_c(capsys, monkeypatch, f1_path, cmd, solver):
    """--paranoid solves again with twice --C and the same seed, and a
    re-run that disagrees is a verification failure (exit 3)."""
    import dataclasses

    import allhops.cli

    real, plans = getattr(allhops.cli, solver), []

    def spy(*args):
        plan = next(a for a in args if isinstance(a, SamplePlan))
        plans.append((plan.C, plan.seed))
        result = real(*args)
        if plan.C == 6.0 and disagree:
            return result + 1 if isinstance(result, np.ndarray) else dataclasses.replace(
                result, le=result.le + 1)
        return result

    monkeypatch.setattr(allhops.cli, solver, spy)
    argv = [*cmd[:1], "--graph", f1_path, *cmd[1:], "--C", "3", "--seed", "7", "--paranoid"]
    disagree = False
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out and plans == [(3.0, 7), (6.0, 7)]
    disagree = True
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "") and err == "allhops: paranoid re-run with doubled C disagrees\n"


@pytest.mark.parametrize("cmd", [
    ["single-pair", "--s", "0", "--t", "2"], ["single-source", "--s", "0"], ["all-pairs"],
])
def test_paranoid_at_a_huge_c(capsys, f1_path, cmd):
    """Twice a finite --C above about 9e307 overflows to +inf, which no plan
    takes; --paranoid re-runs at the largest finite float instead, and
    prints what the same call without --paranoid prints."""
    argv = [*cmd[:1], "--graph", f1_path, *cmd[1:], "--C", "1e308"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and plain
    assert run_cli(capsys, *argv, "--paranoid") == (0, plain, "")


def test_max_hop(capsys, f1_path):
    _, out, _ = run_cli(capsys, "single-pair", "--graph", f1_path, "--s", "0", "--t", "2",
                        "--max-hop", "1")
    assert out == "1\t10\n"


def test_gadget_verify_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gadget", "tree", "--l", "3", "--verify")
    assert code == 0 and "verify ok" in out

    tri = tmp_path / "tri.txt"
    tri.write_text("2 2 2\nij 0 1\njk 1 0\nki 0 0\n")
    code, out, _ = run_cli(capsys, "gadget", "triangle", "--input", str(tri), "--verify")
    assert code == 0 and "triangle=yes" in out

    mpp = tmp_path / "mpp.txt"
    mpp.write_text("4 2\n1 2\n2 1\n1 1\n2 2\n1 2 1 2\n2 1 2 1\n")
    code, out, _ = run_cli(capsys, "gadget", "mpp", "--input", str(mpp), "--verify")
    assert code == 0 and "verify ok" in out

    conv = tmp_path / "conv.txt"
    conv.write_text("2\n1 2\n3 4\n5 6\n7 8\n")
    code, out, _ = run_cli(capsys, "gadget", "conv", "--input", str(conv), "--verify")
    assert code == 0 and "verify ok" in out


@pytest.mark.parametrize("gadget,text", [
    ("mpp", ""), ("conv", ""), ("triangle", ""), ("mpp", "# only a comment\n"),
    ("mpp", "4 x\n"), ("mpp", "4\n"), ("conv", "two\n"), ("conv", "2 2\n"), ("triangle", "a a a\n"),
    ("mpp", "4 0\n"), ("mpp", "4 -2\n"), ("triangle", "2 2 2\nij 0 a\n"),
    ("triangle", "2 2 2\nij 0 5\n"), ("triangle", "2 2 2\nki -1 0\n"), ("triangle", "0 0 0\n"),
    ("mpp", "6 3\n" + "1 1\n" * 6 + "1 1 1 1 1 1\n" * 2),
    ("mpp", "2 2\n1\n3\n1 1\n"), ("conv", "0\n"), ("conv", "-2\n"),
])
def test_gadget_bad_header_is_input_error(capsys, tmp_path, gadget, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    code, _, err = run_cli(capsys, "gadget", gadget, "--input", str(path))
    assert code == 1 and err.startswith("allhops: ")


@pytest.mark.parametrize("gadget,text", [
    ("conv", "99999999999999999999\n"),
    ("conv", "1\n99999999999999999999\n1\n"),
    ("mpp", "4 99999999999999999999\n"),
])
def test_gadget_entry_beyond_int64_is_input_error(capsys, tmp_path, gadget, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "gadget", gadget, "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("allhops: ") and err.count("\n") == 1


@pytest.mark.parametrize("what", ["graph", "queries", "triangle"])
def test_undecodable_input_is_input_error(capsys, tmp_path, f1_path, what):
    """A byte that does not decode is an input error (exit 1) in every file
    the CLI reads, also where it comes after valid lines."""
    bad = tmp_path / "bad.txt"
    if what == "graph":
        bad.write_bytes(F1.encode() + b"# caf\xe9\n")
        argv = ["check", "--graph", str(bad)]
    elif what == "queries":
        snap = str(tmp_path / "f1.ahdo")
        assert run_cli(capsys, "oracle", "build", "--kind", "bf", "--graph", f1_path,
                       "--out", snap)[0] == 0
        bad.write_bytes(b"0 2 1\n0 1 \xff\n")
        argv = ["oracle", "query", "--oracle", snap, "--queries", str(bad)]
    else:
        bad.write_bytes(b"2 2 2\nij 0 1\njk \xff 0\n")
        argv = ["gadget", "triangle", "--input", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("allhops: ")


@pytest.mark.parametrize("kind", ["bf", "mn"])
@pytest.mark.parametrize("text, code, message", [
    ("0 1 1\n0 1 9\nx y z\n", 2, "hop budget 9 outside [1, 2]"),
    ("0 1 1\nx 1 1\n0 1 9\n", 1, "line 2: non-integer field"),
    ("0 1 1\n# 1 2 3\n\n0 1\n0 1 0\n", 1, "line 4: expected `u v h`"),
    ("0 1 99999999999999999999\n5 1 1\n", 2, "hop budget 99999999999999999999 outside"),
    ("0 1 1\n5 1 99999999999999999999\n", 2, "query vertex out of range"),
])
def test_oracle_query_reports_the_first_bad_line(capsys, tmp_path, f1_path, kind, text, code,
                                                 message):
    """The whole query file is answered at once, yet the error is the first
    bad line's, whether it does not parse or asks what `query` refuses,
    also for a field past int64."""
    snap, queries = str(tmp_path / "f1.ahdo"), tmp_path / "q.txt"
    assert run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", f1_path,
                   "--out", snap)[0] == 0
    queries.write_text(text)
    got = run_cli(capsys, "oracle", "query", "--oracle", snap, "--queries", str(queries))
    assert got[:2] == (code, "") and got[2].startswith(f"allhops: {message}")
    assert got[2].count("\n") == 1


def test_allocation_failure_is_precondition_error(capsys, monkeypatch, f1_path):
    """A table too large to allocate is exit 2 with one stderr line, as
    numpy raises it for a graph whose header is `100000 0`."""
    import allhops.cli

    def no_memory(g, plan):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setattr(allhops.cli, "all_pairs_allhops", no_memory)
    code, out, err = run_cli(capsys, "all-pairs", "--graph", f1_path)
    assert (code, out) == (2, "") and err.startswith("allhops: ") and err.count("\n") == 1


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_gadget_tree_depth_below_one_is_usage_error(capsys, depth):
    code, out, err = run_cli(capsys, "gadget", "tree", "--l", depth)
    assert (code, out) == (1, "") and err.startswith("allhops: ")


@pytest.mark.parametrize("kind", ["powers", "bf"])
@pytest.mark.parametrize("max_hop", ["0", "-1"])
def test_oracle_build_max_hop_below_one_is_usage_error(capsys, tmp_path, f1_path, kind, max_hop):
    snap = tmp_path / "f1.ahdo"
    code, out, err = run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", f1_path,
                             "--max-hop", max_hop, "--out", str(snap))
    assert (code, out) == (1, "") and err.startswith("allhops: --max-hop")
    assert not snap.exists()


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_build_every_kind_matches_the_library(capsys, tmp_path, kind):
    """Each --kind writes the snapshot its library builder makes from the
    same graph, plan, --max-hop and --kstar."""
    graph = tmp_path / "g.el"
    graph.write_text(SMALL.replace("4 6", "4 6 M", 1))
    snap = tmp_path / "g.ahdo"
    code, out, _ = run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", str(graph),
                           "--C", "2", "--seed", "3", "--max-hop", "2", "--kstar", "1",
                           "--out", str(snap))
    assert (code, out) == (0, "")
    g, plan = parse_graph(graph.read_bytes()), SamplePlan(C=2.0, seed=3)
    want = {
        "powers": lambda: build_oracle_powers(g, 2),
        "bf": lambda: build_oracle_bf(g, 2),
        "mn": lambda: build_oracle_mn(g, plan),
        "mpp": lambda: build_oracle_mpp(g, plan),
        "bounded": lambda: build_oracle_bounded(g, plan, 1),
    }[kind]()
    assert snap.read_bytes() == save_oracle(want)


@pytest.mark.parametrize("graph, argv, code, message", [
    (F3, ["--kind", "mn"], 2, "graph has a negative cycle"),
    (F1, ["--kind", "mpp", "--max-hop", "0"], 1, "--max-hop must be >= 1"),
    (F1, ["--kind", "bf", "--mem-cap", "8"], 2, "full table needs"),
    (F1_M, ["--kind", "mpp", "--seed", str(2**70)], 2, f"seed {2**70} outside [0, 2**64)"),
    (F1_M, ["--kind", "bounded", "--kstar", str(2**63)], 2, "crossover kstar"),
], ids=["negative-cycle", "max-hop-0", "mem-cap", "seed-past-64-bits", "kstar-past-int64"])
def test_failed_oracle_build_leaves_out_untouched(capsys, tmp_path, graph, argv, code, message):
    """--out is opened only once the oracle is built, so a build that fails,
    on its input, a flag, its memory cap or a seed or crossover that the
    snapshot header cannot hold, writes nothing there: one stderr line."""
    path, snap = tmp_path / "g.el", tmp_path / "g.ahdo"
    path.write_text(graph)
    snap.write_bytes(b"an earlier snapshot")
    got = run_cli(capsys, "oracle", "build", "--graph", str(path), "--out", str(snap), *argv)
    assert got[:2] == (code, "") and got[2].startswith(f"allhops: {message}")
    assert got[2].count("\n") == 1
    assert snap.read_bytes() == b"an earlier snapshot"


@pytest.mark.parametrize("kind", ["mpp", "bounded"])
def test_oracle_build_takes_every_64_bit_seed(capsys, tmp_path, kind):
    """The largest seed the snapshot header holds builds and loads."""
    graph, snap = tmp_path / "g.el", tmp_path / "g.ahdo"
    graph.write_text(F1_M)
    seed = 2**64 - 1
    assert run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", str(graph),
                   "--seed", str(seed), "--out", str(snap)) == (0, "", "")
    plan = SamplePlan(seed=seed)
    built = (build_oracle_mpp if kind == "mpp" else build_oracle_bounded)(parse_graph(F1_M), plan)
    assert snap.read_bytes() == save_oracle(built)
    assert load_oracle(snap.read_bytes()).seed == seed


@pytest.mark.parametrize("C", ["nan", "inf", "-inf", "0.5"])
def test_c_outside_its_range_is_refused(capsys, tmp_path, f1_path, C):
    """A NaN or infinite --C is refused as one below 1 is, with the
    schedule's own message, not the float conversion's."""
    out = tmp_path / "o.ahdo"
    for argv in (["all-pairs", "--graph", f1_path],
                 ["oracle", "build", "--kind", "mn", "--graph", f1_path, "--out", str(out)]):
        got = run_cli(capsys, *argv, f"--C={C}")
        assert got == (2, "", "allhops: oversampling constant C must be finite and >= 1\n")
    assert not out.exists()


def test_huge_c_samples_all_of_v(capsys, tmp_path):
    """A finite C so large that C·n·ln n overflows samples every vertex, as
    the schedule's min(n, ·) says: the tables are apah_brute's."""
    graph = tmp_path / "g.el"
    graph.write_text(_large_graph())
    g = parse_graph(graph.read_bytes())
    brute = apah_brute(g, with_exact=False).le
    code, out, _ = run_cli(capsys, "all-pairs", "--graph", str(graph), "--C", "1e308")
    rows = np.array([line.split("\t") for line in out.splitlines()[1:]], dtype=float)
    u, v, h = rows[:, :3].astype(np.int64).T
    assert code == 0 and len(rows) == g.n * g.n * (g.n - 1)
    assert np.array_equal(rows[:, 3], brute[h, u, v])


@pytest.mark.parametrize("kind", ["powers", "bf"])
def test_full_table_query_past_horizon(capsys, tmp_path, f1_path, kind):
    snap = str(tmp_path / "f1.ahdo")
    assert run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", f1_path,
                   "--max-hop", "1", "--out", snap)[0] == 0
    queries = tmp_path / "q.txt"
    queries.write_text("0 2 2\n")
    code, out, err = run_cli(capsys, "oracle", "query", "--oracle", snap, "--queries", str(queries))
    assert (code, out) == (2, "") and err.startswith("allhops: hop budget 2")
    # a cut at or past the stabilization hop keeps answering every h <= n-1
    graph = tmp_path / "path.el"
    graph.write_text("5 2\n0 1 1\n1 2 1\n")
    assert run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", str(graph),
                   "--max-hop", "3", "--out", snap)[0] == 0
    queries.write_text("0 2 4\n")
    code, out, _ = run_cli(capsys, "oracle", "query", "--oracle", snap, "--queries", str(queries))
    assert code == 0 and out.splitlines()[-1] == "0\t2\t4\t2"


def test_oracle_query_bad_snapshot_is_input_error(capsys, tmp_path, f1_path):
    snap = tmp_path / "f1.ahdo"
    assert run_cli(capsys, "oracle", "build", "--kind", "mpp", "--graph", f1_path,
                   "--out", str(snap))[0] == 0
    blob = snap.read_bytes()
    queries = tmp_path / "q.txt"
    queries.write_text("0 2 1\n")
    for name, data in (("text", F1.encode()), ("truncated", blob[:-3]),
                       ("kind", blob[:5] + b"\x09" + blob[6:])):
        bad = tmp_path / name
        bad.write_bytes(data)
        code, out, err = run_cli(capsys, "oracle", "query", "--oracle", str(bad),
                                 "--queries", str(queries))
        assert (code, out) == (1, "") and err.startswith("allhops: "), name


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_query_reads_an_ahdo1_snapshot(capsys, tmp_path, kind):
    """`oracle query` on an AHDO1 fixture exits 0 and prints what it prints
    on the AHDO2 file that `oracle build` writes from the same graph and
    plan, for every query of the fixture's graph."""
    g = gen_random_graph(24, 72, 4, 2, require_no_neg_cycle=True)
    graph, new, old = tmp_path / "g.el", tmp_path / "g.ahdo", tmp_path / "g.ahdo1"
    graph.write_text(render_graph(g))
    old.write_bytes(fixture(f"golden-{kind}"))
    assert run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", str(graph),
                   "--C", "1", "--seed", "5", "--out", str(new)) == (0, "", "")
    assert new.read_bytes()[:5] == b"AHDO2"
    queries = tmp_path / "q.txt"
    queries.write_text("".join(f"{u} {v} {h}\n" for u in range(24) for v in range(24)
                               for h in range(1, 24)))
    outs = [run_cli(capsys, "oracle", "query", "--oracle", str(path), "--queries", str(queries))
            for path in (old, new)]
    assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][2] == ""
    assert len(outs[0][1].splitlines()) == 1 + 24 * 24 * 23  # a header line


def test_gadget_emits_graph_and_names(capsys, tmp_path):
    out_path = tmp_path / "tree.el"
    names_path = tmp_path / "tree.names"
    code, _, _ = run_cli(capsys, "gadget", "tree", "--l", "2", "--out", str(out_path),
                         "--names-out", str(names_path))
    assert code == 0
    from allhops import parse_graph

    g = parse_graph(out_path.read_text())
    names = dict(line.split() for line in names_path.read_text().splitlines())
    assert "v" in names and g.n > 4


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "allhops.cli", "gen", "--n", "3", "--m", "2", "--M", "1",
         "--seed", "0"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0 and out.stdout.startswith("3 2")


def test_selftest_runs_green(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("selftest")]
    assert lines and all(l.endswith("ok") for l in lines)


def _view(addr, dtype, *shape):
    """The array of `shape` at an address a C entry point receives."""
    ctype = np.ctypeslib.as_ctypes_type(np.dtype(dtype))
    return np.ctypeslib.as_array(ctypes.cast(addr, ctypes.POINTER(ctype)), shape)


def _edges(tails, ws, heads, starts, nh, m):
    return (_view(tails, np.int64, m), _view(ws, np.float64, m), _view(heads, np.int64, nh),
            _view(starts, np.int64, nh))


@functools.lru_cache(maxsize=16)
def _level_views(levels: bytes, n: int) -> dict:
    """The fields of `_scanned_levels` for a level array's bytes (the
    lookup, then the level columns): views at its addresses, so they hold
    whatever the oracle there holds.  A skipped level may have no tables."""
    top, k_top, lookup_to, *columns = np.frombuffer(levels, np.int64).tolist()
    fwd, bwd, ks, sizes, tf, tb, skip = np.reshape(columns, (7, -1)).tolist()

    def tables(addrs):
        return [_view(a, np.float64, k + 1, s, n) if s and a else np.empty((k + 1, 0, n))
                for a, k, s in zip(addrs, ks, sizes)]

    le = _view(top, np.float64, k_top + 1, n, n) if top else None
    return {"le": le, "lookup_to": lookup_to, "ks": ks, "samples": [np.empty(s) for s in sizes],
            "tf": tf, "tb": tb, "skip": skip, "fwd": tables(fwd), "bwd": tables(bwd)}


def _scanned_levels(lv, L, n, lower_sampled=False):
    """The levels a compiled scan receives, as the LevelOracle fields that
    its Python scan reads; with `lower_sampled`, the forward tables of the
    levels that sample part of V are copies one lower."""
    from allhops.oracles import WorkCounters

    fields = dict(_level_views(ctypes.string_at(lv, 8 * (3 + 7 * L)), n))
    if lower_sampled:
        fields["fwd"] = [t - 1 if 0 < t.shape[1] < n else t for t in fields["fwd"]]
    return types.SimpleNamespace(**fields, counters=WorkCounters())


def _scan_entry_points(lower_sampled=False):
    """`level_scan` and `level_scan_many` on the Python scan."""
    from allhops.oracles import LevelOracle

    def level_scan(lv, L, n, adds, u, v, h):
        levels = _scanned_levels(lv, L, n, lower_sampled)
        best = LevelOracle._scan(levels, u, v, h)
        ctypes.c_int64.from_address(adds).value += levels.counters.adds
        return best

    def level_scan_many(lv, L, n, adds, u, v, h, count, out):
        u, v, h = (_view(a, np.int64, count) for a in (u, v, h))
        _view(out, np.float64, count)[:] = [
            level_scan(lv, L, n, adds, a, b, k) for a, b, k in zip(u, v, h)
        ]

    return {"level_scan": level_scan, "level_scan_many": level_scan_many}


def _library(**entry_points):
    """A stand-in for the compiled library: each entry point takes the C
    function's arguments (addresses and integers) and runs the numpy or
    Python reference, unless replaced."""
    from allhops import minplus, records

    def conv_window(a, b, out, la, R, K, lb, C, lo, hi):
        a, b = _view(a, np.float64, la, R, K), _view(b, np.float64, lb, K, C)
        _view(out, np.float64, hi - lo + 1, R, C)[:] = minplus.conv_window_numpy(a, b, lo, hi)

    def relax(rows, out, R, n, *edges):
        minplus.relax_numpy(_view(rows, np.float64, R, n), _edges(*edges),
                            _view(out, np.float64, R, n))

    def relax_hops(out, L, R, n, k0, exact, *edges):
        minplus.relax_hops_numpy(_view(out, np.float64, L, R, n), k0, _edges(*edges),
                                 exact=bool(exact))

    def render_records(buf, keys, ld, nk, d, lo, hi, lits):
        *pieces, inf, _ = lits.decode("ascii").split("\0")
        line = "{}".join(p.replace("{", "{{").replace("}", "}}") for p in pieces)
        text = records.render_python(line, inf, _view(keys, np.int64, nk, ld),
                                     _view(d, np.float64, ld), lo, hi).encode("ascii")
        ctypes.memmove(buf, text, len(text))
        return len(text)

    return types.SimpleNamespace(**{
        "conv_window": conv_window, "relax": relax, "relax_hops": relax_hops,
        "render_records": render_records, **_scan_entry_points(),
        "pack_cells": _cell_entry_point(values.to_int64, np.float64, np.int64),
        "unpack_cells": _cell_entry_point(values.from_int64, np.int64, np.float64),
        **entry_points,
    })


def _cell_entry_point(body, src_dtype, dst_dtype, off_by=0):
    """`pack_cells` or `unpack_cells` on its numpy body: 0, or 1 + the
    index of the cell it refuses; with `off_by`, every written cell that is
    not +inf is that much higher."""
    def convert(src, dst, count):
        dst = _view(dst, dst_dtype, count)
        try:
            body(_view(src, src_dtype, count), dst)
        except values.SaturationError as e:
            return 1 + e.index
        dst[np.isfinite(dst) & (dst != values.INT64_INF)] += off_by
        return 0

    return convert


def test_selftest_fails_on_a_wrong_kernel(capsys, monkeypatch):
    """A compiled kernel that disagrees with the numpy reference fails the
    kernel suite: this one is off by one only on windows that start past
    hop 0, which the polynomial strategy never asks for, and the solvers
    and oracles ask for only where they split through a sample.  The other
    suites fail where their case over V minus one vertex reads such a
    window: with the default seed, the oracle suites at n = 10, 14, 18 and
    the solver suites at n = 14, 18, so 6 suites in all."""
    from allhops import _native, minplus

    def wrong_past_hop_0(a, b, out, la, R, K, lb, C, lo, hi):
        a, b = _view(a, np.float64, la, R, K), _view(b, np.float64, lb, K, C)
        out = _view(out, np.float64, hi - lo + 1, R, C)
        out[:] = minplus.conv_window_numpy(a, b, lo, hi)
        if lo > 0:
            out[out < np.inf] += 1

    monkeypatch.setattr(_native, "_BACKEND", "c")
    monkeypatch.setattr(_native, "_lib", _library(conv_window=wrong_past_hop_0))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 3 and "selftest suite(s) failed" in err
    assert "selftest kernel equivalence: FAILED" in out
    assert out.count("FAILED") == 6


def _relax_off_by(delta):
    def relax(rows, out, R, n, *edges):
        _library().relax(rows, out, R, n, *edges)
        out = _view(out, np.float64, R, n)
        out[out < np.inf] += delta

    return relax


def _relax_hops_off_by(delta):
    def relax_hops(out, L, R, n, k0, exact, *edges):
        _library().relax_hops(out, L, R, n, k0, exact, *edges)
        later = _view(out, np.float64, L, R * n)[k0 + 1 :]
        later[later < np.inf] += delta

    return relax_hops


@pytest.mark.parametrize(
    "entry_point",
    [{"relax": _relax_off_by(-1)}, {"relax_hops": _relax_hops_off_by(-1)},
     {"relax": _relax_off_by(1)}, {"relax_hops": _relax_hops_off_by(1)}],
    ids=["relax", "relax_hops", "relax-too-high", "relax_hops-too-high"],
)
def test_selftest_fails_on_a_wrong_relax(capsys, monkeypatch, entry_point):
    """A compiled Bellman-Ford hop that is one off on its finite entries
    fails the kernel suite and exits 3.  One too high makes the oracle
    tables rise along the hop axis, which `LevelOracle` refuses with a
    ValueError; the oracle suite counts that as its own failure, so it is
    not a precondition violation (exit 2)."""
    from allhops import _native

    monkeypatch.setattr(_native, "_BACKEND", "c")
    monkeypatch.setattr(_native, "_lib", _library(**entry_point))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 3 and "selftest suite(s) failed" in err
    assert "selftest kernel equivalence: FAILED" in out


@pytest.mark.parametrize("entry_point", [
    {"pack_cells": _cell_entry_point(values.to_int64, np.float64, np.int64, off_by=1)},
    {"unpack_cells": _cell_entry_point(values.from_int64, np.int64, np.float64, off_by=-1)},
], ids=["pack_cells", "unpack_cells"])
def test_selftest_fails_on_a_wrong_cell_conversion(capsys, monkeypatch, entry_point):
    """A compiled snapshot cell conversion one off on its finite cells fails
    the kernel suite, and only it: the other suites write no snapshot."""
    from allhops import _native

    monkeypatch.setattr(_native, "_BACKEND", "c")
    monkeypatch.setattr(_native, "_lib", _library(**entry_point))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 3 and "selftest suite(s) failed" in err
    assert "selftest kernel equivalence: FAILED" in out
    assert out.count("FAILED") == 1


def _render_one_digit_off(buf, keys, ld, nk, d, lo, hi, lits):
    """The right records, but for their first digit, one higher (9 to 0)."""
    size = _library().render_records(buf, keys, ld, nk, d, lo, hi, lits)
    text = (ctypes.c_char * size).from_address(buf)
    i = next((i for i in range(size) if text[i].isdigit()), None)
    if i is not None:
        text[i] = b"%d" % ((int(text[i]) + 1) % 10)
    return size


def test_selftest_fails_on_a_wrong_renderer(capsys, monkeypatch):
    """A compiled record renderer one digit off fails the kernel suite, and
    only it, since the other suites render no records."""
    from allhops import _native

    monkeypatch.setattr(_native, "_BACKEND", "c")
    monkeypatch.setattr(_native, "_lib", _library(render_records=_render_one_digit_off))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 3 and "selftest suite(s) failed" in err
    assert "selftest kernel equivalence: FAILED" in out
    assert out.count("FAILED") == 1


def test_selftest_fails_on_a_wrong_scan(capsys, monkeypatch):
    """A compiled level scan one too low on the levels that sample part of
    V fails the kernel suite and the four oracle suites.  At the oracle
    suites' C = 4 every such level repeats the one below, so their queries
    skip it; their case over V minus one vertex has such levels that do
    not.  The solver suites scan no oracle."""
    from allhops import _native

    monkeypatch.setattr(_native, "_BACKEND", "c")
    monkeypatch.setattr(_native, "_lib", _library(**_scan_entry_points(lower_sampled=True)))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 3 and "selftest suite(s) failed" in err
    assert "selftest kernel equivalence: FAILED" in out
    assert out.count("FAILED") == 5
    assert all(f"selftest oracles n={n}: FAILED" in out for n in (6, 10, 14, 18))


# Record output (`u v h d` tables, oracle answers, `h d` pairs) pinned byte
# for byte.  In SMALL, distances go negative, vertex 3 reaches nothing, and
# d(0, 3) last improves at h = n - 1; it is queried with --max-hop above
# n - 1.  The large graph's tables span many render chunks.
SMALL = "4 6\n0 1 3\n1 2 -2\n0 2 4\n2 0 1\n2 3 5\n0 3 9\n"
SMALL_QUERIES = "0 2 1\n0 2 2\n1 2 3\n0 3 3\n3 0 2\n3 3 1\n2 1 3\n"


def _large_graph(n: int = 20) -> str:
    """Weights w + p(u) - p(v) with w >= 0: negative edges but no negative
    cycle.  No edge enters n - 1, so that column is unreachable."""
    edges = []
    for u in range(n):
        for k in (1, 3, 7):
            v = (u * k + 1) % (n - 1)
            if v != u:
                edges.append((u, v, (u * k) % 5 + u % 4 - v % 4))
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges)


def _large_queries(n: int = 20) -> str:
    return "".join(f"{i % n} {(7 * i + 3) % n} {i % (n - 1) + 1}\n" for i in range(300))


GOLDEN_SHA256 = {
    ("small", "all-pairs", "tsv"): "f8e9ad643e0b518909578b3332f2664eb70423c0f8736195516ce7c7e4119434",
    ("small", "all-pairs", "json-lines"): "9b4b776083b25a6dd01974dfbc1dfd763610cfc5541c81481d266cbb3ee762b6",
    ("small", "single-source", "tsv"): "0cd36c4ea6e34b1052810e692e64d83a5f4b040883d9932e2b080f6829d42d67",
    ("small", "single-source", "json-lines"): "6cd4993501d76ea1f4e00ae3660007ac955863c3bc7debcc2d2533114a2126cf",
    ("small", "bf", "tsv"): "0cd36c4ea6e34b1052810e692e64d83a5f4b040883d9932e2b080f6829d42d67",
    ("small", "bf", "json-lines"): "6cd4993501d76ea1f4e00ae3660007ac955863c3bc7debcc2d2533114a2126cf",
    ("small", "single-pair", "tsv"): "0fb3ef3997e1e2770087232da7070b895ed67b448717b00df98dc6aa8bd6b324",
    ("small", "single-pair", "json-lines"): "23043ef5f16ea2444231338cf18e760219f82a5793ae029f9423b55c930cf139",
    ("small", "oracle-bf", "tsv"): "7a412384855f1c83f38d69dc70e6d975c45fdbd33e4431165ed04421883e2499",
    ("small", "oracle-bf", "json-lines"): "9d5896a20986d33a4b6d5d8d48f5a98ba7e8739115adca98ae600206aedaa71c",
    ("small", "oracle-mn", "tsv"): "7a412384855f1c83f38d69dc70e6d975c45fdbd33e4431165ed04421883e2499",
    ("small", "oracle-mn", "json-lines"): "9d5896a20986d33a4b6d5d8d48f5a98ba7e8739115adca98ae600206aedaa71c",
    ("large", "all-pairs", "tsv"): "dbae9b97d74ecd26e931664a8f4ccc925e3b5bd89075400b6895a263dedef0bd",
    ("large", "all-pairs", "json-lines"): "64af7688e042bde6086abf29ceb2162c33b9d8d25501ee15d1ad089c7c0eb7ef",
    ("large", "single-source", "tsv"): "72a2d7d7754894f7431fdc3ffcc3cd0a285d61f71f98bc3956c907487320fdc0",
    ("large", "single-source", "json-lines"): "7217ca85e557132cadb55554f9afbeb3661523731a750c4a0d97caf85ed49337",
    ("large", "bf", "tsv"): "72a2d7d7754894f7431fdc3ffcc3cd0a285d61f71f98bc3956c907487320fdc0",
    ("large", "bf", "json-lines"): "7217ca85e557132cadb55554f9afbeb3661523731a750c4a0d97caf85ed49337",
    ("large", "single-pair", "tsv"): "ec1c1ffff5b6cff2895c09aad87bc920a41c3577290064390c5231a06905925e",
    ("large", "single-pair", "json-lines"): "cd552818ebab6e1c700c29565d4c74864472f137878702fb21c7673bfe46697f",
    ("large", "oracle-bf", "tsv"): "75a55c59311e4f16e91543816b92e3a50c1bd903cda9bd09a12b477d633ab2ce",
    ("large", "oracle-bf", "json-lines"): "fc394878f985c782b5b553efcbf61f53569596e8865a5d2ae669fe6b7e1bd9f9",
    ("large", "oracle-mn", "tsv"): "75a55c59311e4f16e91543816b92e3a50c1bd903cda9bd09a12b477d633ab2ce",
    ("large", "oracle-mn", "json-lines"): "fc394878f985c782b5b553efcbf61f53569596e8865a5d2ae669fe6b7e1bd9f9",
}


def _record_outputs(capsys, tmp_path, graph_text, queries_text, extra):
    graph = tmp_path / "g.el"
    graph.write_text(graph_text)
    queries = tmp_path / "q.txt"
    queries.write_text(queries_text)
    oracle = str(tmp_path / "g.ahdo")
    for kind in ("bf", "mn"):
        code, _, _ = run_cli(capsys, "oracle", "build", "--kind", kind, "--graph", str(graph),
                             "--out", f"{oracle}.{kind}")
        assert code == 0
    commands = {
        "all-pairs": ["all-pairs", "--graph", str(graph), *extra],
        "single-source": ["single-source", "--graph", str(graph), "--s", "0", *extra],
        "bf": ["bf", "--graph", str(graph), "--s", "0", *extra],
        "single-pair": ["single-pair", "--graph", str(graph), "--s", "0", "--t", "3", *extra],
        "oracle-bf": ["oracle", "query", "--oracle", f"{oracle}.bf", "--queries", str(queries)],
        "oracle-mn": ["oracle", "query", "--oracle", f"{oracle}.mn", "--queries", str(queries)],
    }
    outs = {}
    for name, argv in commands.items():
        for fmt in ("tsv", "json-lines"):
            code, out, _ = run_cli(capsys, "--format", fmt, *argv)
            assert code == 0
            outs[name, fmt] = out
    return outs


@pytest.fixture
def small_outputs(capsys, tmp_path):
    return _record_outputs(capsys, tmp_path, SMALL, SMALL_QUERIES, ["--max-hop", "5"])


@pytest.fixture
def large_outputs(capsys, tmp_path):
    return _record_outputs(capsys, tmp_path, _large_graph(), _large_queries(), [])


def test_record_output_golden_sha256(small_outputs, large_outputs):
    got = {
        (graph, name, fmt): hashlib.sha256(out.encode()).hexdigest()
        for graph, outs in (("small", small_outputs), ("large", large_outputs))
        for (name, fmt), out in outs.items()
    }
    assert got == GOLDEN_SHA256


def test_record_output_literal_lines(small_outputs, large_outputs):
    assert small_outputs["bf", "tsv"] == "# u v h d\n" + "".join(
        f"0\t{v}\t{h}\t{d}\n"
        for v, ds in enumerate(("0 0 0 0 0", "3 3 3 3 3", "4 1 1 1 1", "9 9 6 6 6"))
        for h, d in enumerate(ds.split(), start=1)
    )
    assert small_outputs["oracle-bf", "json-lines"] == (
        '{"u": 0, "v": 2, "h": 1, "d": 4}\n'
        '{"u": 0, "v": 2, "h": 2, "d": 1}\n'
        '{"u": 1, "v": 2, "h": 3, "d": -2}\n'
        '{"u": 0, "v": 3, "h": 3, "d": 6}\n'
        '{"u": 3, "v": 0, "h": 2, "d": "inf"}\n'
        '{"u": 3, "v": 3, "h": 1, "d": 0}\n'
        '{"u": 2, "v": 1, "h": 3, "d": 4}\n'
    )
    assert small_outputs["single-pair", "json-lines"].splitlines()[-1] == '{"h": 5, "d": 6}'
    lines = large_outputs["all-pairs", "json-lines"].splitlines()
    assert len(lines) == 20 * 20 * 19
    assert lines[0] == '{"u": 0, "v": 0, "h": 1, "d": 0}'
    assert lines[-1] == '{"u": 19, "v": 19, "h": 19, "d": 0}'
    assert lines[19 * 19 + 18] == '{"u": 0, "v": 19, "h": 19, "d": "inf"}'


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, as under `allhops ... | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_broken_pipe_exits_zero_silently(monkeypatch, tmp_path, f1_path, backend, fmt):
    from allhops import _native

    monkeypatch.setattr(_native, "_BACKEND", backend)
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["--format", fmt, "all-pairs", "--graph", f1_path]) == 0
    assert err.getvalue() == ""


@pytest.mark.parametrize("value", [2.5, np.nan, -np.inf, 2.0**53 + 2, -(2.0**53) - 2])
@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_inexact_distance_is_a_verification_failure(capsys, monkeypatch, f1_path, backend,
                                                   fmt, value):
    """A distance that is not an exact integer (a fraction, NaN, -inf, past
    2^53) is never printed rounded: exit 3, and its record is not written."""
    from allhops import _native, cli

    def solver(g, plan):
        le = np.zeros((g.n, g.n, g.n))
        le[1, 2, 0] = value
        return types.SimpleNamespace(le=le)

    monkeypatch.setattr(_native, "_BACKEND", backend)
    monkeypatch.setattr(cli, "all_pairs_allhops", solver)
    code, out, err = run_cli(capsys, "--format", fmt, "all-pairs", "--graph", f1_path)
    assert code == 3 and err == f"allhops: distance {value!r} is not an exact integer\n"
    assert all(line.endswith(("\t0", ": 0}")) for line in out.splitlines()[1:])
