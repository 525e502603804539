"""Batch command-line front end.

Subcommands: gen, check, bf, single-pair, single-source, all-pairs,
oracle build/query, gadget {tree,triangle,mpp,conv}, selftest.

Exit codes: 0 success, 1 input error, 2 precondition violation (negative
cycle, hop out of range, memory cap), 3 internal verification failure.
Outputs are byte-deterministic for fixed arguments, files, and seed;
infinity renders as `inf` in tsv and as the string "inf" in json-lines.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import records, reductions
from .baselines import apah_brute, bellman_ford_allhops
from .graph import (
    GenerationError,
    Graph,
    NegativeCycleError,
    ParseError,
    detect_negative_cycle,
    gen_random_graph,
    graph_from_edges,
    parse_graph,
    render_graph,
)
from .matrices import MatrixSeq
from .minplus import (
    conv_window,
    conv_window_numpy,
    matseq_convolution,
    relax,
    relax_hops,
    relax_hops_numpy,
    relax_numpy,
)
from .oracles import (
    KINDS,
    build_oracle_bf,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_powers,
    dump_oracle,
    load_oracle,
    save_oracle,
    scans_agree,
)
from .sampling import SamplePlan
from .solvers import (
    all_pairs_allhops,
    single_pair_allhops,
    single_source_allhops,
)
from .records import VerificationError
from .values import from_int64, pack_cells, to_int64, unpack_cells


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _command(sub, name: str, run) -> _Parser:
    """Subcommand `name`, bound to its handler `run(args)`."""
    parser = sub.add_parser(name)
    parser.set_defaults(run=run)
    return parser


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process; every subcommand sets `run`, its
    handler, as a default of the namespace that `parse_args` makes."""
    p = _Parser(prog="allhops", description=__doc__)
    p.add_argument("--format", choices=("tsv", "json-lines"), default="tsv")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = _command(sub, "gen", _cmd_gen)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--M", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--require-no-neg-cycle", action="store_true")
    g.add_argument("--out")

    c = _command(sub, "check", _cmd_check)
    c.add_argument("--graph", required=True)

    solvers = {"bf": _cmd_bf, "single-pair": _cmd_single_pair,
               "single-source": _cmd_single_source, "all-pairs": _cmd_all_pairs}
    for name, run in solvers.items():
        q = _command(sub, name, run)
        q.add_argument("--graph", required=True)
        q.add_argument("--max-hop", type=int)
        if name in ("bf", "single-pair", "single-source"):
            q.add_argument("--s", type=int, required=True)
        if name == "single-pair":
            q.add_argument("--t", type=int, required=True)
            q.add_argument("--strategy", choices=("auto", "naive", "polynomial"), default="auto")
        if name in ("single-pair", "single-source"):
            q.add_argument("--k", type=int, default=2)
        if name == "single-source":
            q.add_argument("--split", type=int)
        if name != "bf":
            q.add_argument("--C", type=float, default=4.0)
            q.add_argument("--seed", type=int, default=0)
            q.add_argument("--paranoid", action="store_true")

    osub = sub.add_parser("oracle").add_subparsers(dest="oracle_cmd", required=True)
    ob = _command(osub, "build", _cmd_oracle_build)
    ob.add_argument("--kind", choices=KINDS, required=True)
    ob.add_argument("--graph", required=True)
    ob.add_argument("--out", required=True)
    ob.add_argument("--C", type=float, default=4.0)
    ob.add_argument("--seed", type=int, default=0)
    ob.add_argument("--kstar", type=int)
    ob.add_argument("--max-hop", type=int)
    ob.add_argument("--mem-cap", type=int, default=4 << 30)
    oq = _command(osub, "query", _cmd_oracle_query)
    oq.add_argument("--oracle", required=True)
    oq.add_argument("--queries", default="-")

    gsub = sub.add_parser("gadget").add_subparsers(dest="gadget_cmd", required=True)
    gt = _command(gsub, "tree", _cmd_tree)
    gt.add_argument("--l", type=int, required=True)
    gt.add_argument("--reversed", action="store_true")
    for name in _GADGETS:
        _command(gsub, name, _cmd_gadget).add_argument("--input", required=True)
    for gg in gsub.choices.values():
        gg.add_argument("--out")
        gg.add_argument("--names-out")
        gg.add_argument("--verify", action="store_true")

    st = _command(sub, "selftest", _cmd_selftest)
    st.add_argument("--seed", type=int, default=0)
    return p


def _read_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_bytes())


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout if path is None."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _check_max_hop(max_hop: int | None) -> None:
    if max_hop is not None and max_hop < 1:
        raise UsageError("--max-hop must be >= 1")


def _hop_range(n: int, max_hop: int | None) -> range:
    _check_max_hop(max_hop)
    top = n - 1 if max_hop is None else max_hop
    return range(1, max(top, 0) + 1)


def _cmd_gen(args) -> None:
    g = gen_random_graph(args.n, args.m, args.M, args.seed, args.require_no_neg_cycle)
    _write(args.out, render_graph(g))


def _cmd_check(args) -> None:
    if detect_negative_cycle(_read_graph(args.graph)):
        raise NegativeCycleError("negative cycle")
    sys.stdout.write("no negative cycle\n")


def _plan(args) -> SamplePlan:
    return SamplePlan(C=args.C, seed=args.seed)


def _solve(args, solve) -> np.ndarray:
    """solve(plan) under --C and --seed; with --paranoid, the same values
    again at twice C, or a VerificationError.  Twice a C above about 9e307
    overflows, so the re-run takes the largest finite float instead; any C
    that large already samples all of V."""
    values = solve(_plan(args))
    again = SamplePlan(C=min(2 * args.C, sys.float_info.max), seed=args.seed)
    if args.paranoid and not np.array_equal(values, solve(again)):
        raise VerificationError("paranoid re-run with doubled C disagrees")
    return values


def _cmd_single_pair(args) -> None:
    """--strategy picks how a ladder level that convolves convolves
    (`auto` is `naive`).  A level whose parent is V, or whose Bellman-Ford
    costs no more than its convolutions, runs Bellman-Ford under either,
    so on most inputs both print the same rows by the same route."""
    g = _read_graph(args.graph)
    strategy = "naive" if args.strategy == "auto" else args.strategy
    vals = _solve(args, lambda plan: single_pair_allhops(g, args.s, args.t, args.k, plan, strategy))
    hops = _hop_range(g.n, args.max_hop)
    h = np.arange(hops.start, hops.stop)
    blocks = [(h[None], vals[np.minimum(h, len(vals)) - 1])] if len(vals) else []
    records.emit(args.format, blocks, ("h", "d"))


def _cmd_single_source(args) -> None:
    g = _read_graph(args.graph)
    le = _solve(args, lambda plan: single_source_allhops(g, args.s, args.k, plan, args.split).le)
    block = records.table_block(le[:, 0, :], args.s, _hop_range(g.n, args.max_hop))
    records.emit(args.format, [block], ("u", "v", "h", "d"))


def _cmd_bf(args) -> None:
    g = _read_graph(args.graph)
    hops = _hop_range(g.n, args.max_hop)
    row = bellman_ford_allhops(g, args.s, max(hops.stop - 1, 1))
    records.emit(args.format, [records.table_block(row.le, args.s, hops)], ("u", "v", "h", "d"))


def _cmd_all_pairs(args) -> None:
    g = _read_graph(args.graph)
    le = _solve(args, lambda plan: all_pairs_allhops(g, plan).le)
    hops = _hop_range(g.n, args.max_hop)
    blocks = (records.table_block(le[:, u, :], u, hops) for u in range(g.n))
    records.emit(args.format, blocks, ("u", "v", "h", "d"))


# --kind: the oracle builder, given the graph and the parsed arguments
_ORACLE_BUILDERS = {
    "powers": lambda g, args: build_oracle_powers(g, args.max_hop, args.mem_cap),
    "bf": lambda g, args: build_oracle_bf(g, args.max_hop, args.mem_cap),
    "mn": lambda g, args: build_oracle_mn(g, _plan(args)),
    "mpp": lambda g, args: build_oracle_mpp(g, _plan(args)),
    "bounded": lambda g, args: build_oracle_bounded(g, _plan(args), args.kstar),
}


def _cmd_oracle_build(args) -> None:
    """Build, then open --out and stream the snapshot into it, so a build
    that fails leaves --out as it was."""
    _check_max_hop(args.max_hop)
    oracle = _ORACLE_BUILDERS[args.kind](_read_graph(args.graph), args)
    with open(args.out, "wb") as f:
        dump_oracle(oracle, f)


def _cmd_oracle_query(args) -> None:
    oracle = load_oracle(Path(args.oracle).read_bytes())
    text = sys.stdin.read() if args.queries == "-" else Path(args.queries).read_text()
    queries, bad_line = [], None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            bad_line = ParseError(f"line {lineno}: expected `u v h`")
            break
        try:
            queries.append(tuple(int(x) for x in parts))
        except ValueError:
            bad_line = ParseError(f"line {lineno}: non-integer field")
            break
    # The lines above a bad one are answered first, so that the first bad
    # line, whether unparsable or a refused query, is the one reported.
    try:
        keys = np.array(queries, dtype=np.int64).reshape(-1, 3).T.copy()
    except OverflowError:  # a field past int64 is out of range: let `query` say how
        for q in queries:
            oracle.query(*q)
        raise
    dists = oracle.query_many(*keys)
    if bad_line is not None:
        raise bad_line
    records.emit(args.format, [(keys, dists)], ("u", "v", "h", "d"))


def _read_matrix_lines(lines, rows, cols, what):
    out = []
    for _ in range(rows):
        try:
            line = next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of {what}") from None
        try:
            vals = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError(f"{what}: non-integer entry") from None
        if len(vals) != cols:
            raise ParseError(f"{what}: expected {cols} entries per row")
        out.append(vals)
    try:
        return np.array(out, dtype=np.int64)
    except OverflowError:
        raise ParseError(f"{what}: entry outside the 64-bit integer range") from None


def _read_triangle(lines):
    """Header `n n n`, then edge lines `ij a b`, `jk a b` or `ki a b`."""
    header = _read_matrix_lines(lines, 1, 3, "triangle header")[0].tolist()
    if len(set(header)) != 1:
        raise ParseError("triangle input: header must be three equal part sizes")
    groups = {"ij": [], "jk": [], "ki": []}
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] not in groups:
            raise ParseError(f"triangle input: bad edge line {line!r}")
        try:
            groups[parts[0]].append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise ParseError(f"triangle input: non-integer vertex in {line!r}") from None
    return header[0], groups["ij"], groups["jk"], groups["ki"]


def _read_mpp(lines):
    """Header `n x`, then A (n rows of n/x) and B (n/x rows of n)."""
    n, x = _read_matrix_lines(lines, 1, 2, "mpp header")[0].tolist()
    if x < 2 or n % x:
        raise ParseError("mpp header: x must be >= 2 and divide n")
    return _read_matrix_lines(lines, n, n // x, "A"), _read_matrix_lines(lines, n // x, n, "B"), x


def _read_conv(lines):
    """Header `n`, then A and B, n rows of n each."""
    (n,) = _read_matrix_lines(lines, 1, 1, "conv header")[0].tolist()
    return _read_matrix_lines(lines, n, n, "A"), _read_matrix_lines(lines, n, n, "B")


# gadget -> (reader of its --input lines, builder, decoder, brute-force
# evaluator of the same inputs, whether the decoder reads exact-hop tables,
# the message when the two disagree)
_GADGETS = {
    "triangle": (_read_triangle, reductions.build_triangle_gadget, reductions.decide_triangle,
                 reductions.triangle_bruteforce, False,
                 "triangle decision disagrees with enumeration"),
    "mpp": (_read_mpp, reductions.reduce_mpp_to_exact_hops, reductions.decode_mpp,
            lambda A, B, x: reductions.minplus_product_bruteforce(A, B), True,
            "decoded product disagrees with brute force"),
    "conv": (_read_conv, reductions.reduce_convolution_to_hops, reductions.decode_convolution,
             reductions.indexed_combination_bruteforce, True,
             "decoded values disagree with brute force"),
}


def _build_gadget(args, build, inputs) -> reductions.GadgetGraph:
    """build(*inputs), written to --out (else stdout, unless --verify) and
    its names to --names-out.  The builders check their inputs, so their
    ValueError is an input error."""
    try:
        gadget = build(*inputs)
    except ValueError as e:
        raise ParseError(f"gadget {args.gadget_cmd}: {e}") from None
    if args.out or not args.verify:
        _write(args.out, render_graph(gadget.graph))
    if args.names_out:
        Path(args.names_out).write_text(reductions.render_names(gadget))
    return gadget


def _cmd_tree(args) -> None:
    gadget = _build_gadget(args, reductions.build_tree_gadget, (args.l, args.reversed))
    if args.verify:
        _verify_tree(gadget, args.reversed)
        sys.stdout.write("verify ok\n")


def _verify_tree(gadget, reversed_edges: bool) -> None:
    """Each leaf u_i reaches the root in exactly 2^depth - 1 hops, with
    weight i + 2^depth - 2, and in no fewer."""
    g, budget = gadget.graph, gadget.params["hops"]
    for i in range(1, gadget.params["leaves"] + 1):
        u, v = gadget.vertex(f"u{i}"), gadget.vertex("v")
        s, t = (v, u) if reversed_edges else (u, v)
        row = bellman_ford_allhops(g, s, budget)
        want = i + budget - 1
        if row.ex[budget][t] != want or row.le[budget][t] != want:
            raise VerificationError(f"leaf {i}: expected weight {want}")
        if any(np.isfinite(row.ex[h][t]) for h in range(budget)):
            raise VerificationError(f"leaf {i}: path with fewer than {budget} hops")


def _cmd_gadget(args) -> None:
    """A triangle, mpp or conv gadget from --input; --verify decodes
    Bellman-Ford tables up to the gadget's hop budget and compares the
    result with the brute-force evaluator."""
    read, build, decode, brute, exact, mismatch = _GADGETS[args.gadget_cmd]
    lines = (ln.strip() for ln in Path(args.input).read_text().split("\n"))
    inputs = read(iter([ln for ln in lines if ln and not ln.startswith("#")]))
    gadget = _build_gadget(args, build, inputs)
    if args.verify:
        got = decode(gadget, apah_brute(gadget.graph, gadget.params["hops"], with_exact=exact))
        if not np.array_equal(got, brute(*inputs)):
            raise VerificationError(mismatch)
        answer = f": triangle={'yes' if got else 'no'}" if args.gadget_cmd == "triangle" else ""
        sys.stdout.write(f"verify ok{answer}\n")


def _sampled_case(n: int, s: int, seed: int):
    """(path, its d_<=h table, plan): the suites' case that splits through
    a sample smaller than V.  The path has weight -1 per edge, so its
    distances change at every hop, and n^2 heavier copies of each edge,
    which change no distance but make Bellman-Ford dearer than the
    ladder's convolutions.  The plan, at C = 1, pins every vertex but one
    w != s, so each level it samples is V - w.  A shortest walk can be
    taken simple and then meets w at most once, so V - w hits every two
    consecutive vertices of it, and each split through it is exact,
    whatever the seed."""
    path = graph_from_edges(n, [(v, v + 1, w) for v in range(n - 1) for w in range(-1, n * n)])
    w = (s + 1 + seed % (n - 1)) % n
    plan = SamplePlan(C=1.0, seed=seed, pinned=set(range(n)) - {w})
    return path, apah_brute(path, with_exact=False).le, plan


def _selftest_solvers(g, plan: SamplePlan, brute: np.ndarray, s: int, t: int, seed: int,
                      sampled) -> bool:
    """At the default C every split set is all of V, so the solvers run
    Bellman-Ford; on the sampled case single-source splits through V - w
    in the ladder's last level and in its combining step."""
    ok = np.array_equal(single_pair_allhops(g, s, t, 2, plan), brute[1:, s, t])
    ok &= np.array_equal(single_source_allhops(g, s, 2, plan).le[:, 0, :], brute[:, s, :])
    path, path_brute, near = sampled
    ok &= np.array_equal(single_source_allhops(path, s, 2, near).le[:, 0, :], path_brute[:, s, :])
    return ok & np.array_equal(all_pairs_allhops(g, SamplePlan(C=8.0, seed=seed)).le, brute)


def _selftest_oracles(g, plan: SamplePlan, brute: np.ndarray, sampled) -> bool:
    """Every query of each kind.  At the default C each level that samples
    part of V repeats the one below, and queries skip it; on the sampled
    case no level of `mpp` over V - w does, because the path's distances
    change at every hop."""
    oracles = (build_oracle_mn(g, plan), build_oracle_mpp(g, plan),
               build_oracle_bounded(g, plan), build_oracle_bf(g))
    path, path_brute, near = sampled
    cases = [(oracle, brute) for oracle in oracles] + [(build_oracle_mpp(path, near), path_brute)]
    n = g.n
    return all(
        oracle.query(u, v, h) == want[h, u, v]
        for u in range(n) for v in range(n) for h in range(1, n) for oracle, want in cases
    )


def _selftest_kernels(rng: np.random.Generator) -> bool:
    ok = True
    for _ in range(5):
        dims = int(rng.integers(1, 5))
        length = int(rng.integers(1, 4))
        M = int(rng.integers(0, 4))
        def rand_seq():
            vals = rng.integers(-M, M + 1, size=(length, dims, dims)).astype(float)
            mask = rng.random((length, dims, dims)) < 0.2
            vals[mask] = np.inf
            return MatrixSeq(0, tuple(range(dims)), tuple(range(dims)), vals)
        A, B = rand_seq(), rand_seq()
        if matseq_convolution(A, B, "polynomial", M) != matseq_convolution(A, B, "naive"):
            ok = False
        # the active conv_window backend against the numpy reference, on
        # windows past both ends of the output and inside it; on the
        # running minima too, where the compiled loop skips splits
        lows = [np.minimum.accumulate(seq.data, axis=0) for seq in (A, B)]
        for a3, b3 in ((A.data, B.data), lows):
            for lo, hi in ((-1, 2 * length), (length - 1, length)):
                ok &= np.array_equal(conv_window(a3, b3, lo, hi),
                                     conv_window_numpy(a3, b3, lo, hi))
        # the active relax and relax_hops against theirs, on a multigraph
        # with self-loops and negative weights, from rows strewn with +inf;
        # the compiled relax_hops runs one row in place, more vertex-major
        n = int(rng.integers(1, 7))
        ends = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
        g = graph_from_edges(n, [(u, v, int(rng.integers(-4, 5))) for u, v in ends])
        edges = g.in_edges()
        rows = rng.integers(-9, 10, size=(4, int(rng.choice([1, 3, 9])), n)).astype(float)
        rows[rng.random(rows.shape) < 0.3] = np.inf
        got, want = rows.copy(), rows.copy()
        ok &= np.array_equal(relax(rows[0], edges, got[1]), relax_numpy(rows[0], edges, want[1]))
        for exact in (False, True):
            relax_hops(got, 1, edges, exact=exact)
            relax_hops_numpy(want, 1, edges, exact=exact)
            ok &= np.array_equal(got, want)
        # the active snapshot cell conversion against the numpy bodies,
        # both ways, on this trial's tables
        for table in (A.data, B.data, *lows, got):
            cells, back = np.empty(table.shape, np.int64), np.empty(table.shape)
            pack_cells(table, cells)
            unpack_cells(cells, back)
            ok &= np.array_equal(cells, to_int64(table))
            ok &= np.array_equal(back, from_int64(cells))
        # the active record renderer against the Python one
        ok &= records.renderers_agree(rng)
    return ok & _selftest_scans(rng)


def _selftest_scans(rng: np.random.Generator) -> bool:
    """The active level scan against the Python one, on every query of one
    small oracle of each sampled kind, built and loaded.  At C = 1 the
    upper levels are sampled, and levels above the graph's last change
    repeat the one below (copy levels)."""
    n = int(rng.integers(10, 14))
    g = gen_random_graph(n, 2 * n, 4, int(rng.integers(1 << 30)), require_no_neg_cycle=True)
    plan = SamplePlan(C=1.0, seed=int(rng.integers(1 << 30)))
    ok = True
    for build in (build_oracle_mn, build_oracle_mpp, build_oracle_bounded):
        oracle = build(g, plan)
        ok &= scans_agree(oracle) and scans_agree(load_oracle(save_oracle(oracle)))
    return ok


def _cmd_selftest(args) -> None:
    seed = args.seed
    failures = 0

    def suite(name: str, check) -> None:
        """Run and report one suite.  Its inputs are its own, so an
        exception from the code it checks fails the suite, like a wrong
        value does."""
        nonlocal failures
        try:
            ok = bool(check())
        except (ValueError, ArithmeticError, LookupError):
            ok = False
        sys.stdout.write(f"selftest {name}: {'ok' if ok else 'FAILED'}\n")
        failures += 0 if ok else 1

    for trial in range(4):
        n = 6 + 4 * trial
        g = gen_random_graph(n, 2 * n, 4, seed + trial, require_no_neg_cycle=True)
        brute = apah_brute(g, with_exact=False).le
        plan = SamplePlan(seed=seed + trial)
        s, t = trial % n, (3 * trial + 1) % n
        sampled = _sampled_case(n, s, seed)
        suite(f"solvers n={n}", lambda: _selftest_solvers(g, plan, brute, s, t, seed, sampled))
        suite(f"oracles n={n}", lambda: _selftest_oracles(g, plan, brute, sampled))
    suite("kernel equivalence", lambda: _selftest_kernels(np.random.default_rng(seed)))

    if failures:
        raise VerificationError(f"{failures} selftest suite(s) failed")


def main(argv=None) -> int:
    """Run one command; every failure is one stderr line and an exit code.

    main may be called any number of times in one process: the parser is
    built once (the module docstring above is its --help description), and
    each call parses into a fresh namespace, so nothing carries over."""
    try:
        args = _build_parser().parse_args(argv)
        args.run(args)
        return 0
    except BrokenPipeError:  # the reader went away, as under `| head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (UsageError, ParseError, GenerationError, OSError, UnicodeDecodeError) as e:
        code, err = 1, e
    except (ValueError, MemoryError, OverflowError) as e:
        code, err = 2, e
    except VerificationError as e:
        code, err = 3, e
    sys.stderr.write(f"allhops: {err}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
