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
import sys
from pathlib import Path

import numpy as np

from . import reductions
from .baselines import apah_brute, bellman_ford_allhops
from .graph import (
    GenerationError,
    Graph,
    NegativeCycleError,
    ParseError,
    detect_negative_cycle,
    gen_random_graph,
    parse_graph,
    render_graph,
)
from .matrices import MatrixSeq
from .minplus import conv_window, conv_window_numpy, matseq_convolution
from .oracles import (
    KINDS,
    build_oracle_bf,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_powers,
    load_oracle,
    save_oracle,
)
from .sampling import SamplePlan
from .solvers import (
    all_pairs_allhops,
    single_pair_allhops,
    single_source_allhops,
)


class UsageError(ValueError):
    pass


class VerificationError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _command(sub, name: str, run) -> _Parser:
    """Subcommand `name`, bound to its handler `run(args)`."""
    parser = sub.add_parser(name)
    parser.set_defaults(run=run)
    return parser


def _build_parser() -> _Parser:
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


# Rows rendered into one string per write.  256-row chunks render ~10%
# faster but measured up to 4 MB more peak RSS than per-row writing on
# n=48 tables (2-core x86 VM); at 64 rows the peak matched.
_CHUNK_ROWS = 64

_RECORD_LINE = {
    ("tsv", ("u", "v", "h", "d")): "{}\t{}\t{}\t{}\n",
    ("tsv", ("h", "d")): "{}\t{}\n",
    ("json-lines", ("u", "v", "h", "d")): '{{"u": {}, "v": {}, "h": {}, "d": {}}}\n',
    ("json-lines", ("h", "d")): '{{"h": {}, "d": {}}}\n',
}


def _emit_records(args, blocks, fields) -> None:
    """Write records given as blocks of equal-length columns: an integer
    array per field before `d`, then the float64 distances `d`."""
    out = sys.stdout
    line = _RECORD_LINE[args.format, fields]
    inf = "inf" if args.format == "tsv" else '"inf"'
    if args.format == "tsv" and len(fields) == 4:
        out.write("# u v h d\n")
    for *keys, d in blocks:
        for lo in range(0, len(d), _CHUNK_ROWS):
            part = d[lo : lo + _CHUNK_ROWS]
            unreachable = part == np.inf
            dtext = np.where(unreachable, 0, part).astype(np.int64).tolist()
            for i in np.flatnonzero(unreachable).tolist():
                dtext[i] = inf
            cols = [k[lo : lo + _CHUNK_ROWS].tolist() for k in keys]
            out.write("".join(map(line.format, *cols, dtext)))


def _check_max_hop(max_hop: int | None) -> None:
    if max_hop is not None and max_hop < 1:
        raise UsageError("--max-hop must be >= 1")


def _hop_range(n: int, max_hop: int | None) -> range:
    _check_max_hop(max_hop)
    top = n - 1 if max_hop is None else max_hop
    return range(1, max(top, 0) + 1)


def _table_block(le: np.ndarray, u: int, hops: range):
    """Columns (u, v, h, d) of source u's records, v-major, from its
    (hop, v) table; hops past the table's last repeat that hop."""
    n = le.shape[1]
    h = np.arange(hops.start, hops.stop)
    d = le[np.minimum(h, le.shape[0] - 1)].T.ravel()
    return np.full(d.size, u), np.repeat(np.arange(n), h.size), np.tile(h, n), d


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
    again at twice C, or a VerificationError."""
    values = solve(_plan(args))
    if args.paranoid and not np.array_equal(values, solve(SamplePlan(C=2 * args.C, seed=args.seed))):
        raise VerificationError("paranoid re-run with doubled C disagrees")
    return values


def _cmd_single_pair(args) -> None:
    g = _read_graph(args.graph)
    strategy = "naive" if args.strategy == "auto" else args.strategy
    vals = _solve(args, lambda plan: single_pair_allhops(g, args.s, args.t, args.k, plan, strategy))
    hops = _hop_range(g.n, args.max_hop)
    h = np.arange(hops.start, hops.stop)
    blocks = [(h, vals[np.minimum(h, len(vals)) - 1])] if len(vals) else []
    _emit_records(args, blocks, ("h", "d"))


def _cmd_single_source(args) -> None:
    g = _read_graph(args.graph)
    le = _solve(args, lambda plan: single_source_allhops(g, args.s, args.k, plan, args.split).le)
    block = _table_block(le[:, 0, :], args.s, _hop_range(g.n, args.max_hop))
    _emit_records(args, [block], ("u", "v", "h", "d"))


def _cmd_bf(args) -> None:
    g = _read_graph(args.graph)
    hops = _hop_range(g.n, args.max_hop)
    row = bellman_ford_allhops(g, args.s, max(hops.stop - 1, 1))
    _emit_records(args, [_table_block(row.le, args.s, hops)], ("u", "v", "h", "d"))


def _cmd_all_pairs(args) -> None:
    g = _read_graph(args.graph)
    le = _solve(args, lambda plan: all_pairs_allhops(g, plan).le)
    hops = _hop_range(g.n, args.max_hop)
    blocks = (_table_block(le[:, u, :], u, hops) for u in range(g.n))
    _emit_records(args, blocks, ("u", "v", "h", "d"))


# --kind: the oracle builder, given the graph and the parsed arguments
_ORACLE_BUILDERS = {
    "powers": lambda g, args: build_oracle_powers(g, args.max_hop, args.mem_cap),
    "bf": lambda g, args: build_oracle_bf(g, args.max_hop, args.mem_cap),
    "mn": lambda g, args: build_oracle_mn(g, _plan(args)),
    "mpp": lambda g, args: build_oracle_mpp(g, _plan(args)),
    "bounded": lambda g, args: build_oracle_bounded(g, _plan(args), args.kstar),
}


def _cmd_oracle_build(args) -> None:
    _check_max_hop(args.max_hop)
    oracle = _ORACLE_BUILDERS[args.kind](_read_graph(args.graph), args)
    Path(args.out).write_bytes(save_oracle(oracle))


def _cmd_oracle_query(args) -> None:
    oracle = load_oracle(Path(args.oracle).read_bytes())
    text = sys.stdin.read() if args.queries == "-" else Path(args.queries).read_text()
    queries, dists = [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected `u v h`")
        try:
            u, v, h = (int(x) for x in parts)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field") from None
        queries.append((u, v, h))
        dists.append(oracle.query(u, v, h))
    block = (*np.array(queries, dtype=np.int64).reshape(-1, 3).T, np.array(dists, dtype=np.float64))
    _emit_records(args, [block], ("u", "v", "h", "d"))


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


def _cmd_selftest(args) -> None:
    seed = args.seed
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        sys.stdout.write(f"selftest {name}: {'ok' if ok else 'FAILED'}\n")
        failures += 0 if ok else 1

    for trial in range(4):
        n = 6 + 4 * trial
        g = gen_random_graph(n, 2 * n, 4, seed + trial, require_no_neg_cycle=True)
        brute = apah_brute(g, with_exact=False)
        plan = SamplePlan(seed=seed + trial)
        s, t = trial % n, (3 * trial + 1) % n
        ok = np.array_equal(
            single_pair_allhops(g, s, t, 2, plan), brute.le[1:, s, t]
        )
        ok &= np.array_equal(
            single_source_allhops(g, s, 2, plan).le[:, 0, :], brute.le[:, s, :]
        )
        ok &= np.array_equal(all_pairs_allhops(g, SamplePlan(C=8.0, seed=seed)).le, brute.le)
        report(f"solvers n={n}", bool(ok))
        oracle_mn = build_oracle_mn(g, plan)
        oracle_mpp = build_oracle_mpp(g, plan)
        oracle_bounded = build_oracle_bounded(g, plan)
        oracle_full = build_oracle_bf(g)
        ok = True
        for u in range(n):
            for v in range(n):
                for h in range(1, n - 1 + 1):
                    want = brute.le[h, u, v]
                    for oracle in (oracle_mn, oracle_mpp, oracle_bounded, oracle_full):
                        if oracle.query(u, v, h) != want:
                            ok = False
        report(f"oracles n={n}", ok)

    rng = np.random.default_rng(seed)
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
        # windows past both ends of the output and with one split per hop
        for lo, hi in ((-1, 2 * length), (length - 1, length)):
            for one_split in (False, True):
                got = conv_window(A.data, B.data, lo, hi, one_split=one_split)
                want = conv_window_numpy(A.data, B.data, lo, hi, one_split=one_split)
                ok &= np.array_equal(got, want)
    report("kernel equivalence", bool(ok))

    if failures:
        raise VerificationError(f"{failures} selftest suite(s) failed")


def main(argv=None) -> int:
    """Run one command; every failure is one stderr line and an exit code."""
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
