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

import numpy as np

from . import reductions
from .baselines import apah_brute, bellman_ford_allhops
from .graph import (
    GenerationError,
    Graph,
    ParseError,
    detect_negative_cycle,
    gen_random_graph,
    parse_graph,
    render_graph,
)
from .matrices import MatrixSeq
from .minplus import conv_window, conv_window_numpy, matseq_convolution
from .oracles import (
    MemoryBudgetError,
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
    NegativeCycleError,
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


def _build_parser() -> _Parser:
    p = _Parser(prog="allhops", description=__doc__)
    p.add_argument("--format", choices=("tsv", "json-lines"), default="tsv")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--M", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--require-no-neg-cycle", action="store_true")
    g.add_argument("--out")

    c = sub.add_parser("check")
    c.add_argument("--graph", required=True)

    for name in ("bf", "single-pair", "single-source", "all-pairs"):
        q = sub.add_parser(name)
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

    o = sub.add_parser("oracle")
    osub = o.add_subparsers(dest="oracle_cmd", required=True)
    for ob in (osub.add_parser("build"),):
        ob.add_argument("--kind", choices=("powers", "bf", "mn", "mpp", "bounded"), required=True)
        ob.add_argument("--graph", required=True)
        ob.add_argument("--out", required=True)
        ob.add_argument("--C", type=float, default=4.0)
        ob.add_argument("--seed", type=int, default=0)
        ob.add_argument("--kstar", type=int)
        ob.add_argument("--max-hop", type=int)
        ob.add_argument("--mem-cap", type=int, default=4 << 30)
    for oq in (osub.add_parser("query"),):
        oq.add_argument("--oracle", required=True)
        oq.add_argument("--queries", default="-")

    ga = sub.add_parser("gadget")
    gsub = ga.add_subparsers(dest="gadget_cmd", required=True)
    gt = gsub.add_parser("tree")
    gt.add_argument("--l", type=int, required=True)
    gt.add_argument("--reversed", action="store_true")
    for name in ("triangle", "mpp", "conv"):
        gg = gsub.add_parser(name)
        gg.add_argument("--input", required=True)
    for gg in gsub.choices.values():
        gg.add_argument("--out")
        gg.add_argument("--names-out")
        gg.add_argument("--verify", action="store_true")

    st = sub.add_parser("selftest")
    st.add_argument("--seed", type=int, default=0)
    return p


def _read_graph(path: str) -> Graph:
    with open(path, "rb") as f:
        return parse_graph(f.read())


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


def _cmd_gen(args) -> int:
    g = gen_random_graph(args.n, args.m, args.M, args.seed, args.require_no_neg_cycle)
    text = render_graph(g)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    g = _read_graph(args.graph)
    if detect_negative_cycle(g):
        raise NegativeCycleError("negative cycle")
    sys.stdout.write("no negative cycle\n")
    return 0


def _solver_plan(args) -> SamplePlan:
    return SamplePlan(C=args.C, seed=args.seed)


def _cmd_single_pair(args) -> int:
    g = _read_graph(args.graph)
    strategy = "naive" if args.strategy == "auto" else args.strategy
    vals = single_pair_allhops(g, args.s, args.t, args.k, _solver_plan(args), strategy)
    if args.paranoid:
        again = single_pair_allhops(
            g, args.s, args.t, args.k, SamplePlan(C=2 * args.C, seed=args.seed), strategy
        )
        if not np.array_equal(vals, again):
            raise VerificationError("paranoid re-run with doubled C disagrees")
    hops = _hop_range(g.n, args.max_hop)
    h = np.arange(hops.start, hops.stop)
    blocks = [(h, vals[np.minimum(h, len(vals)) - 1])] if len(vals) else []
    _emit_records(args, blocks, ("h", "d"))
    return 0


def _cmd_single_source(args) -> int:
    g = _read_graph(args.graph)
    table = single_source_allhops(g, args.s, args.k, _solver_plan(args), args.split)
    if args.paranoid:
        again = single_source_allhops(
            g, args.s, args.k, SamplePlan(C=2 * args.C, seed=args.seed), args.split
        )
        if not np.array_equal(table.le, again.le):
            raise VerificationError("paranoid re-run with doubled C disagrees")
    block = _table_block(table.le[:, 0, :], args.s, _hop_range(g.n, args.max_hop))
    _emit_records(args, [block], ("u", "v", "h", "d"))
    return 0


def _cmd_bf(args) -> int:
    g = _read_graph(args.graph)
    hops = _hop_range(g.n, args.max_hop)
    budget = max(hops.stop - 1, 1)
    row = bellman_ford_allhops(g, args.s, budget)
    _emit_records(args, [_table_block(row.le, args.s, hops)], ("u", "v", "h", "d"))
    return 0


def _cmd_all_pairs(args) -> int:
    g = _read_graph(args.graph)
    table = all_pairs_allhops(g, _solver_plan(args))
    if args.paranoid:
        again = all_pairs_allhops(g, SamplePlan(C=2 * args.C, seed=args.seed))
        if not np.array_equal(table.le, again.le):
            raise VerificationError("paranoid re-run with doubled C disagrees")
    hops = _hop_range(g.n, args.max_hop)
    blocks = (_table_block(table.le[:, ui, :], u, hops) for ui, u in enumerate(table.sources))
    _emit_records(args, blocks, ("u", "v", "h", "d"))
    return 0


def _cmd_oracle_build(args) -> int:
    _check_max_hop(args.max_hop)
    g = _read_graph(args.graph)
    plan = SamplePlan(C=args.C, seed=args.seed)
    if args.kind == "powers":
        oracle = build_oracle_powers(g, args.max_hop, args.mem_cap)
    elif args.kind == "bf":
        oracle = build_oracle_bf(g, args.max_hop, args.mem_cap)
    elif args.kind == "mn":
        oracle = build_oracle_mn(g, plan)
    elif args.kind == "mpp":
        oracle = build_oracle_mpp(g, plan)
    else:
        oracle = build_oracle_bounded(g, plan, args.kstar)
    with open(args.out, "wb") as f:
        f.write(save_oracle(oracle))
    return 0


def _cmd_oracle_query(args) -> int:
    with open(args.oracle, "rb") as f:
        oracle = load_oracle(f.read())
    src = sys.stdin if args.queries == "-" else open(args.queries)
    queries, dists = [], []
    try:
        for lineno, line in enumerate(src, start=1):
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
    finally:
        if src is not sys.stdin:
            src.close()
    block = (*np.array(queries, dtype=np.int64).reshape(-1, 3).T, np.array(dists, dtype=np.float64))
    _emit_records(args, [block], ("u", "v", "h", "d"))
    return 0


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
    return np.array(out, dtype=np.int64)


def _gadget_emit(args, gadget) -> None:
    text = render_graph(gadget.graph)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    elif not args.verify:
        sys.stdout.write(text)
    if args.names_out:
        with open(args.names_out, "w") as f:
            f.write(reductions.render_names(gadget))


def _cmd_gadget(args) -> int:
    if args.gadget_cmd == "tree":
        if args.l < 1:
            raise UsageError("--l must be >= 1")
        gadget = reductions.build_tree_gadget(args.l, args.reversed)
        _gadget_emit(args, gadget)
        if args.verify:
            _verify_tree(gadget, args.l, args.reversed)
            sys.stdout.write("verify ok\n")
        return 0
    with open(args.input) as f:
        lines = iter([l for l in (ln.strip() for ln in f) if l and not l.startswith("#")])
    if args.gadget_cmd == "triangle":
        header = _read_matrix_lines(lines, 1, 3, "triangle header")[0].tolist()
        if len(set(header)) != 1 or header[0] < 1:
            raise ParseError("triangle input: header must be three equal positive part sizes")
        n = header[0]
        groups = {"ij": [], "jk": [], "ki": []}
        for line in lines:
            parts = line.split()
            if len(parts) != 3 or parts[0] not in groups:
                raise ParseError(f"triangle input: bad edge line {line!r}")
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"triangle input: non-integer vertex in {line!r}") from None
            if not (0 <= a < n and 0 <= b < n):
                raise ParseError(f"triangle input: vertex out of [0, {n}) in {line!r}")
            groups[parts[0]].append((a, b))
        gadget = reductions.build_triangle_gadget(n, groups["ij"], groups["jk"], groups["ki"])
        _gadget_emit(args, gadget)
        if args.verify:
            table = apah_brute(gadget.graph, n + 4, with_exact=False)
            got = reductions.decide_triangle(gadget, table)
            want = reductions.triangle_bruteforce(n, groups["ij"], groups["jk"], groups["ki"])
            if got != want:
                raise VerificationError("triangle decision disagrees with enumeration")
            sys.stdout.write(f"verify ok: triangle={'yes' if got else 'no'}\n")
        return 0
    if args.gadget_cmd == "mpp":
        n, x = _read_matrix_lines(lines, 1, 2, "mpp header")[0].tolist()
        if n < 1 or x < 2 or x & (x - 1) or n % x:
            raise ParseError("mpp header: x must be a power of two >= 2 dividing n")
        A = _read_matrix_lines(lines, n, n // x, "A")
        B = _read_matrix_lines(lines, n // x, n, "B")
        if min(A.min(), B.min()) < 1 or max(A.max(), B.max()) > x:
            raise ParseError(f"mpp input: entries must lie in [1, {x}]")
        gadget = reductions.reduce_mpp_to_exact_hops(A, B, x)
        _gadget_emit(args, gadget)
        if args.verify:
            table = apah_brute(gadget.graph, n - 1 + 2 * x)
            got = reductions.decode_mpp(gadget, table)
            want = reductions.minplus_product_bruteforce(A, B)
            if not np.array_equal(got, want):
                raise VerificationError("decoded product disagrees with brute force")
            sys.stdout.write("verify ok\n")
        return 0
    (n,) = _read_matrix_lines(lines, 1, 1, "conv header")[0].tolist()
    if n < 1:
        raise ParseError("conv header: n must be >= 1")
    A = _read_matrix_lines(lines, n, n, "A")
    B = _read_matrix_lines(lines, n, n, "B")
    gadget = reductions.reduce_convolution_to_hops(A, B)
    _gadget_emit(args, gadget)
    if args.verify:
        table = apah_brute(gadget.graph, 2 * n + 2)
        got = reductions.decode_convolution(gadget, table)
        want = reductions.indexed_combination_bruteforce(A, B)
        if not np.array_equal(got, want):
            raise VerificationError("decoded values disagree with brute force")
        sys.stdout.write("verify ok\n")
    return 0


def _verify_tree(gadget, depth: int, reversed_edges: bool) -> None:
    g = gadget.graph
    budget = (1 << depth) - 1
    for i in range(1, (1 << depth) + 1):
        u, v = gadget.vertex(f"u{i}"), gadget.vertex("v")
        s, t = (v, u) if reversed_edges else (u, v)
        row = bellman_ford_allhops(g, s, budget)
        want = i + (1 << depth) - 2
        if row.ex[budget][t] != want or row.le[budget][t] != want:
            raise VerificationError(f"leaf {i}: expected weight {want}")
        if any(np.isfinite(row.ex[h][t]) for h in range(budget)):
            raise VerificationError(f"leaf {i}: path with fewer than {budget} hops")


def _cmd_selftest(args) -> int:
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
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "gen":
            return _cmd_gen(args)
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "bf":
            return _cmd_bf(args)
        if args.cmd == "single-pair":
            return _cmd_single_pair(args)
        if args.cmd == "single-source":
            return _cmd_single_source(args)
        if args.cmd == "all-pairs":
            return _cmd_all_pairs(args)
        if args.cmd == "oracle":
            return _cmd_oracle_build(args) if args.oracle_cmd == "build" else _cmd_oracle_query(args)
        if args.cmd == "gadget":
            return _cmd_gadget(args)
        if args.cmd == "selftest":
            return _cmd_selftest(args)
        raise UsageError(f"unknown command {args.cmd!r}")
    except BrokenPipeError:  # the reader went away, as under `| head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (UsageError, ParseError, GenerationError, OSError) as e:
        sys.stderr.write(f"allhops: {e}\n")
        return 1
    except (ValueError, MemoryBudgetError, OverflowError) as e:
        sys.stderr.write(f"allhops: {e}\n")
        return 2
    except VerificationError as e:
        sys.stderr.write(f"allhops: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
