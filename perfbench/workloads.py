"""The four workloads: their seeded set-up and their fixed call lists.

Set-up (timed as `setup_s`) generates the inputs, computes full-horizon
`apah_brute` tables, and turns them into the gate's expectations.  It
hands the measuring process a `Bundle` that holds the inputs and the
expectations but no reference table.

Each pass is one closed-loop client making the workload's calls in order;
the next call starts when the previous one returned and was checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from time import perf_counter

import numpy as np

from allhops import (
    MatrixSeq,
    SamplePlan,
    all_pairs_allhops,
    apah_brute,
    bellman_ford_allhops,
    build_oracle_bf,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_powers,
    detect_negative_cycle,
    graph_from_edges,
    growing_hierarchy,
    load_oracle,
    matseq_convolution,
    minplus_product,
    parse_graph,
    save_oracle,
    shrinking_hierarchy,
    single_pair_allhops,
    single_source_allhops,
    square_matrix,
)
from allhops.cli import main as cli_main

import inputs
from gate import canonical, digest
from metrics import KINDS, SAMPLED
from spans import Pass

# The library's default oversampling constant (the CLI's --C default).
C = 4.0
# Edge weights lie in [-M, M].
M = 8
BUILDERS = {
    "powers": lambda g, plan: build_oracle_powers(g),
    "bf": lambda g, plan: build_oracle_bf(g),
    "mn": build_oracle_mn,
    "mpp": build_oracle_mpp,
    "bounded": build_oracle_bounded,
}


@dataclass
class Bundle:
    """What set-up hands to the measuring process."""

    workload: str
    texts: dict[str, str] = field(default_factory=dict)  # edge-list inputs
    params: dict = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    inputs: list[dict] = field(default_factory=list)  # n, m, M, H* per input


class Setup:
    """Builds a Bundle; keeps the graphs and reference tables for the
    launcher's cross-check, outside the bundle."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.bundle = Bundle(workload)
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.graphs = {}
        self.tables = {}

    def graph(self, name: str, n: int, edges) -> np.ndarray:
        """Register an input graph; returns its reference table le[h,u,v]."""
        b = self.bundle
        top = inputs.max_abs_weight(edges)
        b.texts[name] = inputs.render(n, edges)
        g = graph_from_edges(n, edges, top)
        le = apah_brute(g, with_exact=False).le
        b.expected[f"parse.{name}"] = digest(graph_rows(n, edges, top))
        b.expected[f"le.{name}"] = digest(le)
        hstar = inputs.stabilization_hop(le)
        b.inputs.append(
            {"name": name, "n": n, "m": len(edges), "M": top, "hstar": hstar,
             "hstar_share": hstar / max(1, n - 1)}
        )
        self.graphs[name] = g
        self.tables[name] = le
        return le

    def plan_seed(self) -> int:
        return int(self.rng.integers(0, 2**31))


def graph_rows(n, edges, declared_M) -> np.ndarray:
    return np.array([(n, len(edges), declared_M)] + [tuple(e) for e in edges], dtype=np.int64)


def rows_uvhd(le: np.ndarray, sources, hops) -> np.ndarray:
    """(u, v, h, d) rows in the CLI's order: u, then v, then h."""
    n = le.shape[1]
    hops = np.asarray(hops)
    u, v, h = np.meshgrid(np.asarray(sources), np.arange(n), hops, indexing="ij")
    return np.column_stack([u.ravel(), v.ravel(), h.ravel(), le[h, u, v].ravel()])


# ---------------------------------------------------------------------------
# solve-sparse / solve-longhop: the same call types on different families


def _solve_setup(s: Setup, all_pairs, apah_only, kernel, pointwise) -> None:
    """all_pairs: graphs for all_pairs_allhops and apah_brute; apah_only:
    graphs for apah_brute alone; kernel: graph whose tables feed the
    min-plus kernels; pointwise: graph for the single-source and
    single-pair solvers."""
    b, rng = s.bundle, s.rng
    tables = {name: s.graph(name, *spec) for name, spec in {**all_pairs, **apah_only}.items()}
    n_sp = pointwise[1]
    le_sp = s.graph(*pointwise)
    sources = [int(x) for x in rng.choice(n_sp, size=1, replace=False)]
    pairs = [tuple(int(x) for x in rng.choice(n_sp, size=2, replace=False)) + (k,) for k in (2, 3)]
    for src in sources:
        b.expected[f"ss.{src}"] = digest(le_sp[:, src, :])
    for src, dst, _ in pairs:
        b.expected[f"sp.{src}.{dst}"] = digest(le_sp[1:n_sp, src, dst])

    # d_<=a (x) d_<=b = d_<=a+b, so every kernel output is a reference slice.
    le = tables[kernel]
    n = le.shape[1]
    half = max(1, (n - 1) // 2)
    products = [tuple(int(x) for x in rng.integers(1, half + 1, size=2)) for _ in range(4)]
    for i, (x, y) in enumerate(products):
        b.arrays[f"mp.{i}.a"], b.arrays[f"mp.{i}.b"] = le[x], le[y]
        b.expected[f"mp.{i}"] = digest(le[x + y])
    a0, b0 = (int(x) for x in rng.integers(0, 3, size=2))
    b.arrays["seq.a"], b.arrays["seq.b"] = le[a0 : a0 + 3], le[b0 : b0 + 3]
    b.expected["seq.out"] = digest(le[a0 + b0 : a0 + b0 + 5])
    rows = np.sort(rng.choice(n, size=min(n, 16), replace=False))
    cols = np.sort(rng.choice(n, size=min(n, 16), replace=False))
    b.arrays["poly.a"] = le[a0 : a0 + 2][:, rows, :]
    b.arrays["poly.b"] = le[b0 : b0 + 2][:, :, cols]
    b.expected["poly.out"] = digest(le[a0 + b0 : a0 + b0 + 3][:, rows][:, :, cols])
    b.params.update(
        all_pairs=list(all_pairs), apah=list(all_pairs) + list(apah_only),
        pointwise=pointwise[0], sources=sources, pairs=pairs, products=len(products),
        offsets=(a0, b0), plan_seed=s.plan_seed(),
    )


def setup_solve_sparse(s: Setup, toy: bool) -> None:
    n, count, big = (12, 2, 16) if toy else (64, 6, 128)
    rng = s.rng
    _solve_setup(
        s,
        all_pairs={f"sparse{i}": inputs.sparse_graph(rng, n, 4 * n, M) for i in range(count)},
        apah_only={"sparse-big": inputs.sparse_graph(rng, big, 4 * big, M)},
        kernel="sparse-big",
        pointwise=("sparse-pt", *inputs.sparse_graph(rng, n, 4 * n, M)),
    )


def setup_solve_longhop(s: Setup, toy: bool) -> None:
    n, depth = (12, 2) if toy else (64, 4)
    rng = s.rng
    _solve_setup(
        s,
        all_pairs={"chain": inputs.chain_dag(rng, n, 3 * n, M), "tree": inputs.tree_gadget(depth)},
        apah_only={},
        kernel="chain",
        pointwise=("chain-pt", *inputs.chain_dag(rng, n, 3 * n, M)),
    )


def hierarchy_ok(h, n: int, pins) -> bool:
    """Levels are sorted vertex sets holding the pins, nested in the
    hierarchy's direction, with V at the open end."""
    levels = list(h.levels)
    if h.direction == "growing":
        levels.reverse()
    pins = set(pins)
    ok = np.array_equal(levels[0], np.arange(n))
    for outer, inner in zip(levels, levels[1:]):
        ok &= bool(np.all(np.diff(inner) > 0)) and set(inner.tolist()) <= set(outer.tolist())
    return ok and all(pins <= set(lv.tolist()) for lv in levels)


def _graphs(p: Pass, b: Bundle) -> dict:
    out = {}
    for name, text in b.texts.items():
        g = p.call("graph.parse", parse_graph, text)
        p.check(f"parse.{name}", graph_rows(g.n, g.edges, g.declared_M))
        p.expect(f"negcycle.{name}", p.call("graph.negcycle", detect_negative_cycle, g) is False)
        out[name] = g
    return out


def solve_pass(p: Pass, b: Bundle) -> None:
    prm = b.params
    graphs = _graphs(p, b)
    plan = SamplePlan(C, prm["plan_seed"])
    for name in prm["all_pairs"]:
        t = p.call("solvers.all_pairs", all_pairs_allhops, graphs[name], plan)
        p.check(f"le.{name}", t.le)
        p.count("solvers.table_mb", t.le.nbytes / 1e6)
    for name in prm["apah"]:
        g = graphs[name]
        t = p.call("baselines.apah", apah_brute, g, None, False)
        p.check(f"le.{name}", t.le)
        p.count("baselines.relaxations", g.m * t.H * len(t.sources))
        p.count("baselines.table_mb", t.le.nbytes / 1e6)

    for i in range(prm["products"]):
        a, c = square_matrix(b.arrays[f"mp.{i}.a"]), square_matrix(b.arrays[f"mp.{i}.b"])
        out = p.call("minplus.product", minplus_product, a, c)
        p.check(f"mp.{i}", out.data)
        ops = a.data.shape[0] * a.data.shape[1] * c.data.shape[1]
        p.count("minplus.cell_ops", ops)
        p.count("minplus.product_ops", ops)
    a0, b0 = prm["offsets"]
    for strategy, key, name in (
        ("naive", "seq", "minplus.matseq_naive"),
        ("polynomial", "poly", "minplus.matseq_poly"),
    ):
        sa, sb = b.arrays[f"{key}.a"], b.arrays[f"{key}.b"]
        A = MatrixSeq(a0, range(sa.shape[1]), range(sa.shape[2]), sa)
        B = MatrixSeq(b0, range(sb.shape[1]), range(sb.shape[2]), sb)
        out = p.call(name, matseq_convolution, A, B, strategy)
        p.check(f"{key}.out", out.data)
        p.expect(f"{name} offset", out.offset == a0 + b0)
        p.count("minplus.cell_ops", sa.shape[0] * sb.shape[0] * sa.shape[1] * sa.shape[2] * sb.shape[2])

    g = graphs[prm["pointwise"]]
    for src in prm["sources"]:
        h = p.call("sampling.hierarchy", growing_hierarchy, g.n, 2, plan.with_pins({src}))
        p.expect("sampling.growing", hierarchy_ok(h, g.n, {src}))
        t = p.call("solvers.single_source", single_source_allhops, g, src, 2, plan)
        p.check(f"ss.{src}", t.le[:, 0, :])
        p.count("solvers.table_mb", t.le.nbytes / 1e6)
    for src, dst, k in prm["pairs"]:
        h = p.call("sampling.hierarchy", shrinking_hierarchy, g.n, k, plan.with_pins({src, dst}))
        p.expect("sampling.shrinking", hierarchy_ok(h, g.n, {src, dst}))
        vals = p.call("solvers.single_pair", single_pair_allhops, g, src, dst, k, plan)
        p.check(f"sp.{src}.{dst}", vals)
        p.count("solvers.table_mb", vals.nbytes / 1e6)


# ---------------------------------------------------------------------------
# oracle-serve: build, snapshot round trip, query stream


def setup_oracle_serve(s: Setup, toy: bool) -> None:
    n, queries = (12, 40) if toy else (64, 600)
    b, rng = s.bundle, s.rng
    le = s.graph("oracle", *inputs.sparse_graph(rng, n, 4 * n, M))
    u, v, h = rng.integers(0, n, queries), rng.integers(0, n, queries), rng.integers(1, n, queries)
    b.arrays["queries"] = np.column_stack([u, v, h])
    b.expected["answers"] = canonical(le[h, u, v])
    b.params["plan_seed"] = s.plan_seed()


def oracle_pass(p: Pass, b: Bundle) -> None:
    g = _graphs(p, b)["oracle"]
    plan = SamplePlan(C, b.params["plan_seed"])
    triples = b.arrays["queries"].tolist()
    for kind in KINDS:
        built = p.call(f"oracles.build.{kind}", BUILDERS[kind], g, plan)
        if kind in SAMPLED:
            cells = built.storage_cells()
        else:
            p.check("le.oracle", built.le)
            cells = built.le.size
        p.count(f"oracles.storage_cells.{kind}", cells)
        blob = p.call("oracles.save", save_oracle, built)
        p.count(f"oracles.snapshot_mb.{kind}", len(blob) / 1e6)
        oracle = p.call("oracles.load", load_oracle, blob)
        oracle.counters.reset()
        name = f"oracles.query.{kind}"
        answers = [p.call(name, oracle.query, u, v, h) for u, v, h in triples]
        p.check("answers", answers)
        if kind in SAMPLED:
            p.count(f"oracles.adds_per_query.{kind}", oracle.counters.adds / len(triples))


# ---------------------------------------------------------------------------
# cli-batch: allhops.cli.main in-process, stdout to a file, parsed back


def setup_cli_batch(s: Setup, toy: bool) -> None:
    n, queries = (10, 20) if toy else (48, 200)
    b, rng = s.bundle, s.rng
    le = s.graph("cli", *inputs.sparse_graph(rng, n, 4 * n, M))
    src = int(rng.integers(0, n))
    q = np.column_stack([rng.integers(0, n, queries), rng.integers(0, n, queries), rng.integers(1, n, queries)])
    files = {name: str(s.work / name) for name in ("graph.txt", "queries.txt", "oracle.bin", "stdout.txt")}
    Path(files["graph.txt"]).write_text(b.texts["cli"])
    Path(files["queries.txt"]).write_text("".join(f"{u} {v} {h}\n" for u, v, h in q.tolist()))
    hops = range(1, n)
    b.expected["cli.all_pairs"] = digest(rows_uvhd(le, range(n), hops))
    b.expected["cli.row"] = digest(rows_uvhd(le, [src], hops))
    b.expected["cli.queries"] = digest(
        np.column_stack([q, le[q[:, 2], q[:, 0], q[:, 1]]])
    )
    b.params.update(files=files, source=src, plan_seed=s.plan_seed())


def _run_cli(argv, out_path: str) -> int:
    with open(out_path, "w") as f, contextlib.redirect_stdout(f):
        return cli_main(argv)


def _int_or_inf(x):
    if x == "inf":
        return math.inf
    if type(x) is str:
        return int(x)
    if type(x) is int:
        return x
    raise ValueError(f"not an integer: {x!r}")


def _records(text: str, fields) -> np.ndarray:
    """(u, v, h, d) rows, filled line by line so that checking the output
    adds little to the measuring process's peak memory."""
    out = np.empty((text.count("\n"), 4))
    i = 0
    for line in io.StringIO(text):
        if not line.startswith("#"):
            out[i] = [_int_or_inf(x) for x in fields(line)]
            i += 1
    return out[:i]


def _tsv_fields(line: str):
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 fields: {line!r}")
    return fields


def _jsonl_fields(line: str):
    obj = json.loads(line)
    if list(obj) != ["u", "v", "h", "d"]:
        raise ValueError(f"unexpected keys: {line!r}")
    return obj.values()


def parse_tsv(text: str) -> np.ndarray:
    return _records(text, _tsv_fields)


def parse_jsonl(text: str) -> np.ndarray:
    return _records(text, _jsonl_fields)


def cli_pass(p: Pass, b: Bundle) -> None:
    prm = b.params
    f = prm["files"]
    graph, out = f["graph.txt"], f["stdout.txt"]
    seed = str(prm["plan_seed"])
    src = str(prm["source"])
    calls = (
        ("cli.check", ["check", "--graph", graph], None, None),
        ("cli.all_pairs_tsv", ["all-pairs", "--graph", graph, "--seed", seed], parse_tsv, "cli.all_pairs"),
        ("cli.all_pairs_jsonl", ["--format", "json-lines", "all-pairs", "--graph", graph, "--seed", seed],
         parse_jsonl, "cli.all_pairs"),
        ("cli.single_source", ["single-source", "--graph", graph, "--s", src, "--seed", seed], parse_tsv, "cli.row"),
        ("cli.bf", ["bf", "--graph", graph, "--s", src], parse_tsv, "cli.row"),
        ("cli.oracle_build", ["oracle", "build", "--kind", "mn", "--graph", graph, "--out", f["oracle.bin"],
                              "--seed", seed], None, None),
        ("cli.oracle_query", ["oracle", "query", "--oracle", f["oracle.bin"], "--queries", f["queries.txt"]],
         parse_tsv, "cli.queries"),
    )
    for name, argv, parse, key in calls:
        rc = p.call(name, _run_cli, argv, out)
        text = Path(out).read_text()
        p.count("cli.out_mb", len(text) / 1e6)
        p.expect(f"{name} exit {rc}", rc == 0)
        if parse is None:
            want = "no negative cycle\n" if name == "cli.check" else ""
            p.expect(f"{name} output", text == want)
            continue
        try:
            rows = parse(text)
        except ValueError:
            p.gate.fail(f"{name} output unreadable")
            continue
        p.check(key, rows)
        p.count("cli.rows", len(rows))
    if p.traced:
        p.count("cli.library_s", _library_equivalents(b))


def _library_equivalents(b: Bundle) -> float:
    """Seconds the library takes for the same inputs as the CLI calls; the
    difference is the CLI's own share (`cli.overhead_s`)."""
    prm = b.params
    text = b.texts["cli"]
    plan = SamplePlan(C, prm["plan_seed"])
    with open(prm["files"]["queries.txt"]) as fh:
        triples = [tuple(int(x) for x in line.split()) for line in fh]
    t0 = perf_counter()
    g = parse_graph(text)
    detect_negative_cycle(g)
    for _ in range(2):  # tsv and json-lines
        all_pairs_allhops(parse_graph(text), plan)
    single_source_allhops(parse_graph(text), prm["source"], 2, plan)
    bellman_ford_allhops(parse_graph(text), prm["source"], g.n - 1)
    blob = save_oracle(build_oracle_mn(parse_graph(text), plan))
    oracle = load_oracle(blob)
    for u, v, h in triples:
        oracle.query(u, v, h)
    return perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Setup, bool], None]
    run_pass: Callable[[Pass, Bundle], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-sparse",
            "random graphs with H* far below n: the sp/ss solvers live in mp_array, so horizon "
            "shortcuts and kernel rewrites show here",
            setup_solve_sparse, solve_pass,
        ),
        Workload(
            "solve-longhop",
            "chain DAG and tree gadget where d_<=h keeps changing to large h: a shortcut that only "
            "pays on random graphs must show no change here",
            setup_solve_longhop, solve_pass,
        ),
        Workload(
            "oracle-serve",
            "all five oracle kinds built, snapshotted and queried on one graph: work moved between "
            "build, snapshot and query shows as one figure improving while another worsens",
            setup_oracle_serve, oracle_pass,
        ),
        Workload(
            "cli-batch",
            "allhops.cli.main in-process with output to a file: the only workload where rendering, "
            "not the solvers, does most of the work",
            setup_cli_batch, cli_pass,
        ),
    )
}
