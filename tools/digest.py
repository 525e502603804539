"""Print one sha256 over the solvers' and oracles' outputs on a fixed set of
seeded graphs, so that two checkouts can be compared for bit-identity.

The graphs come from the library's own generators: sparse and dense
random graphs (`gen_random_graph`), chain DAGs (`graph_from_edges` on a
seeded Hamiltonian path plus heavier forward chords) and a tree gadget
(`build_tree_gadget`).  Each is run under the plans C = 1 and C = 4, seeds
0 and 1.  The hash covers, in a fixed order, every single-pair table (k =
1..3, the `naive` strategy, and the `polynomial` one on the small chain),
the single-source tables (k = 1..3, at every split 0..k), the all-pairs
table and the `mn`, `mpp` and `bounded` snapshot bytes.  For each of
those oracles, built and reloaded from its snapshot, it also covers the
answers to a fixed set of queries, asked one `query` at a time and as
one `query_many`, and the additions each way counted.  A checkout
without `query_many` answers that set with one `query` per query.  It
also covers the snapshot file that `allhops oracle build` writes,
through `cli.main` in this process, for every `--kind` under the same
plan, from the graph rendered to a file.

    PYTHONPATH=src python3 tools/digest.py            # one hash over everything
    PYTHONPATH=src python3 tools/digest.py --labels   # one hash per output label

With `--labels` each line is the sha256 of one output alone, then its
label, so two checkouts' lists can be diffed to see which outputs moved.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from allhops import (
    SamplePlan,
    all_pairs_allhops,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_tree_gadget,
    gen_random_graph,
    graph_from_edges,
    load_oracle,
    render_graph,
    save_oracle,
    single_pair_allhops,
    single_source_allhops,
)
from allhops.cli import main as cli_main
from allhops.oracles import KINDS


def _chain(n: int, seed: int):
    """A path of weight -1 per edge through a random vertex order, plus n
    forward chords heavier than the segment they skip: d_<=h keeps
    improving up to h = n - 1."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = [(order[i], order[i + 1], -1) for i in range(n - 1)]
    pairs = set()
    while len(pairs) < n:
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if j > i + 1:
            pairs.add((i, j))
    edges += [(order[i], order[j], rng.integers(0, 2 * n)) for i, j in sorted(pairs)]
    return graph_from_edges(n, edges, 2 * n)


def _graphs():
    """(name, graph, strategies) in a fixed order."""
    yield "tree", build_tree_gadget(4).graph, ("naive",)
    yield "chain10", _chain(10, 3), ("naive", "polynomial")
    for seed in (0, 1):
        sparse = gen_random_graph(48, 192, 8, seed, require_no_neg_cycle=True)
        yield f"sparse{seed}", sparse, ("naive",)
        yield f"chain{seed}", _chain(40, seed), ("naive",)
    yield "dense", gen_random_graph(32, 496, 8, 0, require_no_neg_cycle=True), ("naive",)


def _outputs(work: Path):
    """(label, array or bytes) for every output the digest covers; the CLI
    reads and writes its files in `work`."""
    for name, g, strategies in _graphs():
        n = g.n
        graph = work / f"{name}.el"
        graph.write_text(render_graph(g))
        for C in (1.0, 4.0):
            for seed in (0, 1):
                plan = SamplePlan(C=C, seed=seed)
                key = f"{name} C={C} seed={seed}"
                for s, t in ((0, n - 1), (n // 2, 1)):
                    for k in (1, 2, 3):
                        for strategy in strategies:
                            got = single_pair_allhops(g, s, t, k, plan, strategy)
                            yield f"{key} sp {s} {t} k={k} {strategy}", got
                for k in (1, 2, 3):
                    for split in range(k + 1):
                        got = single_source_allhops(g, n // 3, k, plan, split)
                        yield f"{key} ss k={k} split={split}", got.le
                yield f"{key} ap", all_pairs_allhops(g, plan).le
                for build in (build_oracle_mn, build_oracle_mpp, build_oracle_bounded):
                    oracle = build(g, plan)
                    blob = save_oracle(oracle)
                    yield f"{key} {build.__name__}", blob
                    yield from _answers(f"{key} {build.__name__}", oracle, n)
                    yield from _answers(f"{key} {build.__name__} loaded", load_oracle(blob), n)
                yield from _cli_snapshots(key, graph, C, seed, work / "oracle.ahdo")


def _cli_snapshots(key: str, graph: Path, C: float, seed: int, out: Path):
    """The exit code and the snapshot bytes of `allhops oracle build` for
    every kind, from the graph file under --C and --seed."""
    for kind in KINDS:
        argv = ["oracle", "build", "--kind", kind, "--graph", str(graph), "--out", str(out),
                "--C", str(C), "--seed", str(seed)]
        code = cli_main(argv)
        yield f"{key} cli {kind} exit", np.array([code], dtype=np.int64)
        yield f"{key} cli {kind}", out.read_bytes() if code == 0 else b""
        out.unlink(missing_ok=True)


def _queries(n: int):
    """128 fixed queries (u, v, h) over n vertices, u == v among them."""
    rng = np.random.default_rng(n)
    u, v = rng.integers(0, n, 128), rng.integers(0, n, 128)
    v[::16] = u[::16]
    return u, v, rng.integers(1, max(2, n), 128)


def _answers(key: str, oracle, n: int):
    """The answers to `_queries(n)` and the additions counted, by `query`
    and by `query_many`."""
    u, v, h = _queries(n)

    def one_by_one(u, v, h):
        return np.array([oracle.query(*q) for q in zip(u.tolist(), v.tolist(), h.tolist())])

    for how, ask in (("query", one_by_one), ("query_many", getattr(oracle, "query_many", one_by_one))):
        oracle.counters.reset()
        yield f"{key} {how}", np.asarray(ask(u, v, h), dtype=np.float64)
        yield f"{key} {how} adds", np.array([oracle.counters.adds], dtype=np.int64)


def _bytes(out) -> bytes:
    return out if isinstance(out, bytes) else np.ascontiguousarray(out).tobytes()


def digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for label, out in _outputs(Path(work)):
            h.update(label.encode())
            h.update(_bytes(out))
    return h.hexdigest()


def label_digests():
    """(label, sha256 of that output alone) for every output, in order."""
    with tempfile.TemporaryDirectory() as work:
        for label, out in _outputs(Path(work)):
            yield label, hashlib.sha256(_bytes(out)).hexdigest()


def main(argv=()) -> int:
    if list(argv) == ["--labels"]:
        for label, h in label_digests():
            sys.stdout.write(f"{h}  {label}\n")
    elif argv:
        sys.stderr.write("usage: digest.py [--labels]\n")
        return 2
    else:
        sys.stdout.write(digest() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
