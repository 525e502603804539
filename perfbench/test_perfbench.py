"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from allhops import apah_brute, build_tree_gadget, detect_negative_cycle, graph_from_edges  # noqa: E402

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate, canonical, digest  # noqa: E402
from measure import measure, result  # noqa: E402
from workloads import WORKLOADS, Setup  # noqa: E402


def toy_setup(name: str, work: Path, seed: int = 3) -> Setup:
    work.mkdir(parents=True, exist_ok=True)
    s = Setup(name, seed, work)
    WORKLOADS[name].setup(s, True)
    return s


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_is_exact_at_toy_size(name, tmp_path):
    s = toy_setup(name, tmp_path)
    assert run.cross_check(s) == []
    passes, gate = measure(s.bundle, 0.0, trace=True)
    assert gate.attempted > 0
    assert gate.failed == 0, gate.failures
    traced = result(passes, gate, trace=True)["metrics"]
    assert traced["error_rate"] == 0
    assert set(traced) == {n for n, _, _ in metrics.PER_LAYER}
    untraced = result(*measure(s.bundle, 0.0, trace=False), trace=False)["metrics"]
    assert untraced["run_s"] > 0 and untraced["peak_rss_mb"] > 0


def test_every_layer_is_measured_by_some_workload(tmp_path):
    busy = set()
    for name in WORKLOADS:
        s = toy_setup(name, tmp_path / name)
        values = result(*measure(s.bundle, 0.0, trace=True), trace=True)["metrics"]
        busy |= {layer for layer in metrics.LAYERS if values[f"{layer}.busy_s"] > 0}
    assert busy == set(metrics.LAYERS)


class CorruptingGate(Gate):
    """Adds 1 to one finite entry of the first result of the chosen kind."""

    def __init__(self, expected, kind):
        super().__init__(expected)
        self.kind = kind
        self.done = False

    def check(self, key, got):
        if not self.done and isinstance(self.expected[key], self.kind):
            got = np.array(got, dtype=np.float64)
            flat = got.reshape(-1)
            flat[np.flatnonzero(np.isfinite(flat))[0]] += 1
            self.done = True
        return super().check(key, got)


@pytest.mark.parametrize("name, kind", [("solve-sparse", str), ("oracle-serve", np.ndarray),
                                        ("cli-batch", str)])
def test_gate_reports_a_corrupted_result(name, kind, tmp_path):
    s = toy_setup(name, tmp_path)
    gate = CorruptingGate(s.bundle.expected, kind)
    passes, gate = measure(s.bundle, 0.0, trace=False, gate=gate)
    assert gate.done
    assert gate.failed == 1
    assert result(passes, gate, trace=True)["metrics"]["error_rate"] > 0


def test_gate_rejects_inexact_values():
    table = np.array([[0.0, 3.0], [np.inf, 0.0]])
    assert digest(table) == digest(table.copy())
    assert digest(table + 0.5) is None
    assert canonical([np.nan]) is None and canonical([-np.inf]) is None
    gate = Gate({"t": digest(table), "a": canonical([1.0, np.inf])})
    assert gate.check("t", table) and gate.check("a", [1, np.inf])
    assert not gate.check("a", [1.0000001, np.inf])
    assert not gate.check("t", table.T)
    assert gate.failed == 2


def test_cli_output_is_parsed_back_strictly():
    want = [[0, 1, 2, np.inf], [3, 4, 5, -6]]
    assert workloads.parse_tsv("# u v h d\n0\t1\t2\tinf\n3\t4\t5\t-6\n").tolist() == want
    jsonl = '{"u": 0, "v": 1, "h": 2, "d": "inf"}\n{"u": 3, "v": 4, "h": 5, "d": -6}\n'
    assert workloads.parse_jsonl(jsonl).tolist() == want
    for bad in ("0\t1\t2\t3.0\n", "0\t1\t2\n", "0\t1\t2\tnan\n"):
        with pytest.raises(ValueError):
            workloads.parse_tsv(bad)
    for bad in ('{"u": 0, "v": 1, "h": 2, "d": 3.0}\n', '{"u": 0, "v": 1, "d": 3, "h": 2}\n'):
        with pytest.raises(ValueError):
            workloads.parse_jsonl(bad)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_tree_gadget_is_the_papers_construction(depth):
    n, edges = inputs.tree_gadget(depth)
    want = build_tree_gadget(depth).graph
    assert (n, tuple(edges)) == (want.n, want.edges)


def test_chain_dag_keeps_improving_to_n_minus_1():
    n, edges = inputs.chain_dag(np.random.default_rng(5), 20, 60, 8)
    g = graph_from_edges(n, edges)
    assert len(set((u, v) for u, v, _ in edges)) == len(edges) == 19 + 60
    assert not detect_negative_cycle(g)
    assert inputs.stabilization_hop(apah_brute(g, with_exact=False).le) == n - 1


def test_sparse_graph_is_seeded_and_free_of_negative_cycles():
    n, edges = inputs.sparse_graph(np.random.default_rng(9), 30, 120, 8)
    assert (n, edges) == inputs.sparse_graph(np.random.default_rng(9), 30, 120, 8)
    assert len({(u, v) for u, v, _ in edges}) == 120
    assert all(u != v and abs(w) <= 8 for u, v, w in edges)
    assert not detect_negative_cycle(graph_from_edges(n, edges))


def test_benchmark_json_matches_the_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json(WORKLOADS.values())


def test_launcher_prints_the_result_line():
    line, record = run.run("cli-batch", 4, 0.0, trace=False, toy=True)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {n for n, _, _, _ in metrics.END_TO_END}
    assert all(record["inputs"][0][k] for k in ("n", "m", "M", "hstar"))
    assert record["machine"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
