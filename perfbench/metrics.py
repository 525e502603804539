"""Metric definitions and their computation from recorded passes.

`python3 perfbench/metrics.py` writes BENCHMARK.json from the definitions
below, so the file and the benchmark cannot drift apart.

Every run prints every metric of its kind, whatever the workload: the
end-to-end metrics apply to all four workloads, and a per-layer metric
of a layer that a workload never calls reads 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

RUN_SECONDS = 25
LAYERS = ("graph", "baselines", "minplus", "sampling", "solvers", "oracles", "cli")
KINDS = ("powers", "bf", "mn", "mpp", "bounded")
SAMPLED = ("mn", "mpp", "bounded")

# name, unit, better, bound (share of the parent's median).  On the 2-core
# shared VM this was tuned on, machine speed drifts by up to 60% in regimes
# lasting tens of seconds, so the IQR/median of run_s over ten 25-second
# runs was 4-18%: run_s gets the widest bound the benchmark allows.
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# Per-layer metric -> the benchmark call whose summed seconds it reports.
CALL_SECONDS = {
    "graph.negcycle_s": "graph.negcycle",
    "graph.parse_s": "graph.parse",
    "baselines.apah_s": "baselines.apah",
    "minplus.product_s": "minplus.product",
    "minplus.matseq_naive_s": "minplus.matseq_naive",
    "minplus.matseq_poly_s": "minplus.matseq_poly",
    "sampling.hierarchy_s": "sampling.hierarchy",
    "solvers.all_pairs_s": "solvers.all_pairs",
    "solvers.single_source_s": "solvers.single_source",
    "solvers.single_pair_s": "solvers.single_pair",
    **{f"oracles.build_s.{k}": f"oracles.build.{k}" for k in KINDS},
    "oracles.save_s": "oracles.save",
    "oracles.load_s": "oracles.load",
    "cli.all_pairs_tsv_s": "cli.all_pairs_tsv",
    "cli.all_pairs_jsonl_s": "cli.all_pairs_jsonl",
    "cli.single_source_s": "cli.single_source",
    "cli.bf_s": "cli.bf",
    "cli.oracle_build_s": "cli.oracle_build",
    "cli.oracle_query_s": "cli.oracle_query",
}

# Per-layer counts computed from shapes and the oracles' public counters.
COUNTS = {
    "baselines.relaxations": "count",
    "baselines.table_mb": "MB",
    "minplus.cell_ops": "count",
    "solvers.table_mb": "MB",
    **{f"oracles.storage_cells.{k}": "count" for k in KINDS},
    **{f"oracles.snapshot_mb.{k}": "MB" for k in KINDS},
    **{f"oracles.adds_per_query.{k}": "count" for k in SAMPLED},
    "cli.out_mb": "MB",
}

PER_LAYER = (
    # the workloads' own figures, from untraced passes
    ("error_rate", "ratio", "lower"),
    ("oracle_build_s", "s", "lower"),
    ("snapshot_s", "s", "lower"),
    ("query_us_p50", "us", "lower"),
    ("query_us_p99", "us", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("query_samples", "count", "higher"),
    ("cli_rows_per_s", "1/s", "higher"),
    # the layer split, from traced passes
    *((f"{layer}.busy_s", "s", "lower") for layer in LAYERS),
    *((f"{layer}.calls", "count", "lower") for layer in LAYERS),
    *((name, "s", "lower") for name in CALL_SECONDS),
    *((name, unit, "lower") for name, unit in COUNTS.items()),
    ("minplus.product_ns_per_op", "ns", "lower"),
    *((f"oracles.query_us_p50.{k}", "us", "lower") for k in KINDS),
    *((f"oracles.query_us_p99.{k}", "us", "lower") for k in KINDS),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def benchmark_json(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _pooled(passes, names) -> np.ndarray:
    return np.array([t for p in passes for name in names for t in p.times.get(name, ())])


def _percentile_us(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q) * 1e6) if samples.size else 0.0


def end_to_end(passes, peak_rss_mb: float) -> dict:
    """run_s and peak_rss_mb; the launcher adds setup_s."""
    return {"run_s": _median(p.run_s for p in passes if not p.aborted), "peak_rss_mb": peak_rss_mb}


def per_layer(untraced, traced, attempted: int, failed: int) -> dict:
    """untraced / traced: the passes of a traced run, split by mode."""
    untraced = [p for p in untraced if not p.aborted]
    traced = [p for p in traced if not p.aborted]
    out = {"error_rate": failed / max(1, attempted)}

    sampled = [f"oracles.query.{k}" for k in SAMPLED]
    lat = _pooled(untraced, sampled)
    out["oracle_build_s"] = _median(p.seconds("oracles.build.") for p in untraced)
    out["snapshot_s"] = _median(p.seconds("oracles.save") + p.seconds("oracles.load") for p in untraced)
    out["query_us_p50"] = _percentile_us(lat, 50)
    out["query_us_p99"] = _percentile_us(lat, 99)
    out["queries_per_s"] = lat.size / lat.sum() if lat.size else 0.0
    out["query_samples"] = lat.size
    cli_s = sum(p.seconds("cli.") for p in untraced)
    out["cli_rows_per_s"] = sum(p.counts["cli.rows"] for p in untraced) / cli_s if cli_s else 0.0

    for layer in LAYERS:
        out[f"{layer}.busy_s"] = _median(
            sum(e - s for name, s, e in p.spans if name.startswith(layer + ".")) for p in traced
        )
        out[f"{layer}.calls"] = _median(
            sum(name.startswith(layer + ".") for name, _, _ in p.spans) for p in traced
        )
    for metric, call in CALL_SECONDS.items():
        out[metric] = _median(sum(p.times.get(call, ())) for p in traced)
    for metric in COUNTS:
        out[metric] = _median(p.counts[metric] for p in traced)
    out["minplus.product_ns_per_op"] = _median(
        sum(p.times.get("minplus.product", ())) / p.counts["minplus.product_ops"] * 1e9
        for p in traced
        if p.counts["minplus.product_ops"]
    )
    for k in KINDS:
        lat_k = _pooled(traced, [f"oracles.query.{k}"])
        out[f"oracles.query_us_p50.{k}"] = _percentile_us(lat_k, 50)
        out[f"oracles.query_us_p99.{k}"] = _percentile_us(lat_k, 99)
    out["cli.overhead_s"] = _median(
        p.seconds("cli.") - p.counts["cli.library_s"] for p in traced if p.counts["cli.library_s"]
    )
    out["trace.overhead_s"] = _median(p.run_s for p in traced) - _median(p.run_s for p in untraced)
    return out


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(WORKLOADS.values()), indent=2) + "\n")
    print(f"wrote {path}")
