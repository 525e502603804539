"""Measuring process: runs one workload's passes for a fixed time and
prints its result as one JSON line.

It runs in a process of its own, started by run.py, so that `peak_rss_mb`
is this workload's alone and excludes set-up and the reference tables.
In a traced run, untraced and traced passes alternate: the workload's own
figures come from the untraced ones, the layer split from the traced ones,
and their difference in `run_s` is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import metrics  # noqa: E402
from gate import Gate  # noqa: E402
from spans import Pass, PassAborted  # noqa: E402
from workloads import WORKLOADS, Bundle  # noqa: E402


def measure(bundle: Bundle, seconds: float, trace: bool, gate: Gate | None = None):
    """Run passes until `seconds` have elapsed (at least one, or one of
    each mode when tracing).  Returns (passes, gate)."""
    gate = gate or Gate(bundle.expected)
    run_pass = WORKLOADS[bundle.workload].run_pass
    passes = []
    deadline = perf_counter() + seconds
    while True:
        p = Pass(gate, traced=trace and len(passes) % 2 == 1)
        try:
            run_pass(p, bundle)
        except PassAborted:
            p.aborted = True
        p.end = perf_counter()
        passes.append(p)
        if perf_counter() >= deadline and len(passes) >= (2 if trace else 1):
            return passes, gate


def result(passes, gate: Gate, trace: bool) -> dict:
    if trace:
        values = metrics.per_layer(
            [p for p in passes if not p.traced], [p for p in passes if p.traced],
            gate.attempted, gate.failed,
        )
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = metrics.end_to_end(passes, peak_mb)
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "passes": len(passes),
        "run_s_per_pass": [p.run_s for p in passes],
        "metrics": values,
    }


def span_records(passes) -> list:
    """[id, name, start, end, parent] with times relative to the first pass."""
    origin = passes[0].start
    out = []
    for p in passes:
        if not p.traced:
            continue
        pid = len(out)
        out.append([pid, "pass", p.start - origin, p.end - origin, None])
        for name, s, e in p.spans:
            out.append([len(out), name, s - origin, e - origin, pid])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bundle", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="file to write the traced passes' spans to")
    args = ap.parse_args(argv)
    with open(args.bundle, "rb") as f:
        bundle = pickle.load(f)
    passes, gate = measure(bundle, args.seconds, bool(args.trace))
    if args.trace and args.spans:
        Path(args.spans).write_text(json.dumps({"spans": span_records(passes)}))
    print(json.dumps(result(passes, gate, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
