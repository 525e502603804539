#!/usr/bin/env python3
"""Benchmark for allhops: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Set-up (inputs, full-horizon `apah_brute` reference tables, the gate's
expectations) runs several times here and is reported as `setup_s`.
The reference tables are cross-checked once per input against
`allhops_from_powers`, so a change to `baselines` cannot certify itself.
A separate process then runs the workload's passes for S seconds and
checks every timed output.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
run record.  `.perfbench_out/` keeps the run record and, for traced runs,
the spans.
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy is first imported, here and in the
# measuring process, which inherits the environment: the `polynomial`
# min-plus strategy calls float32 matmul.
BLAS_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_CAP)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
# Set-up is repeated until SETUP_BUDGET_S is spent, between SETUP_REPS[0]
# and SETUP_REPS[1] times; `setup_s` is the median.
SETUP_REPS = (5, 15)
SETUP_BUDGET_S = 2.0
# The measuring process must end well inside the 180 s a run may take.
DEADLINE_S = 170


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {
        f"L{_read(index / 'level').strip()} {_read(index / 'type').strip()}": _read(index / "size").strip()
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    }
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_CAP,
        "commit": _git_commit(),
    }


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def set_up(workload: str, seed: int, work: Path, toy: bool):
    """Repeated timed set-ups; returns (seconds per rep, last Setup)."""
    from workloads import WORKLOADS, Setup

    times = []
    while len(times) < SETUP_REPS[0] or (len(times) < SETUP_REPS[1] and sum(times) < SETUP_BUDGET_S):
        gc.collect()
        t0 = perf_counter()
        s = Setup(workload, seed, work)
        WORKLOADS[workload].setup(s, toy)
        with open(work / "bundle.pkl", "wb") as f:
            pickle.dump(s.bundle, f)
        times.append(perf_counter() - t0)
    return times, s


def cross_check(s) -> list[str]:
    """Names of inputs whose apah_brute tables disagree with the min-plus
    powers, or with the tables the expectations were derived from."""
    from allhops import allhops_from_powers, apah_brute
    import numpy as np

    bad = []
    for name, g in s.graphs.items():
        brute, powers = apah_brute(g), allhops_from_powers(g)
        ok = np.array_equal(brute.le, powers.le) and np.array_equal(brute.ex, powers.ex)
        if not (ok and np.array_equal(brute.le, s.tables[name])):
            bad.append(name)
    return bad


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    started = perf_counter()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        setup_times, s = set_up(workload, seed, work, toy)
        bad_inputs = cross_check(s)
        cmd = [
            sys.executable, str(HERE / "measure.py"), "--bundle", str(work / "bundle.pkl"),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--spans", str(OUT / f"{tag}-spans.json"),
        ]
        timeout = max(10.0, DEADLINE_S - (perf_counter() - started))
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = json.loads(child.stdout.strip().splitlines()[-1])
    values = measured["metrics"]
    if not trace:
        values["setup_s"] = statistics.median(setup_times)
    failed = measured["failed"] + len(bad_inputs)
    line = {
        "correct": failed == 0,
        "attempted": measured["attempted"] + len(s.graphs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in _units(trace)},
    }
    record = {
        "workload": workload,
        "machine": machine_record(seed),
        "seconds": seconds,
        "trace": trace,
        "inputs": s.bundle.inputs,
        "setup_s_per_rep": setup_times,
        "passes": measured["passes"],
        "run_s_per_pass": measured["run_s_per_pass"],
        "failures": measured["failures"] + [f"cross-check {name}" for name in bad_inputs],
        "result": line,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return line, record


def _units(trace: bool):
    if trace:
        return [(name, unit) for name, unit, _ in metrics.PER_LAYER]
    return [(name, unit) for name, unit, _, _ in metrics.END_TO_END]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "allhops" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run-record " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
