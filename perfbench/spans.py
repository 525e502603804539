"""One closed-loop pass over a workload's call list: per-call timing, the
gate, computed work counts and, in traced passes, spans.

Spans are recorded here, around the benchmark's own calls into the
library's public functions; the library itself is not instrumented.  A
span is (name, start, end); its parent is the pass that made the call.
The layer of a call is the prefix of its name (`solvers.all_pairs` belongs
to `solvers`).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from gate import Gate


class PassAborted(Exception):
    """A call raised; the rest of the pass depends on it and is skipped."""


class Pass:
    def __init__(self, gate: Gate, traced: bool):
        self.gate = gate
        self.traced = traced
        self.times: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float]] = []
        self.aborted = False
        self.start = perf_counter()
        self.end = self.start

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call; only the call itself (and, when traced, its span
        record) is inside the timed window."""
        self.gate.attempt()
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.gate.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise PassAborted(name) from exc
        if self.traced:
            self.spans.append((name, t0, perf_counter()))
        self.times[name].append(perf_counter() - t0)
        return out

    def check(self, key: str, got) -> bool:
        return self.gate.check(key, got)

    def expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.gate.fail(what)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def seconds(self, prefix: str = "") -> float:
        return sum(sum(ts) for name, ts in self.times.items() if name.startswith(prefix))

    @property
    def run_s(self) -> float:
        """Wall seconds of this pass's timed calls."""
        return self.seconds()
