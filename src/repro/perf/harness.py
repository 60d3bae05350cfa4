"""The performance harness: timed benchmark runs, a stable JSON schema and
baseline comparison.

Every benchmark is a :class:`BenchSpec` — a name, a callable returning a
rate (higher is better) and a unit.  Each sample is scaled to a reference
host speed by a fixed loop timed just before and just after it (see
:func:`reference_ns_per_step`), so every recorded value is already
host-speed normalised and no consumer scales it again.  :func:`run_suite`
executes a list of specs with repeats and returns a report dict in the
``duet-repro/bench-kernel/v2`` schema, which :func:`write_report`
serializes to ``BENCH_kernel.json``.  :func:`compare_reports` diffs a
fresh report against a committed baseline and flags regressions beyond a
tolerance — that comparison is what the CI perf smoke job gates on.  See
``docs/performance.md`` for the schema and workflow.
"""

from __future__ import annotations

import datetime
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Bump only when the report layout or the meaning of a recorded number
#: changes incompatibly.
SCHEMA = "duet-repro/bench-kernel/v2"

#: Whether this interpreter is PyPy.  The perf suite runs fine under PyPy,
#: but the reference loop is a CPython-specific proxy: under a tracing JIT
#: it compiles to a few machine instructions and stops tracking how fast
#: the *suite* runs.  So on PyPy samples are recorded unscaled with a
#: ``null`` speed, and compare only against a baseline from the same
#: interpreter.
IS_PYPY = "__pypy__" in sys.builtin_module_names

#: Host nanoseconds per step of :func:`reference_ns_per_step`'s loop at the
#: reference speed.  Every sample is scaled to that speed by the loop timed
#: just before and after it: a shared host switches between speed states
#: about 1.5x apart, sometimes within one suite run.  The same constant and
#: loop scale the ``duetbench`` host times, so both report in one unit.
REFERENCE_NS_PER_STEP = 100.0


def _reference_step(value: int) -> int:
    return value + 1


def reference_ns_per_step() -> float:
    """Median host nanoseconds per step of a fixed pure-Python loop (a call
    and a dict store), over five timings of 40,000 steps."""
    table: Dict[int, int] = {}
    samples = []
    for _ in range(5):
        start = time.perf_counter_ns()
        for index in range(40_000):
            table[index & 255] = _reference_step(index)
        samples.append((time.perf_counter_ns() - start) / 40_000)
    return statistics.median(samples)


def _timed_sample(fn: Callable[..., float],
                  params: Dict[str, Any]) -> Tuple[float, Optional[float]]:
    """One raw rate from ``fn(**params)`` and the host speed around it.

    The speed is the reference step time over the mean of the loop timed
    just before and just after the call: above 1 on a host faster than the
    reference, ``None`` on PyPy.
    """
    if IS_PYPY:
        return float(fn(**params)), None
    before = reference_ns_per_step()
    raw = float(fn(**params))
    after = reference_ns_per_step()
    return raw, REFERENCE_NS_PER_STEP * 2 / (before + after)


def interpreter_info() -> Dict[str, str]:
    """Implementation + version of the running interpreter.

    Recorded in every ``BENCH_*.json`` so a baseline from one interpreter
    is never silently compared against a run from another.
    """
    return {
        "implementation": platform.python_implementation().lower(),
        "version": platform.python_version(),
    }

#: Default regression tolerance (fraction of the baseline value).
DEFAULT_TOLERANCE = 0.2

#: Benchmarks that fail a gated comparison when they regress: the kernel
#: headline number, the batched-NoC 8x8 mesh microbenchmark, the same NoC
#: workload with the energy-accounting hooks live — gating that one is
#: what keeps the power layer's hot-path cost near zero — the serving
#: subsystem's end-to-end request rate, the same serving workload with a
#: live repro.obs tracer (the lifecycle hooks' hot-path cost, same idea
#: as the NoC hooks-on gate), the duo workload on a 4-region grid
#: (allocator + partial programming on the hot path), the fleet layer's
#: cluster-wide request rate, the same fleet workload with live telemetry
#: windows and alert evaluation attached (the monitor-on cost — same idea
#: as the tracing-on gate), and the fleet path under injected faults with
#: recovery on (failover, spare promotion and replay included).
DEFAULT_GATES = ("kernel_events_per_sec", "noc_messages_per_sec",
                 "noc_messages_per_sec_hooks_on", "serve_requests_per_sec",
                 "serve_requests_per_sec_tracing_on",
                 "reconfig_requests_per_sec", "fleet_requests_per_sec",
                 "fleet_requests_per_sec_monitor_on",
                 "chaos_requests_per_sec")


@dataclass
class BenchSpec:
    """One benchmark: a rate-returning callable measured ``repeats`` times."""

    name: str
    fn: Callable[..., float]
    unit: str
    #: Keyword arguments forwarded to ``fn`` (recorded in the report).
    params: Dict[str, Any] = field(default_factory=dict)
    repeats: int = 3
    quick_repeats: int = 2

    def run(self, quick: bool = False) -> Dict[str, Any]:
        repeats = self.quick_repeats if quick else self.repeats
        raw_samples, speeds = [], []
        for _ in range(repeats):
            raw, speed = _timed_sample(self.fn, self.params)
            raw_samples.append(raw)
            speeds.append(speed)
        # A rate at reference speed: what this host would have measured
        # running at REFERENCE_NS_PER_STEP.
        samples = [raw if speed is None else raw / speed
                   for raw, speed in zip(raw_samples, speeds)]
        return {
            "name": self.name,
            "unit": self.unit,
            "value": max(samples),
            "samples": samples,
            "raw_samples": raw_samples,
            "speeds": speeds,
            "repeats": repeats,
            "params": dict(self.params),
        }


def run_suite(specs: Sequence[BenchSpec], quick: bool = False,
              progress: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Run every spec and assemble a schema-stable report."""
    benchmarks = []
    for spec in specs:
        if progress is not None:
            progress(f"running {spec.name} ...")
        benchmarks.append(spec.run(quick=quick))
    return {
        "schema": SCHEMA,
        "created_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "interpreter": interpreter_info(),
        "mode": "quick" if quick else "full",
        "benchmarks": benchmarks,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unknown benchmark schema {report.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    return report


@dataclass
class Comparison:
    """Outcome of comparing one benchmark against the baseline."""

    name: str
    baseline: float
    current: float
    ratio: float          # current / baseline (> 1 is an improvement)
    regressed: bool
    gated: bool


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE,
                    gates: Sequence[str] = DEFAULT_GATES) -> List[Comparison]:
    """Compare two reports benchmark-by-benchmark.

    Every value is a rate already scaled to the reference host speed, so
    ``ratio`` is ``current / baseline`` and > 1 is always an improvement.
    A benchmark *regresses* when its ratio falls below ``1 - tolerance``;
    only benchmarks named in ``gates`` make :func:`has_gated_regression`
    fail.
    """
    by_name = {bench["name"]: bench for bench in baseline.get("benchmarks", ())}
    comparisons: List[Comparison] = []
    for bench in current.get("benchmarks", ()):
        base = by_name.get(bench["name"])
        if base is None or not base.get("value"):
            continue
        if bench.get("params") != base.get("params"):
            # Different problem sizes — a ratio would be meaningless and
            # could mask a real regression behind a smaller workload.
            continue
        ratio = bench["value"] / base["value"]
        comparisons.append(Comparison(
            name=bench["name"],
            baseline=base["value"],
            current=bench["value"],
            ratio=ratio,
            regressed=ratio < (1.0 - tolerance),
            gated=bench["name"] in gates,
        ))
    return comparisons


def has_gated_regression(comparisons: Sequence[Comparison]) -> bool:
    return any(c.regressed and c.gated for c in comparisons)


def format_comparisons(comparisons: Sequence[Comparison]) -> str:
    lines = [f"{'benchmark':<34} {'baseline':>14} {'current':>14} {'ratio':>7}  status"]
    for c in comparisons:
        status = "OK"
        if c.regressed:
            status = "REGRESSED" if c.gated else "regressed (not gated)"
        elif c.ratio > 1.05:
            status = "improved"
        lines.append(
            f"{c.name:<34} {format(c.baseline, ',.6g'):>14} "
            f"{format(c.current, ',.6g'):>14} {c.ratio:>6.2f}x  {status}"
        )
    return "\n".join(lines)
