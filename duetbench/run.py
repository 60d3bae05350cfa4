"""Run one benchmark workload for a fixed host time and print its metrics.

    python3 duetbench/run.py --workload serve_duo --seed 2023 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from the
checkout's ``src``.  Each workload run executes in a freshly forked child
of this process (imports done, nothing else warmed), one at a time, so no
run inherits another's caches, garbage or peak memory.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Where the first traced run of each invocation writes its Chrome trace.
TRACE_DIR = ROOT / ".duetbench"


def _import_checkout() -> None:
    """Put the checkout's ``src`` first on the path and insist on it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"duetbench: no library sources at {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"duetbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


#: Host nanoseconds per step of :func:`reference_ns_per_step`'s loop at the
#: reference speed.  Every reported host time is scaled to that speed by the
#: loop timed just before and after the workload: the CPU under a shared
#: host switches between speed states about 1.5x apart, which moved
#: unscaled 25-second medians by a quarter from run to run.
REFERENCE_NS_PER_STEP = 100.0


def _reference_step(value: int) -> int:
    return value + 1


def reference_ns_per_step() -> float:
    """Median host nanoseconds per step of a fixed pure-Python loop (a call
    and a dict store), over five timings of 40,000 steps."""
    table: Dict[int, int] = {}
    samples = []
    for _ in range(5):
        start = perf_counter_ns()
        for index in range(40_000):
            table[index & 255] = _reference_step(index)
        samples.append((perf_counter_ns() - start) / 40_000)
    return statistics.median(samples)


def _pin_to_one_cpu() -> None:
    """Stay on the lowest-numbered allowed CPU.  On a shared host the CPUs
    can run at different speeds for seconds at a time; pinned, a run does
    not mix them, and the reference loop times the workload's CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def in_child(fn: Callable[..., Dict[str, Any]], *args: Any) -> Dict[str, Any]:
    """Run ``fn(*args)`` in a forked child and return its JSON-able result.

    A raised exception or a child that dies comes back as ``{"error": ...}``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                message = {"result": fn(*args)}
            except Exception:
                message = {"error": traceback.format_exc(limit=-3)}
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(message, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"error": f"child exited with status {status}"}
    message = json.loads(data)
    return message.get("result") or {"error": message["error"]}


def run_once(workload_name: str, seed: int, traced: bool,
             trace_path: str) -> Dict[str, Any]:
    """One workload run with either the setup clock or the layer probes."""
    from duetbench import probes
    from duetbench.workloads import (WORKLOADS, check_digest, check_outcome,
                                     rows_digest)

    workload = WORKLOADS[workload_name]
    if traced:
        recorder = probes.Recorder()
        patches = probes.instrument(recorder)
    else:
        clock = probes.SetupClock()
        patches = clock.install()
    gc.collect()
    before = reference_ns_per_step()
    try:
        start = perf_counter_ns()
        outcome = workload(seed)
        wall_ns = perf_counter_ns() - start
    finally:
        patches.undo()
    speed = REFERENCE_NS_PER_STEP * 2 / (before + reference_ns_per_step())
    digest = rows_digest(outcome.rows)
    result: Dict[str, Any] = {
        "raw_wall_s": wall_ns / 1e9,
        "speed": speed,
        "wall_s": wall_ns / 1e9 * speed,
        "requests": outcome.requests,
        "cells": outcome.cells,
        "digest": digest,
        "failures": (check_outcome(workload_name, outcome)
                     + check_digest(workload_name, digest, seed)),
        "model_points": outcome.model_points,
    }
    if traced:
        aggregate = next((row for row in outcome.rows
                          if row.get("tenant") == "__all__"), {})
        result["layers"], result["setup_top"] = probes.layer_metrics(
            recorder, wall_ns, outcome.requests, aggregate, speed)
        if trace_path:
            probes.write_chrome_trace(recorder, trace_path)
    else:
        result["setup_s"] = clock.seconds * speed
        # A forked child's peak starts from its own resident set, not the
        # parent's peak (Linux ru_maxrss is in KiB).
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = peak_kib / 1024.0
    return result


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, List[Dict[str, Any]]]:
    """Run the workload until ``seconds`` of host time are used up.

    A new run starts only while the median run so far still fits; at least
    one run of each kind needed (untraced, and traced with ``trace``) is
    always made.  With ``trace`` the kinds alternate.
    """
    kinds = [False, True] if trace else [False]
    runs: Dict[bool, List[Dict[str, Any]]] = {kind: [] for kind in kinds}
    durations: List[float] = []
    started = perf_counter()
    while True:
        traced = kinds[len(durations) % len(kinds)]
        trace_path = ""
        if traced and not runs[True]:
            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = str(TRACE_DIR / f"{workload}.trace.json")
        begun = perf_counter()
        runs[traced].append(in_child(run_once, workload, seed, traced,
                                     trace_path))
        durations.append(perf_counter() - begun)
        elapsed = perf_counter() - started
        if (all(runs.values())
                and elapsed + statistics.median(durations) > seconds):
            return {"untraced": runs[False], "traced": runs.get(True, [])}


def _mark_failures(runs: List[Dict[str, Any]]) -> int:
    """Give every run its failure messages under ``"failed"``; returns how
    many runs failed.  A digest that differs from the first run's (same
    seed) is a failure too."""
    first = next((run["digest"] for run in runs if "digest" in run), None)
    for run in runs:
        if "error" in run:
            run["failed"] = [run["error"].strip().splitlines()[-1]]
            continue
        run["failed"] = list(run["failures"])
        if run["digest"] != first:
            run["failed"].append("rows differ between runs of the same seed")
    return sum(1 for run in runs if run["failed"])


def _median(runs: List[Dict[str, Any]],
            value: Callable[[Dict[str, Any]], float]) -> float:
    return statistics.median(value(run) for run in runs)


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def end_to_end(runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the untraced runs; throughput counts steady time only."""
    return {
        "wall_s": _median(runs, lambda r: r["wall_s"]),
        "setup_s": _median(runs, lambda r: r["setup_s"]),
        "requests_per_s": _median(
            runs, lambda r: r["requests"] / (r["wall_s"] - r["setup_s"])),
        "cells_per_s": _median(
            runs, lambda r: r["cells"] / (r["wall_s"] - r["setup_s"])),
        "peak_rss_mb": _median(runs, lambda r: r["peak_rss_mb"]),
    }


def per_layer(traced: List[Dict[str, Any]],
              untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the traced runs, plus traced/untraced wall time."""
    metrics = {name: _median(traced, lambda r, n=name: r["layers"][n])
               for name in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = (_median(traced, lambda r: r["wall_s"])
                                       / _median(untraced, lambda r: r["wall_s"]))
    return metrics


def report(args: argparse.Namespace,
           runs: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    """Print the human-readable report and return the result object."""
    from duetbench.workloads import model_error

    everything = runs["untraced"] + runs["traced"]
    failed = _mark_failures(everything)
    untraced = [run for run in runs["untraced"] if not run["failed"]]
    traced = [run for run in runs["traced"] if not run["failed"]]
    print(f"duetbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(everything)} runs, {failed} failed")
    print("closed batch: one workload run at a time, each in its own forked "
          "process, serial executors; arrivals are open-loop Poisson in "
          "simulated time, so generator lateness does not apply")
    for run in everything:
        for message in run["failed"]:
            print(f"FAILED: {message}")
    if everything and "digest" in everything[0]:
        print(f"rows digest {everything[0]['digest']}")
    result: Dict[str, Any] = {"correct": failed == 0,
                              "attempted": len(everything),
                              "failed": failed, "metrics": {}}
    if args.trace:
        if not traced or not untraced:
            return result
        units = declared_units("per_layer")
        metrics = per_layer(traced, untraced)
        print(f"per-layer medians of {len(traced)} traced runs "
              f"(self time; untraced runs: {len(untraced)})")
        print(f"largest share of traced set-up: {traced[0]['setup_top'] or '-'} "
              f"({metrics['setup.top_share']:.1%} of "
              f"{metrics['setup.traced_s']:.4f} s)")
    else:
        if not untraced:
            return result
        units = declared_units("end_to_end")
        metrics = end_to_end(untraced)
        print(f"end-to-end medians of {len(untraced)} runs, host times at the "
              f"reference speed")
    measured = untraced + traced
    print(f"host-speed factor {_median(measured, lambda r: r['speed']):.4f} "
          f"(reference {REFERENCE_NS_PER_STEP:g} ns/step over measured); "
          f"unscaled wall_s {_median(measured, lambda r: r['raw_wall_s']):.4f} s")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6f} {unit}")
    points = (untraced or traced)[0]["model_points"]
    if points:
        print("model error vs paper (reported, not gated):")
        for label, measured, paper, error in model_error(points):
            print(f"  {label:38s} {measured:10.3f} vs {paper:8.3f}  {error:+8.1%}")
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_checkout()
    _pin_to_one_cpu()
    from duetbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args, runs)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
