"""Self-tests of the benchmark: span arithmetic, output checks, smoke runs.

    python3 -m pytest duetbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from duetbench import probes
from duetbench.probes import SELF_TIME_METRICS
from duetbench.workloads import (DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS,
                                 Outcome, check_digest, check_outcome,
                                 rows_digest)
from repro.sim.kernel import Simulator

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = 0.05


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    #        root [0,100) > a [10,40) > a1 [20,30);  root > b [50,70)
    starts, ends, parents = [0, 10, 20, 50], [100, 40, 30, 70], [-1, 0, 1, 0]
    assert probes.self_times(starts, ends, parents) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # Children [10,50) and [40,60) overlap by 10; [90,120) overhangs by 20.
    starts, ends, parents = [0, 10, 40, 90], [100, 50, 60, 120], [-1, 0, 0, 0]
    assert probes.self_times(starts, ends, parents)[0] == 100 - 50 - 10


def test_setup_membership_marks_whole_subtrees_and_outermost_roots():
    names = ["serve.run", "scheduler.init", "catalog.materialize",
             "bitstream.generate", "sim.run", "platform.build",
             "scheduler.init"]
    parents = [-1, 0, 1, 2, 0, -1, 5]
    inside, roots = probes.setup_membership(names, parents)
    assert inside == [False, True, True, True, False, True, True]
    assert roots == [1, 5]


def test_recorder_spans_nest_and_attribute_setup():
    rec = probes.Recorder()
    inner = rec.timed("bitstream.generate", lambda: sum(range(10_000)))
    outer = rec.timed("scheduler.init", lambda: inner())
    outer()
    assert rec.names == ["scheduler.init", "bitstream.generate"]
    assert list(rec.parents) == [-1, 0]
    wall = rec.ends[0] - rec.starts[0]
    metrics, top = probes.layer_metrics(rec, wall, requests=1, aggregate={})
    assert top == "bitstream.generate_s"
    assert metrics["setup.traced_s"] == pytest.approx(wall / 1e9)
    assert metrics["trace.unattributed_s"] == 0.0


def test_patches_undo_restores_every_original():
    from repro.serve import catalog, scheduler

    run, generate = Simulator.run, vars(probes.Bitstream)["generate"]
    materialize = catalog.materialize
    patches = probes.instrument(probes.Recorder())
    assert Simulator.run is not run
    assert scheduler.materialize is not materialize
    assert scheduler.materialize is catalog.materialize
    patches.undo()
    assert Simulator.run is run
    assert vars(probes.Bitstream)["generate"] is generate
    assert scheduler.materialize is catalog.materialize is materialize


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_outcomes():
    return {name: run(DEFAULT_SEED + 1, SMOKE) for name, run in WORKLOADS.items()}


def test_clean_smoke_outcomes_pass_every_check(smoke_outcomes):
    for name, outcome in smoke_outcomes.items():
        assert check_outcome(name, outcome) == [], name


def test_corrupted_row_fails_conservation(smoke_outcomes):
    outcome = smoke_outcomes["fleet_chaos"]
    rows = [dict(row) for row in outcome.rows]
    rows[0]["completed"] += 1
    corrupted = dataclasses.replace(outcome, rows=rows)
    failures = check_outcome("fleet_chaos", corrupted)
    assert len(failures) == 1 and "submitted" in failures[0]
    assert rows_digest(rows) != rows_digest(outcome.rows)


def test_missing_row_and_failed_fig12_cell_fail(smoke_outcomes):
    outcome = smoke_outcomes["paper_figs"]
    rows = [dict(row) for row in outcome.rows[1:]]
    fig12 = next(row for row in rows if row["experiment"] == "fig12")
    fig12["all_correct"] = False
    failures = check_outcome("paper_figs", dataclasses.replace(outcome, rows=rows))
    assert len(failures) == 2


def test_fleet_without_faults_fails():
    rows = [{"tenant": "__all__", "submitted": 3, "completed": 3, "shed": 0}]
    outcome = Outcome(rows=rows, expected_rows=1, requests=3, cells=1)
    assert check_outcome("serve_duo", outcome) == []
    assert check_outcome("fleet_chaos", outcome) == ["no fault injected"]


def test_digest_is_pinned_for_the_default_seed_only():
    pinned = PINNED_DIGESTS["serve_duo"]
    assert check_digest("serve_duo", pinned, DEFAULT_SEED) == []
    assert check_digest("serve_duo", "0" * 64, DEFAULT_SEED)
    assert check_digest("serve_duo", "0" * 64, DEFAULT_SEED + 1) == []


def test_digest_ignores_key_order():
    assert rows_digest([{"a": 1, "b": 2.5}]) == rows_digest([{"b": 2.5, "a": 1}])


# --------------------------------------------------------------------------- #
# Smoke runs through the probes
# --------------------------------------------------------------------------- #
#: Per workload, per-layer counts that must be non-zero at any size.
LIVE_COUNTS = {
    "serve_duo": ("sim.events", "scheduler.submits", "slo.hook_calls",
                  "bitstream.generate_calls", "control_hub.programs"),
    "serve_regions_traced": ("regions.allocator_ops", "tracer.events",
                             "telemetry.windows", "bitstream.for_regions_calls"),
    "fleet_chaos": ("fleet.node_epochs", "chaos.faults_injected",
                    "telemetry.windows", "catalog.materialize_calls"),
    "paper_figs": ("platform.systems", "noc.messages", "mem.accesses",
                   "runner.cells"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_probes_leave_rows_unchanged_and_see_every_layer(name, smoke_outcomes):
    clock = probes.SetupClock()
    patches = clock.install()
    try:
        untraced = WORKLOADS[name](DEFAULT_SEED + 1, SMOKE)
    finally:
        patches.undo()
    assert clock.seconds > 0
    rec = probes.Recorder()
    patches = probes.instrument(rec)
    try:
        traced = WORKLOADS[name](DEFAULT_SEED + 1, SMOKE)
    finally:
        patches.undo()
    expected = rows_digest(smoke_outcomes[name].rows)
    assert rows_digest(untraced.rows) == rows_digest(traced.rows) == expected
    root_ns = sum(rec.ends[i] - rec.starts[i]
                  for i, parent in enumerate(rec.parents) if parent < 0)
    metrics, top = probes.layer_metrics(rec, root_ns, traced.requests,
                                        next((row for row in traced.rows
                                              if row.get("tenant") == "__all__"), {}))
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    assert set(metrics) == declared
    for metric in LIVE_COUNTS[name]:
        assert metrics[metric] > 0, metric
    # Which layer tops the set-up is reported, not checked: a later PR may
    # rightly change it.
    assert top in SELF_TIME_METRICS.values()
    assert 0 < metrics["setup.top_share"] <= 1


# --------------------------------------------------------------------------- #
# The command the benchmark contract names
# --------------------------------------------------------------------------- #
def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Full size; ``--seconds`` stops after one run of each kind."""
    return subprocess.run(
        [sys.executable, "duetbench/run.py", "--seed", str(DEFAULT_SEED + 2),
         "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, section):
    trace_file = ROOT / ".duetbench" / "serve_duo.trace.json"
    trace_file.unlink(missing_ok=True)
    done = _run_cli(ROOT, "--workload", "serve_duo", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == declared
    if trace == "1":
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert events and {"name", "ts", "dur", "args"} <= set(events[0])


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "duetbench", tmp_path / "duetbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli(tmp_path, "--workload", "serve_duo", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
