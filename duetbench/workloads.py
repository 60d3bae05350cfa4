"""The benchmark's four workloads and the checks on their simulated output.

Every workload calls the library through its public entry points
(``run_serve``, ``run_fleet``, ``Runner.run``), looked up as module
attributes at call time so the traced run's rebinding reaches them.  The
simulated results are deterministic per seed: they are checked here and
never reported as metrics (see ``README.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.api import runner as api_runner
from repro.chaos import ChaosConfig
from repro.chaos import experiments as chaos_experiments
from repro.fleet import cluster as fleet_cluster
from repro.fleet.experiments import FLEET_TENANTS
from repro.obs.trace import Tracer
from repro.serve import experiments as serve_experiments

DEFAULT_SEED = 2023

#: SHA-256 of the canonical JSON rows at the default seed and full size.
#: A simulator-only speed-up must leave every one of them unchanged.
PINNED_DIGESTS: Dict[str, str] = {
    "serve_duo":
        "9875f00f8324984bfdfd57b801d2cf60d88656179d7eb6176b5de2a248e9da9d",
    "serve_regions_traced":
        "559d134e2ed7698270a1e1aba471a6b9acaea5fe65c132e03c1bfa38651998ef",
    "fleet_chaos":
        "b5c92245c9a7ef8e3172da561b6dab4f5baad05fe78d9a79b50ed74dfb7ef4d3",
    "paper_figs":
        "02994d9082adc6ec2e0de0bc948afffa643433a6a466f10d137a9b373bca4b5a",
}


@dataclass
class Outcome:
    """What one workload run produced, for the checks and the throughput."""

    #: Simulated result rows; the digest covers exactly these.
    rows: List[Dict[str, Any]]
    #: Row count the workload must produce at this size.
    expected_rows: int
    #: Completed simulated requests (serving) or experiment cells (figures).
    requests: int
    #: Experiment cells completed; one serving deployment run is one cell.
    cells: int
    #: ``(label, measured, paper)`` triples for the model-error report.
    model_points: List[Tuple[str, float, float]] = field(default_factory=list)


def _aggregate(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    return next(row for row in rows if row.get("tenant") == "__all__")


def _serve_outcome(rows: List[Dict[str, Any]], expected_rows: int) -> Outcome:
    return Outcome(rows=rows, expected_rows=expected_rows,
                   requests=_aggregate(rows)["completed"], cells=1)


def serve_duo(seed: int, scale: float = 1.0) -> Outcome:
    outcome = serve_experiments.run_serve(
        "affinity", tenant_mix="duo", arrival_rate_krps=400.0,
        duration_us=60_000.0 * scale, seed=seed)
    return _serve_outcome(outcome["rows"], expected_rows=3)


def serve_regions_traced(seed: int, scale: float = 1.0) -> Outcome:
    outcome = serve_experiments.run_serve(
        "affinity", tenant_mix="duo", arrival_rate_krps=400.0,
        duration_us=40_000.0 * scale, regions=4, tracer=Tracer(),
        telemetry_window_us=100.0, seed=seed)
    return _serve_outcome(outcome["rows"], expected_rows=3)


def fleet_chaos(seed: int, scale: float = 1.0) -> Outcome:
    config = fleet_cluster.FleetConfig(
        nodes=3, spares=1, placement="affinity", epochs=4,
        epoch_us=12_000.0 * scale, node_executor="serial",
        chaos=ChaosConfig(chaos_experiments.build_schedule(2.0, seed=seed),
                          recovery=True),
        telemetry_window_us=100.0)
    outcome = fleet_cluster.run_fleet(config, FLEET_TENANTS,
                                      total_rate_rps=300e3, seed=seed)
    return _serve_outcome(outcome.rows, expected_rows=len(FLEET_TENANTS) + 1)


#: ``(experiment, axis overrides, cells)``: the fig9 and fig11 full grids
#: plus four fig12 cells, and a tiny subset of the same for smoke runs.
PAPER_PLAN: Tuple[Tuple[str, Dict[str, Any], int], ...] = (
    ("fig9", {}, 18),
    ("fig11", {}, 20),
    ("fig12", {"benchmark": ("sort/64", "dijkstra", "pdes/4", "bfs/4")}, 4),
)
PAPER_PLAN_SMOKE: Tuple[Tuple[str, Dict[str, Any], int], ...] = (
    ("fig9", {"fpga_mhz": (100.0,)}, 6),
    ("fig11", {"num_processors": (1,)}, 4),
    ("fig12", {"benchmark": ("sort/64",)}, 1),
)


def paper_figs(seed: int, scale: float = 1.0) -> Outcome:
    plan = PAPER_PLAN if scale >= 1.0 else PAPER_PLAN_SMOKE
    runner = api_runner.Runner(executor="serial", seed=seed)
    rows: List[Dict[str, Any]] = []
    cells = 0
    for experiment, overrides, _ in plan:
        result = runner.run(experiment, use_cache=False, **overrides)
        rows.extend(dict(row, experiment=experiment) for row in result.rows)
        cells += result.stats.cells
    points = [(f"fig9 {row['mechanism']}@{row['fpga_mhz']:g}MHz",
               row["measured_roundtrip_ns"], row["paper_roundtrip_ns"])
              for row in rows
              if row["experiment"] == "fig9" and row["paper_roundtrip_ns"]]
    points += [(f"fig12 {row['benchmark']} duet speedup",
                row["duet_speedup"], row["paper_duet_speedup"])
               for row in rows
               if row["experiment"] == "fig12" and row["paper_duet_speedup"]]
    return Outcome(rows=rows, expected_rows=sum(n for _, _, n in plan),
                   requests=cells, cells=cells, model_points=points)


#: The workloads by name; why each was chosen is in ``README.md``.
WORKLOADS: Dict[str, Callable[[int, float], Outcome]] = {
    "serve_duo": serve_duo,
    "serve_regions_traced": serve_regions_traced,
    "fleet_chaos": fleet_chaos,
    "paper_figs": paper_figs,
}


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def rows_digest(rows: Sequence[Dict[str, Any]]) -> str:
    """SHA-256 of the rows as canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_outcome(workload: str, outcome: Outcome) -> List[str]:
    """Seed-independent invariants; returns one message per violation."""
    failures: List[str] = []
    if len(outcome.rows) != outcome.expected_rows:
        failures.append(f"{len(outcome.rows)} rows, expected "
                        f"{outcome.expected_rows}")
    for row in outcome.rows:
        if "submitted" not in row:
            continue
        label = row.get("tenant", "?")
        shed = row["shed"]
        if row["submitted"] != row["completed"] + shed:
            failures.append(
                f"{label}: submitted {row['submitted']} != completed "
                f"{row['completed']} + shed {shed}")
        fault_shed = row.get("fault_shed", 0)
        if not 0 <= fault_shed <= shed:
            failures.append(f"{label}: fault_shed {fault_shed} not within "
                            f"shed {shed}")
    if workload == "paper_figs":
        for row in outcome.rows:
            if row["experiment"] == "fig12" and row["all_correct"] is not True:
                failures.append(f"fig12 {row['benchmark']}: all_correct is "
                                f"{row['all_correct']!r}")
    else:
        aggregate = [row for row in outcome.rows
                     if row.get("tenant") == "__all__"]
        if len(aggregate) != 1:
            failures.append(f"{len(aggregate)} aggregate rows, expected 1")
        elif aggregate[0]["completed"] <= 0:
            failures.append("no request completed")
        elif (workload == "fleet_chaos"
              and aggregate[0].get("faults_injected", 0) <= 0):
            failures.append("no fault injected")
    if outcome.requests <= 0 or outcome.cells <= 0:
        failures.append("no work completed")
    return failures


def check_digest(workload: str, digest: str, seed: int) -> List[str]:
    """Compare against the pinned digest; only the default seed has one, so
    a run on any other seed checks invariants alone."""
    if seed != DEFAULT_SEED:
        return []
    pinned = PINNED_DIGESTS[workload]
    if digest != pinned:
        return [f"rows digest {digest[:16]} != pinned {pinned[:16]}"]
    return []


def model_error(points: Sequence[Tuple[str, float, float]]
                ) -> List[Tuple[str, float, float, float]]:
    """``(label, measured, paper, relative error)`` for each point."""
    return [(label, measured, paper, (measured - paper) / paper)
            for label, measured, paper in points]
