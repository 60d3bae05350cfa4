"""The observability experiments and their CLI drivers.

``latency_decomposition`` answers the question the aggregate serve rows
cannot: *where does a request's latency actually go?*  Each cell runs one
traced serving deployment (policy x region count x background fault rate
over the canonical ``duo`` mix), folds the trace through
:mod:`repro.obs.decompose`, and reports per-tenant stage shares
(queue / program / retune / service / blackout — summing to 1.0 by
construction) next to the full latency tail.  The pinned acceptance
point (``affinity``, fault-free) cross-checks the trace-derived program
share against the scheduler's own ``reconfig_overhead`` accounting — two
independent code paths agreeing on the same number.

``trace_experiment`` is the driver behind ``python -m repro trace``: it
re-runs a named experiment's canonical point with a
:class:`~repro.obs.trace.Tracer` attached and returns the tracer, whose
:meth:`~repro.obs.trace.Tracer.to_json` bytes are deterministic for a
given seed.

``alerting`` measures detection quality, scored against ground truth.
One cell = one chaos fleet run observed *only* through its telemetry
stream.  The sweep crosses fault family x control mode (x background rate
for the rate-scaled families):

* ``fault``: ``none`` (no chaos — the false-alarm floor), ``kill`` (the
  pinned whole-node fabric kill from :mod:`repro.chaos.experiments`),
  ``seu`` / ``link`` (rate-scaled background noise only);
* ``control``: the detector of the one epoch-boundary failover step
  (:func:`repro.fleet.cluster._chaos_control`) — ``omniscient`` reads the
  simulator's damage reports directly, ``alerts`` suspects a node only
  when a critical alert fires for it; failover, spare promotion and
  replay then run the same way for both.

Because the experiment holds the injected :class:`~repro.chaos.schedule.\
FaultSchedule`, it can score the alert log exactly
(:func:`repro.obs.alerts.score_alerts`): per-cell recall, precision,
false-alarm rate and detection latency, overall and per rule family.  The
acceptance pins (``tests/test_alerts.py``) are:

* fabric-kill detection recall 1.0 with detection latency <= 1 epoch at
  the default burn-rate rule,
* false-alarm rate 0.0 on the fault-free cell,
* alert-driven recovery goodput >= 0.9x the omniscient baseline within
  :data:`ALERT_RECOVERY_EPOCHS` epochs of the kill.

SEU/link recall is reported, not pinned: a scrubbed SEU or a transient
link detour that never dents the SLO is *invisible in telemetry by
design* — the experiment quantifies that blind spot instead of hiding it.

Cells are module-level and seed-deterministic (picklable for the
process-pool executor).  This module must not import :mod:`repro.api` —
the registry imports *us*.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.experiments import KILL_EPOCH, build_schedule
from repro.chaos.inject import ChaosConfig
from repro.chaos.schedule import FaultSchedule, FaultSpec
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.cluster import FleetConfig, epoch_goodput, run_fleet
from repro.fleet.experiments import FLEET_TENANTS
from repro.obs.alerts import score_alerts
from repro.obs.decompose import ALL_TENANTS, STAGES, decompose_rows
from repro.obs.trace import Tracer
from repro.serve.experiments import DEFAULT_SEED, run_serve

#: The canonical decomposition point: the PR 5 serving sweep's contended
#: duo-mix cell, where the affinity-vs-FCFS story lives.
DECOMPOSE_MIX = "duo"
DECOMPOSE_RATE_KRPS = 250.0
DECOMPOSE_DURATION_US = 2_000.0


def noise_schedule(fault_rate: float, seed: int = DEFAULT_SEED) -> FaultSchedule:
    """Background-noise-only chaos: rate-scaled SEUs plus self-repairing
    link faults, *without* the fleet experiment's pinned node kill (a
    single-deployment serve run has nowhere to fail over to)."""
    if fault_rate <= 0:
        raise ValueError(f"fault_rate must be positive, got {fault_rate}")
    return FaultSchedule(seed=seed, specs=(
        FaultSpec(kind="seu", rate_per_epoch=fault_rate, detect_ns=2_000.0),
        FaultSpec(kind="link", rate_per_epoch=fault_rate * 0.5,
                  repair_ns=60_000.0),
    ))


def latency_decomposition_cell(
    policy: str,
    regions: int = 1,
    fault_rate: float = 0.0,
    tenant_mix: str = DECOMPOSE_MIX,
    arrival_rate_krps: float = DECOMPOSE_RATE_KRPS,
    duration_us: float = DECOMPOSE_DURATION_US,
    seed: int = DEFAULT_SEED,
) -> List[Dict[str, Any]]:
    """One traced serve run -> per-tenant stage-share rows.

    ``fault_rate == 0`` runs with no chaos armed at all, so the fault-free
    decomposition is taken from exactly the run the serve goldens pin.
    """
    tracer = Tracer()
    chaos = (ChaosConfig(noise_schedule(fault_rate, seed))
             if fault_rate > 0 else None)
    outcome = run_serve(
        policy, tenant_mix=tenant_mix, arrival_rate_krps=arrival_rate_krps,
        duration_us=duration_us, seed=seed, chaos=chaos, regions=regions,
        tracer=tracer,
    )
    aggregate = next(row for row in outcome["rows"]
                     if row["tenant"] == ALL_TENANTS)
    context = {
        "policy": policy,
        "regions": regions,
        "fault_rate": fault_rate,
        "tenant_mix": tenant_mix,
        "arrival_rate_krps": arrival_rate_krps,
    }
    rows = []
    for stage_row in decompose_rows(tracer):
        row = dict(context)
        row.update(stage_row)
        if row["tenant"] == ALL_TENANTS:
            # The scheduler's own accounting for the same run — lets the
            # summary (and the acceptance test) cross-check the
            # trace-derived program share against an independent path.
            row["reconfig_overhead"] = aggregate["reconfig_overhead"]
            row["completed"] = aggregate["completed"]
        rows.append(row)
    return rows


def latency_decomposition_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Headline stage shares and tails per (policy, regions, fault_rate)."""
    aggregates = [row for row in rows if row.get("tenant") == ALL_TENANTS]
    summary: Dict[str, Any] = {}
    points: List[Tuple[str, int, float]] = sorted(
        {(row["policy"], row["regions"], row["fault_rate"])
         for row in aggregates})
    for policy, regions, fault_rate in points:
        row = next(r for r in aggregates
                   if (r["policy"], r["regions"], r["fault_rate"])
                   == (policy, regions, fault_rate))
        label = f"{policy}/r{regions}@rate{fault_rate:g}"
        for stage in STAGES:
            summary[f"{stage}_share[{label}]"] = row[f"{stage}_share"]
        summary[f"p999_latency_us[{label}]"] = row["p999_latency_us"]
        summary[f"share_under_2x_p50[{label}]"] = row["share_under_2x_p50"]
    return summary


# --------------------------------------------------------------------------- #
# ``python -m repro trace`` drivers
# --------------------------------------------------------------------------- #
def _trace_serve(seed: int, tracer: Tracer, **overrides: Any) -> None:
    params: Dict[str, Any] = dict(
        policy="affinity", tenant_mix=DECOMPOSE_MIX,
        arrival_rate_krps=DECOMPOSE_RATE_KRPS,
        duration_us=DECOMPOSE_DURATION_US)
    params.update(overrides)
    run_serve(params.pop("policy"), seed=seed, tracer=tracer, **params)


def _trace_reconfig(seed: int, tracer: Tracer, **overrides: Any) -> None:
    overrides.setdefault("regions", 4)
    _trace_serve(seed, tracer, **overrides)


def _trace_chaos(seed: int, tracer: Tracer, **overrides: Any) -> None:
    fault_rate = float(overrides.pop("fault_rate", 2.0))
    overrides.setdefault("duration_us", DECOMPOSE_DURATION_US)
    overrides["chaos"] = ChaosConfig(noise_schedule(fault_rate, seed))
    _trace_serve(seed, tracer, **overrides)


def _trace_fleet(seed: int, tracer: Tracer, **overrides: Any) -> None:
    rate_krps = float(overrides.pop("rate_krps", 300.0))
    config = FleetConfig(
        nodes=int(overrides.pop("nodes", 3)),
        epochs=int(overrides.pop("epochs", 3)),
        epoch_us=float(overrides.pop("epoch_us", 400.0)),
        placement="affinity",
        **overrides,
    )
    run_fleet(config, FLEET_TENANTS, total_rate_rps=rate_krps * 1000.0,
              seed=seed, tracer=tracer)


TRACE_DRIVERS: Dict[str, Callable[..., None]] = {
    "serve_policy": _trace_serve,
    "serve_energy": _trace_serve,
    "reconfig": _trace_reconfig,
    "chaos": _trace_chaos,
    "fleet_scaling": _trace_fleet,
    # The decomposition cell builds its own tracer; the CLI wants *this*
    # one populated, so re-drive the same canonical point directly.
    "latency_decomposition": _trace_serve,
}


def trace_experiment(name: str, seed: int = DEFAULT_SEED,
                     overrides: Optional[Dict[str, Any]] = None) -> Tracer:
    """Run ``name``'s canonical point with a tracer attached; return it.

    ``overrides`` forwards ``-p key=value`` CLI parameters to the driver
    (policy, duration_us, regions, fault_rate, ... depending on the
    experiment).  The returned tracer's :meth:`to_json` bytes depend only
    on ``(name, seed, overrides)``.
    """
    try:
        driver = TRACE_DRIVERS[name]
    except KeyError:
        known = ", ".join(sorted(TRACE_DRIVERS))
        raise KeyError(
            f"no trace driver for experiment {name!r}; traceable: {known}"
        ) from None
    tracer = Tracer()
    driver(seed, tracer, **(overrides or {}))
    return tracer


# --------------------------------------------------------------------------- #
# The ``alerting`` experiment
# --------------------------------------------------------------------------- #
#: The fault families the sweep injects (one per cell).
FAULT_MODES: Tuple[str, ...] = ("none", "kill", "seu", "link")

#: Telemetry window of every alerting run (us of sim time).
ALERT_WINDOW_US = 100.0

#: Detection horizon: an alert counts for a fault only within this many
#: epochs of its injection instant.
DETECT_HORIZON_EPOCHS = 1.0

#: The alert-driven recovery pin: goodput back within this many epochs of
#: the kill...
ALERT_RECOVERY_EPOCHS = 3
#: ...to at least this fraction of what omniscient recovery achieves.
ALERT_RECOVERY_FLOOR = 0.9


def alerting_schedule(fault: str, fault_rate: float,
                      seed: int = DEFAULT_SEED) -> Optional[FaultSchedule]:
    """The injected schedule for one fault family (``None`` = no chaos)."""
    if fault == "none":
        return None
    if fault == "kill":
        return build_schedule(0.0, seed)
    if fault == "seu":
        return FaultSchedule(seed=seed, specs=(
            FaultSpec(kind="seu", rate_per_epoch=fault_rate,
                      detect_ns=2_000.0),))
    if fault == "link":
        return FaultSchedule(seed=seed, specs=(
            FaultSpec(kind="link", rate_per_epoch=fault_rate * 0.5,
                      repair_ns=60_000.0),))
    known = ", ".join(FAULT_MODES)
    raise ValueError(f"unknown fault mode {fault!r}; known: {known}")


def alerting_cell(
    fault: str,
    control: str,
    fault_rate: float = 2.0,
    nodes: int = 3,
    spares: int = 1,
    epochs: int = 5,
    epoch_us: float = 600.0,
    rate_krps: float = 300.0,
    window_us: float = ALERT_WINDOW_US,
    node_executor: str = "serial",
    seed: int = DEFAULT_SEED,
) -> List[Dict[str, Any]]:
    """One telemetry-observed chaos run; returns a single scored row."""
    schedule = alerting_schedule(fault, fault_rate, seed)
    config = FleetConfig(
        nodes=nodes,
        placement="affinity",
        policy="affinity",
        epochs=epochs,
        epoch_us=epoch_us,
        autoscaler=AutoscalerConfig(enabled=False),
        node_executor=node_executor,
        power=True,
        chaos=ChaosConfig(schedule, recovery=True) if schedule else None,
        spares=spares,
        telemetry_window_us=window_us,
        chaos_control=control,
    )
    outcome = run_fleet(config, FLEET_TENANTS,
                        total_rate_rps=rate_krps * 1000.0, seed=seed)

    epoch_ns = epoch_us * 1000.0
    epoch_ps = int(round(epoch_ns * 1000.0))
    # The oracle covers the initially-active nodes: spares carry no
    # injections while parked, and none of the sweep's schedules draw
    # rated faults dense enough to fail over a healthy node onto one.
    truth = (schedule.ground_truth(epochs, range(nodes),
                                   config.fabrics_per_node, epoch_ns)
             if schedule is not None else [])
    alerts = outcome.alerts or []
    horizon_ps = int(round(DETECT_HORIZON_EPOCHS * epoch_ps))
    score = score_alerts(alerts, truth, horizon_ps)

    goodput = epoch_goodput(outcome.reports)
    pre = goodput[KILL_EPOCH - 1] if KILL_EPOCH >= 1 else goodput[0]
    post_epoch = min(KILL_EPOCH + ALERT_RECOVERY_EPOCHS, len(goodput) - 1)
    row: Dict[str, Any] = {
        "fault": fault,
        "control": control,
        "fault_rate": fault_rate if fault in ("seu", "link") else 0.0,
        "nodes": nodes,
        "epochs": epochs,
        "windows": len(outcome.telemetry.samples) if outcome.telemetry else 0,
        "alerts_fired": sum(1 for a in alerts if a.event == "fired"),
        "alerts_resolved": sum(1 for a in alerts if a.event == "resolved"),
        "faults": score["faults"],
        "detected": score["detected"],
        "recall": score["recall"],
        "precision": score["precision"],
        "false_alarms": score["false_alarms"],
        "false_alarm_rate": score["false_alarm_rate"],
        "detection_latency_epochs": (
            score["max_detection_latency_ps"] / epoch_ps),
        "pre_fault_goodput": pre,
        "post_recovery_goodput": goodput[post_epoch],
        "good_total": sum(goodput),
    }
    for family, fam in sorted(score["by_family"].items()):
        row[f"fired_{family}"] = fam["fired"]
        row[f"recall_{family}"] = fam["recall"]
        row[f"false_alarm_rate_{family}"] = fam["false_alarm_rate"]
    return [row]


def alerting_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The acceptance view: the pinned detection/recovery aggregates."""
    def pick(fault: str, control: str) -> Optional[Dict[str, Any]]:
        for row in rows:
            if row["fault"] == fault and row["control"] == control:
                return row
        return None

    summary: Dict[str, Any] = {
        "detect_horizon_epochs": DETECT_HORIZON_EPOCHS,
        "alert_recovery_epochs": ALERT_RECOVERY_EPOCHS,
        "alert_recovery_floor": ALERT_RECOVERY_FLOOR,
    }
    kill_alerts = pick("kill", "alerts")
    if kill_alerts is not None:
        summary["kill_recall"] = kill_alerts["recall"]
        summary["kill_detection_latency_epochs"] = (
            kill_alerts["detection_latency_epochs"])
        summary["kill_detected_within_horizon"] = (
            kill_alerts["recall"] >= 1.0
            and kill_alerts["detection_latency_epochs"]
            <= DETECT_HORIZON_EPOCHS)
    fault_free = pick("none", "alerts")
    if fault_free is not None:
        summary["fault_free_alerts_fired"] = fault_free["alerts_fired"]
        summary["fault_free_false_alarm_rate"] = (
            fault_free["false_alarm_rate"])
    kill_omniscient = pick("kill", "omniscient")
    if kill_alerts is not None and kill_omniscient is not None:
        baseline = kill_omniscient["post_recovery_goodput"]
        summary["alert_recovery_ratio"] = (
            kill_alerts["post_recovery_goodput"] / baseline if baseline
            else 0.0)
        summary["alert_recovery_ok"] = (
            summary["alert_recovery_ratio"] >= ALERT_RECOVERY_FLOOR)
    for fault in ("seu", "link"):
        row = pick(fault, "alerts")
        if row is not None:
            summary[f"{fault}_recall"] = row["recall"]
            summary[f"{fault}_false_alarms"] = row["false_alarms"]
    return summary


# --------------------------------------------------------------------------- #
# ``python -m repro alerts`` driver
# --------------------------------------------------------------------------- #
def alerts_report(fault: str = "kill", control: str = "alerts",
                  fault_rate: float = 2.0,
                  seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """One canonical alerting run, packaged for the CLI: the typed alert
    log, the detection scores and the ground truth it was scored against."""
    schedule = alerting_schedule(fault, fault_rate, seed)
    config = FleetConfig(
        nodes=3, placement="affinity", policy="affinity", epochs=5,
        epoch_us=600.0, autoscaler=AutoscalerConfig(enabled=False),
        node_executor="serial", power=True,
        chaos=ChaosConfig(schedule, recovery=True) if schedule else None,
        spares=1, telemetry_window_us=ALERT_WINDOW_US,
        chaos_control=control)
    outcome = run_fleet(config, FLEET_TENANTS, total_rate_rps=300_000.0,
                        seed=seed)
    epoch_ns = 600.0 * 1000.0
    truth = (schedule.ground_truth(5, range(3), config.fabrics_per_node,
                                   epoch_ns)
             if schedule is not None else [])
    alerts = outcome.alerts or []
    score = score_alerts(alerts, truth,
                         int(round(epoch_ns * 1000.0
                                   * DETECT_HORIZON_EPOCHS)))
    return {
        "fault": fault,
        "control": control,
        "windows": len(outcome.telemetry.samples) if outcome.telemetry else 0,
        "alerts": [a.as_dict() for a in alerts],
        "truth": truth,
        "score": score,
    }
