"""The serving experiments: ``serve_policy`` and ``serve_energy``.

``serve_policy`` sweeps scheduling policy x offered arrival rate x tenant
mix and reports per-tenant tail latency (p50/p95/p99), goodput (completions
*within SLO* per second), shed counts and the fabric's reconfiguration
overhead.  It is the experiment that shows the reconfiguration-affinity
policy beating FCFS on p99 and goodput once two tenants contend for one
fabric with different bitstreams.

``serve_energy`` reruns a single-fabric deployment with the
:mod:`repro.power` accounting attached and reports energy per served
request, average power, and the energy share lost to reconfiguration —
the serving counterpart of the ``power_efficiency`` experiment.

Cells are module-level and seed-deterministic (picklable for the
process-pool executor, cacheable by the runner).  This module must not
import anything from :mod:`repro.api` — the registry imports *us*; the
:class:`~repro.api.spec.ExperimentSpec` objects wrapping these cells are
built in :mod:`repro.api.registry`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.scheduler import SERVE_MAX_EVENTS, FabricScheduler, ServeConfig
from repro.serve.slo import SloMonitor
from repro.serve.traffic import TenantSpec, build_sources
from repro.sim import Simulator

DEFAULT_SEED = 2023

#: Named tenant mixes for the sweep grids.  ``duo`` is the canonical
#: reconfiguration-pressure mix: two equal open-loop tenants whose
#: accelerators need different bitstreams on the same fabric.  ``quad``
#: adds a bursty batch tenant and a high-priority closed-loop tenant.
TENANT_MIXES: Dict[str, Tuple[TenantSpec, ...]] = {
    "mono": (
        TenantSpec(name="alpha", accelerator="popcount", pattern="poisson",
                   weight=1.0, slo_ns=25_000.0),
    ),
    "duo": (
        TenantSpec(name="alpha", accelerator="popcount", pattern="poisson",
                   weight=0.5, slo_ns=30_000.0),
        TenantSpec(name="beta", accelerator="sort64", pattern="poisson",
                   weight=0.5, slo_ns=30_000.0),
    ),
    "quad": (
        TenantSpec(name="alpha", accelerator="popcount", pattern="poisson",
                   weight=0.4, slo_ns=30_000.0),
        TenantSpec(name="beta", accelerator="sort64", pattern="bursty",
                   weight=0.4, slo_ns=50_000.0),
        TenantSpec(name="gamma", accelerator="tangent", pattern="diurnal",
                   weight=0.2, slo_ns=50_000.0),
        TenantSpec(name="delta", accelerator="dijkstra", pattern="closed",
                   clients=2, think_ns=80_000.0, priority=1, slo_ns=100_000.0),
    ),
}

MIX_NAMES: Tuple[str, ...] = tuple(TENANT_MIXES)


def get_mix(name: str) -> Tuple[TenantSpec, ...]:
    try:
        return TENANT_MIXES[name]
    except KeyError:
        known = ", ".join(TENANT_MIXES)
        raise KeyError(f"unknown tenant mix {name!r}; known mixes: {known}") from None


# --------------------------------------------------------------------------- #
# The deployment driver shared by serve runs and fleet nodes
# --------------------------------------------------------------------------- #
class Deployment:
    """One serving deployment, built, instrumented and run the same way for
    a standalone serve run and for every (node, epoch) of a fleet.

    The constructor builds the simulator, SLO monitor and scheduler (whose
    workers are the first processes), subscribes the observers (telemetry
    first, then a :class:`repro.obs.trace.ServeTrace` into ``tracer``),
    attaches one :class:`EnergyModel` per fabric with ``power`` and arms
    the fault events.  ``faults`` (a sequence of
    :class:`~repro.chaos.FaultEvent`, possibly empty) arms the deployment
    for chaos: ``failed_fabrics`` are dead before t=0 and stranded requests
    are shed at the end; ``None`` leaves it fault-free.  The caller starts
    its own traffic and hands those processes to :meth:`run`.
    """

    def __init__(self, config: ServeConfig, name: str = "serve", *,
                 telemetry_window_us: Optional[float] = None,
                 node_id: int = 0, epoch: int = 0, t0_ps: int = 0,
                 tracer: Optional[Any] = None, power: bool = False,
                 faults: Optional[Sequence[Any]] = None, recovery: bool = True,
                 failed_fabrics: Sequence[int] = ()) -> None:
        self.name = name
        self.sim = sim = Simulator()
        self.monitor = SloMonitor(sim, name=name)
        self.scheduler = scheduler = FabricScheduler(sim, config,
                                                     monitor=self.monitor)
        self.telemetry = None
        if telemetry_window_us is not None:
            from repro.obs.monitor import TelemetryMonitor

            self.telemetry = TelemetryMonitor(
                self.monitor, telemetry_window_us * 1000.0, node_id=node_id,
                epoch=epoch, t0_ps=t0_ps, scheduler=scheduler)
            scheduler.observe(self.telemetry)
        if tracer:
            from repro.obs.trace import ServeTrace

            scheduler.observe(ServeTrace(tracer, sim))
        self.energy = _attach_energy(sim, scheduler) if power else []
        self.chaos = faults is not None
        if self.chaos:
            scheduler.recovery = recovery
            # Damage carried over from earlier epochs: dead before t=0, no
            # new fault window opens (the impact was accounted when it
            # happened).
            for index in failed_fabrics:
                if 0 <= index < len(scheduler.fabrics):
                    scheduler.fabrics[index].fail(reason="carryover")
            if faults:
                from repro.chaos import FaultInjector

                FaultInjector(sim, scheduler, faults, recovery=recovery)

    def run(self, processes: Sequence[Any], window_ns: float) -> float:
        """Run until ``processes`` finish and the scheduler drains; returns
        the measured window, from t=0 to the last completion but never
        shorter than ``window_ns``."""
        scheduler = self.scheduler

        def supervisor():
            for process in processes:
                if not process.finished:
                    yield process
            scheduler.close()

        self.sim.process(supervisor(), name=f"{self.name}.supervisor")
        for model in self.energy:
            model.begin_window()
        self.sim.run(max_events=SERVE_MAX_EVENTS)
        if self.chaos:
            # A chaos run can end with every fabric dead and requests
            # stranded in the queue; shed them so submitted == completed +
            # shed holds.
            scheduler.flush_pending()
        elapsed_ns = max(self.sim.now, window_ns)
        for model in self.energy:
            model.end_window()
        if self.telemetry is not None:
            self.telemetry.finalize(elapsed_ns)
        return elapsed_ns


def _attach_energy(sim: Simulator, scheduler: FabricScheduler) -> List[Any]:
    """One :class:`EnergyModel` per fabric, each tracking its own eFPGA
    clock domain; the deployment's energy is their sum."""
    from repro.power.model import EnergyModel, PowerConfig

    # The fabric silicon is provisioned for the largest catalog bitstream
    # it may host (fixed leakage area, like real silicon).
    area_mm2 = max(accelerator.synthesis.area_mm2
                   for accelerator in scheduler.accelerators.values())
    models = []
    for fabric in scheduler.fabrics:
        energy = EnergyModel(PowerConfig(enabled=True), sim,
                             name=f"{fabric.name}.energy")
        energy.sys_domain = scheduler.sys_domain
        energy.fpga_domain = fabric.clock_generator.fpga_domain
        energy.num_tiles = 1  # one control tile
        energy.set_efpga_area(area_mm2)
        fabric.energy = energy
        models.append(energy)
    return models


def run_serve(
    policy: str,
    tenant_mix: str = "duo",
    arrival_rate_krps: float = 150.0,
    duration_us: float = 2_000.0,
    num_fabrics: int = 1,
    queue_capacity: Optional[int] = 64,
    patience_ns: float = 100_000.0,
    seed: int = DEFAULT_SEED,
    power: bool = False,
    chaos: Optional[Any] = None,
    regions: int = 1,
    region_fabric_scale: float = 1.0,
    tracer: Optional[Any] = None,
    telemetry_window_us: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one serving deployment to completion; returns rows + aggregates.

    The run is *open*: traffic stops arriving after ``duration_us`` of
    simulated time, the scheduler then drains its queue, and the measured
    window covers everything from the first arrival opportunity to the last
    completion — so an overloaded policy pays for its backlog in the
    goodput denominator instead of hiding it.

    ``chaos`` (a :class:`repro.chaos.ChaosConfig`) arms the run's fault
    schedule against the deployment.  Fault draws for a serve run use the
    schedule's ``(epoch=0, node=0)`` stream over the traffic window.  A
    ``chaos`` whose schedule is empty injects nothing and the run stays
    bit-identical to a plain one (pinned by ``tests/test_chaos.py``).

    ``regions > 1`` switches every fabric to the region-granular path
    (:mod:`repro.reconfig`): co-located designs, span hot swaps, LRU
    eviction.  ``regions=1`` (the default) takes the whole-fabric path and
    is bit-identical to a build without region support — the region
    columns below only exist when regions > 1, same contract as the chaos
    columns.

    ``telemetry_window_us`` and ``tracer`` subscribe observers to the
    deployment's request-lifecycle funnel (:meth:`FabricScheduler.observe`,
    telemetry first): a :class:`repro.obs.monitor.TelemetryMonitor` with
    that tumbling window (the outcome gains its ``"telemetry"`` stream) and
    a :class:`repro.obs.trace.ServeTrace` writing lifecycle spans and chaos
    events into the :class:`repro.obs.Tracer`, exportable as a Chrome trace
    and decomposable with :mod:`repro.obs.decompose`.  Either, both or
    neither leave the rows bit-identical (pinned by ``tests/test_obs.py``
    and ``tests/test_alerts.py``).
    """
    if regions > 1 and power:
        raise ValueError(
            "power accounting is not supported with regions > 1: the "
            "EnergyModel tracks one shared eFPGA clock domain, but a "
            "region grid runs each resident design at its own clock")
    if power and num_fabrics != 1:
        raise ValueError(
            "energy accounting supports exactly one fabric per serve run "
            "(the energy columns read one eFPGA clock domain), got "
            f"{num_fabrics}")
    tenants = get_mix(tenant_mix)
    config = ServeConfig(
        policy=policy,
        num_fabrics=num_fabrics,
        queue_capacity=queue_capacity,
        patience_ns=patience_ns,
        accelerators=tuple(dict.fromkeys(t.accelerator for t in tenants)),
        regions=regions,
        region_fabric_scale=region_fabric_scale,
    )
    duration_ns = duration_us * 1000.0
    faults, recovery = None, True
    if chaos is not None:
        faults = chaos.schedule.events(
            epoch=0, node_id=0, fabrics=num_fabrics, epoch_ns=duration_ns)
        recovery = chaos.recovery
    deployment = Deployment(
        config, telemetry_window_us=telemetry_window_us, tracer=tracer,
        power=power, faults=faults, recovery=recovery)
    scheduler, monitor = deployment.scheduler, deployment.monitor
    sources = build_sources(
        deployment.sim, tenants, scheduler.submit,
        total_rate_rps=arrival_rate_krps * 1000.0,
        duration_ns=duration_ns, seed=seed,
    )
    elapsed_ns = deployment.run(
        [process for source in sources for process in source.start()],
        duration_ns)

    totals = scheduler.fabric_totals()
    extra: Dict[str, Any] = {
        "policy": policy,
        "tenant_mix": tenant_mix,
        "arrival_rate_krps": arrival_rate_krps,
        "num_fabrics": num_fabrics,
    }
    rows = monitor.tenant_rows(elapsed_ns, extra=extra)
    busy_us = totals["service_us_total"] + totals["reconfig_us_total"]
    for row in rows:
        row.update(totals)
        row["reconfig_overhead"] = (
            totals["reconfig_us_total"] / busy_us if busy_us > 0 else 0.0)
        row["elapsed_us"] = elapsed_ns / 1000.0
    if power:
        _add_energy_columns(rows, deployment.energy[0])
    if regions > 1:
        region_totals = scheduler.region_totals()
        for row in rows:
            row.update(region_totals)
            row["region_fabric_scale"] = region_fabric_scale
    if monitor.faults > 0:
        # Deployment-wide fault accounting; columns only exist once a
        # fault actually fired, so fault-free goldens never change shape.
        chaos_totals = scheduler.chaos_totals()
        for row in rows:
            row.update(chaos_totals)
    telemetry = deployment.telemetry
    return {"rows": rows, "scheduler": scheduler, "monitor": monitor,
            "elapsed_ns": elapsed_ns,
            "telemetry": telemetry.stream if telemetry else None,
            "chaos": scheduler.chaos_totals() if chaos is not None else None}


def _add_energy_columns(rows: List[Dict[str, Any]], energy) -> None:
    window_nj = (energy.last_window_pj or 0.0) / 1000.0
    for row in rows:
        if row["tenant"] != "__all__":
            continue
        completed = row["completed"]
        row["energy_nj"] = window_nj
        row["energy_per_request_nj"] = window_nj / completed if completed else 0.0
        row["avg_power_mw"] = energy.last_window_avg_power_mw
        breakdown = energy.last_window_breakdown
        fpga_nj = breakdown.get("fpga", 0.0) / 1000.0
        row["e_fpga_nj"] = fpga_nj
        row["e_static_nj"] = breakdown.get("static", 0.0) / 1000.0
        row["e_clock_nj"] = breakdown.get("clock", 0.0) / 1000.0


# --------------------------------------------------------------------------- #
# Experiment cells
# --------------------------------------------------------------------------- #
def serve_policy_cell(policy: str, arrival_rate_krps: float, tenant_mix: str,
                      duration_us: float = 2_000.0, num_fabrics: int = 1,
                      queue_capacity: int = 64, patience_ns: float = 100_000.0,
                      seed: int = DEFAULT_SEED) -> List[Dict[str, Any]]:
    outcome = run_serve(
        policy, tenant_mix=tenant_mix, arrival_rate_krps=arrival_rate_krps,
        duration_us=duration_us, num_fabrics=num_fabrics,
        queue_capacity=queue_capacity, patience_ns=patience_ns, seed=seed,
    )
    return outcome["rows"]


def serve_policy_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Compare policies on the aggregate rows, per (mix, rate) point."""
    aggregates = [row for row in rows if row.get("tenant") == "__all__"]
    summary: Dict[str, Any] = {}
    points = sorted({(row["tenant_mix"], row["arrival_rate_krps"])
                     for row in aggregates})
    for mix, rate in points:
        cell = {row["policy"]: row for row in aggregates
                if row["tenant_mix"] == mix and row["arrival_rate_krps"] == rate}
        if not cell:
            continue
        label = f"{mix}@{rate:g}krps"
        best = min(cell.values(), key=lambda row: row["p99_latency_us"])
        summary[f"best_p99_policy[{label}]"] = best["policy"]
        fcfs, affinity = cell.get("fcfs"), cell.get("affinity")
        if fcfs and affinity and fcfs["p99_latency_us"] > 0:
            summary[f"affinity_p99_vs_fcfs[{label}]"] = (
                affinity["p99_latency_us"] / fcfs["p99_latency_us"])
        if fcfs and affinity and fcfs["goodput_krps"] > 0:
            summary[f"affinity_goodput_vs_fcfs[{label}]"] = (
                affinity["goodput_krps"] / fcfs["goodput_krps"])
    return summary


def serve_energy_cell(policy: str, arrival_rate_krps: float = 150.0,
                      tenant_mix: str = "duo", duration_us: float = 2_000.0,
                      queue_capacity: int = 64, patience_ns: float = 100_000.0,
                      seed: int = DEFAULT_SEED) -> List[Dict[str, Any]]:
    outcome = run_serve(
        policy, tenant_mix=tenant_mix, arrival_rate_krps=arrival_rate_krps,
        duration_us=duration_us, num_fabrics=1,
        queue_capacity=queue_capacity, patience_ns=patience_ns, seed=seed,
        power=True,
    )
    # Energy is deployment-wide, so the energy experiment reports only the
    # aggregate row per cell.
    return [row for row in outcome["rows"] if row["tenant"] == "__all__"]


def serve_energy_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    usable = [row for row in rows if row.get("energy_per_request_nj", 0.0) > 0]
    if not usable:
        return {}
    best = min(usable, key=lambda row: row["energy_per_request_nj"])
    return {
        "least_energy_per_request_policy": best["policy"],
        "least_energy_per_request_nj": best["energy_per_request_nj"],
    }
