"""Per-tenant service-level accounting for the serving subsystem.

The monitor is pure observation: the scheduler reports admissions,
sheddings and completions, and everything lands in the standard
:mod:`repro.sim.stats` primitives — per-tenant latency
:class:`~repro.sim.stats.Histogram`\\ s (p50/p95/p99 via nearest-rank)
and a queue-depth :class:`~repro.sim.stats.TimeSeries`, next to one
:class:`TenantAccount` of plain counts per tenant.  Goodput is defined the
strict way: only requests that *completed within their tenant's SLO* count,
so an overloaded policy cannot buy throughput by blowing the tail.

The ``on_*`` hooks are the serve path's one request-lifecycle funnel:
each event is reported once and forwarded to every observer
(:meth:`FabricScheduler.observe`) before it is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.traffic import Request
from repro.sim import Histogram, StatSet, TimeSeries

#: The latency percentiles every tenant row reports, as (label, fraction).
#: ``p999`` (and the ``max_latency_us`` column next to the loop over this
#: tuple) arrived with :mod:`repro.obs`: chaos recovery spikes live beyond
#: p99, so tail analysis that stops there cannot see them.  The pre-p999
#: columns keep their exact values — goldens recorded before the extension
#: still match on every column they name.
REPORT_PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
                      ("p999", 0.999))


@dataclass
class TenantAccount:
    """Aggregated outcomes for one tenant."""

    name: str
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    slo_violations: int = 0
    slo_ns: float = 0.0
    #: Completions that met the tenant's SLO (the goodput numerator).
    good: int = 0
    service_ns_total: float = 0.0
    queue_wait_ns_total: float = 0.0
    # -- chaos accounting (all zero unless faults were injected) -------- #
    #: Requests lost to a fault (dead fabric, corrupt image) and shed.
    fault_shed: int = 0
    #: Requests replayed through a surviving fabric after a fault.
    replayed: int = 0
    #: Sum over faults of (first post-fault completion - fault instant).
    recovery_time_ns: float = 0.0

    def add(self, other: "TenantAccount") -> None:
        """Fold ``other``'s counts into this account (name and SLO kept)."""
        self.submitted += other.submitted
        self.completed += other.completed
        self.shed += other.shed
        self.slo_violations += other.slo_violations
        self.good += other.good
        self.service_ns_total += other.service_ns_total
        self.queue_wait_ns_total += other.queue_wait_ns_total
        self.fault_shed += other.fault_shed
        self.replayed += other.replayed
        self.recovery_time_ns += other.recovery_time_ns


def tenant_rows(accounts: Dict[str, TenantAccount],
                samples: Dict[str, List[float]], elapsed_ns: float,
                extra: Optional[Dict[str, Any]] = None,
                chaos: bool = False) -> List[Dict[str, Any]]:
    """One report row per tenant plus an ``__all__`` aggregate row.

    ``samples`` holds each tenant's latencies (ns); ``elapsed_ns`` is the
    measured window (goodput denominator); ``extra`` columns (policy,
    rate, ...) are prepended to every row; ``chaos`` adds the fault
    columns.  Rows are emitted in tenant-name order, and the aggregate sums
    in that order, so reports are deterministic regardless of completion
    interleaving.  Serve runs and the fleet merge share this one builder.
    """
    if elapsed_ns <= 0:
        raise ValueError(f"elapsed_ns must be positive, got {elapsed_ns}")
    rows: List[Dict[str, Any]] = []
    totals = TenantAccount(name="__all__")
    all_samples: List[float] = []
    for name in sorted(accounts):
        account = accounts[name]
        totals.add(account)
        all_samples.extend(samples[name])
        rows.append(_row(account, samples[name], elapsed_ns, extra, chaos))
    rows.append(_row(totals, all_samples, elapsed_ns, extra, chaos))
    return rows


def _row(account: TenantAccount, samples: List[float], elapsed_ns: float,
         extra: Optional[Dict[str, Any]], chaos: bool) -> Dict[str, Any]:
    histogram = Histogram(account.name, samples=samples)
    row: Dict[str, Any] = dict(extra or {})
    completed = account.completed
    row.update({
        "tenant": account.name,
        "submitted": account.submitted,
        "completed": completed,
        "shed": account.shed,
        "slo_violations": account.slo_violations,
        "slo_ns": account.slo_ns,
        "goodput_krps": account.good / elapsed_ns * 1e6,
        "throughput_krps": completed / elapsed_ns * 1e6,
        "mean_latency_us": histogram.mean / 1000.0,
        "mean_queue_wait_us": (
            account.queue_wait_ns_total / completed / 1000.0 if completed else 0.0),
    })
    for label, fraction in REPORT_PERCENTILES:
        row[f"{label}_latency_us"] = histogram.percentile(fraction) / 1000.0
    row["max_latency_us"] = histogram.maximum / 1000.0
    if chaos:
        # Chaos columns only appear on a chaos run, so fault-free runs stay
        # bit-identical to their goldens.
        row["fault_shed"] = account.fault_shed
        row["replayed"] = account.replayed
        row["recovery_time_ns"] = account.recovery_time_ns
    return row


class SloMonitor:
    """Collects per-tenant latency/queue/goodput statistics for one run."""

    def __init__(self, sim, name: str = "serve") -> None:
        self.sim = sim
        self.name = name
        #: Per-tenant latency histograms and the queue-depth series.
        self.stats = StatSet(f"{name}.slo")
        self.accounts: Dict[str, TenantAccount] = {}
        self.queue_depth: TimeSeries = self.stats.series("queue_depth")
        #: Each hook calls the same-named method of every observer, in order,
        #: *before* recording, so a crossed telemetry window closes first.
        self.observers: Tuple[Any, ...] = ()
        #: Number of fault instants observed (0 on every fault-free run).
        self.faults = 0
        # Tenants with an open recovery window: name -> fault instant (ns).
        self._recovery_pending: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Scheduler-facing recording hooks
    # ------------------------------------------------------------------ #
    def _account(self, request: Request) -> TenantAccount:
        account = self.accounts.get(request.tenant)
        if account is None:
            account = self.register(request.tenant, request.slo_ns)
        return account

    def register(self, tenant: str, slo_ns: float) -> TenantAccount:
        """Pre-create a tenant account so the tenant reports even when it
        never manages to submit (e.g. a migration blackout swallows its
        whole epoch).  Idempotent; returns the account."""
        account = self.accounts.get(tenant)
        if account is None:
            account = TenantAccount(name=tenant, slo_ns=slo_ns)
            self.accounts[tenant] = account
        return account

    def on_submit(self, request: Request, queue_depth: int) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_submit(request, queue_depth)
        self._account(request).submitted += 1
        self.queue_depth.record(self.sim.now, queue_depth)

    def on_shed(self, request: Request) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_shed(request)
        account = self._account(request)
        account.submitted += 1  # shed requests were still offered
        account.shed += 1

    def on_dequeue(self, request: Request, queue_depth: int, fabric) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_dequeue(request, queue_depth, fabric)
        self.queue_depth.record(self.sim.now, queue_depth)

    def on_complete(self, request: Request, fabric=None) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_complete(request, fabric)
        account = self._account(request)
        account.completed += 1
        account.queue_wait_ns_total += request.queue_wait_ns
        account.service_ns_total += request.finish_ns - request.start_ns
        latency = request.latency_ns
        self.stats.histogram(f"latency_ns.{request.tenant}").record(latency)
        if request.slo_met:
            account.good += 1
        elif request.slo_ns > 0:
            account.slo_violations += 1
        fault_at = self._recovery_pending.pop(request.tenant, None)
        if fault_at is not None:
            account.recovery_time_ns += self.sim.now - fault_at

    # ------------------------------------------------------------------ #
    # Chaos hooks (never called on a fault-free run)
    # ------------------------------------------------------------------ #
    def on_fault(self) -> None:
        """A fault hit now: open a recovery window for every tenant.

        Each tenant's window closes at its first post-fault completion;
        the elapsed time accumulates into ``recovery_time_ns``.  Windows
        do not stack — a second fault before recovery extends nothing.
        """
        if self.observers:
            for observer in self.observers:
                observer.on_fault()
        self.faults += 1
        for name in self.accounts:
            self._recovery_pending.setdefault(name, self.sim.now)

    def on_fault_shed(self, request: Request) -> None:
        """A previously-admitted request was lost to a fault and shed.

        Unlike :meth:`on_shed` this does *not* count a new submission —
        the request was already admitted once."""
        if self.observers:
            for observer in self.observers:
                observer.on_fault_shed(request)
        account = self._account(request)
        account.shed += 1
        account.fault_shed += 1

    def on_replay(self, request: Request, queue_depth: int) -> None:
        """A fault-lost request re-entered the queue for another attempt."""
        if self.observers:
            for observer in self.observers:
                observer.on_replay(request, queue_depth)
        self._account(request).replayed += 1
        self.queue_depth.record(self.sim.now, queue_depth)

    # ------------------------------------------------------------------ #
    # Fabric and chaos events: nothing to account, forwarded only.  Spans
    # run from ``start_ps`` (``sim.now_ps`` when they began) to now.
    # ------------------------------------------------------------------ #
    def on_program(self, request: Request, fabric, image, start_ps: int) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_program(request, fabric, image, start_ps)

    def on_service(self, request: Request, fabric, start_ps: int) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_service(request, fabric, start_ps)

    def on_lost(self, request: Request) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_lost(request)

    def on_scrub(self, fabric, design: str, start_ps: int) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_scrub(fabric, design, start_ps)

    def on_failover(self, fabric, reason: str) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_failover(fabric, reason)

    def on_inject(self, event) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_inject(event)

    def on_repair(self, event) -> None:
        if self.observers:
            for observer in self.observers:
                observer.on_repair(event)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def latency_histogram(self, tenant: str):
        return self.stats.histogram(f"latency_ns.{tenant}")

    def tenant_rows(self, elapsed_ns: float,
                    extra: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        """This run's :func:`tenant_rows`; the chaos columns appear once a
        fault actually fired."""
        samples = {name: self.latency_histogram(name).samples
                   for name in sorted(self.accounts)}
        return tenant_rows(self.accounts, samples, elapsed_ns, extra,
                           chaos=self.faults > 0)
