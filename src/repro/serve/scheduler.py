"""Reconfiguration-aware multiplexing of eFPGA fabrics across tenants.

A :class:`FabricScheduler` owns a bounded admission queue and the worker
processes of each :class:`FabricContext`.  Each fabric is a real slice of
the existing simulation stack — a :class:`~repro.core.control_hub.ControlHub`
on its own one-tile NoC plus a
:class:`~repro.fpga.clocking.ProgrammableClockGenerator` — so switching a
fabric between two tenants' accelerators pays the *actual* programming
engine transfer time (``config_bits / programming_bits_per_cycle`` system
cycles through :meth:`ControlHub.program`) and retunes the eFPGA clock
through the same Fmax-clamped path software retunes use.

Scheduling policies are pluggable (:data:`POLICY_KINDS`):

* ``fcfs`` — strict arrival order;
* ``sjf`` — shortest estimated service first (ties by arrival);
* ``priority`` — highest tenant priority first (ties by arrival);
* ``affinity`` — serve requests matching the fabric's currently programmed
  bitstream first, falling back to the oldest request when nothing matches
  or when the head of the queue has waited longer than ``patience_ns``
  (the starvation guard).  Batching same-bitstream requests amortizes the
  reconfiguration cost, which is the serving-side payoff of bitstream
  programmability.

Every fabric holds a *placement* that decides where a design lands, and
the scheduler runs one worker loop, ``placement.slots`` times per fabric,
over it.  The default :class:`WholeFabric` (``regions=1``) has one slot: a
switch programs the full image and retunes the shared clock.  With
``ServeConfig.regions > 1`` a :class:`RegionGrid` carves each fabric into K
column-band regions (:mod:`repro.reconfig`): designs co-locate on
contiguous spans, a switch programs only the changed span
(:meth:`Bitstream.for_regions` through the same ``ControlHub.program``),
idle spans are evicted LRU-first when the grid is full, and K slots serve
different resident designs concurrently.  The worker and
:meth:`FabricContext.serve` are the same for both; only the placement's
steps differ.

Everything is driven by simulated time and seeded randomness only, so a
serve run is exactly as deterministic as any other experiment cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.control_hub import ControlHub, ControlHubConfig
from repro.core.exceptions import DuetError
from repro.cpu.mmio import MmioMap
from repro.fpga.bitstream import Bitstream
from repro.fpga.clocking import ProgrammableClockGenerator
from repro.noc import NocNetwork, TileRouter, make_topology
from repro.reconfig.placement import RegionAllocator
from repro.reconfig.plan import RegionPlan
from repro.serve.catalog import ServedAccelerator, materialize
from repro.serve.slo import SloMonitor
from repro.serve.traffic import Request
from repro.sim import Delay, Simulator, StatSet
from repro.sim.clock import ClockDomain

#: Livelock guard for one serving simulation (a ``run_serve`` run or one
#: fleet node epoch): the most callbacks its ``Simulator.run`` may execute.
SERVE_MAX_EVENTS = 20_000_000


# --------------------------------------------------------------------------- #
# Scheduling policies
# --------------------------------------------------------------------------- #
class SchedulingPolicy:
    """Picks the next request a fabric should serve from the pending list.

    ``select`` returns an *index* into ``pending`` (kept in arrival order);
    implementations must be pure functions of the queue and fabric state so
    scheduling stays deterministic.
    """

    kind = "fcfs"

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class FcfsPolicy(SchedulingPolicy):
    """First come, first served — the baseline every policy is judged against."""

    kind = "fcfs"


class SjfPolicy(SchedulingPolicy):
    """Shortest estimated job first (estimated in simulated service time)."""

    kind = "sjf"

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        return min(range(len(pending)),
                   key=lambda i: (fabric.estimate_service_ns(pending[i]), i))


class PriorityPolicy(SchedulingPolicy):
    """Highest tenant priority first; arrival order breaks ties."""

    kind = "priority"

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        return min(range(len(pending)),
                   key=lambda i: (-pending[i].priority, i))


class AffinityPolicy(SchedulingPolicy):
    """Batch requests for the currently programmed bitstream.

    If the oldest pending request has waited longer than ``patience_ns``
    the policy degenerates to FCFS for that pick — bounding how long a
    minority tenant can starve behind a popular bitstream.
    """

    kind = "affinity"

    def __init__(self, patience_ns: float = 100_000.0) -> None:
        if patience_ns < 0:
            raise ValueError(f"patience_ns cannot be negative, got {patience_ns}")
        self.patience_ns = patience_ns

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        head = pending[0]
        now = fabric.sim.now
        if now - head.arrival_ns > self.patience_ns:
            return 0
        resident = fabric.has_resident
        for index, request in enumerate(pending):
            if resident(request.accelerator):
                return index
        return 0


POLICY_KINDS: Tuple[str, ...] = ("fcfs", "sjf", "priority", "affinity")


def make_policy(kind: str, patience_ns: float = 100_000.0) -> SchedulingPolicy:
    if kind == "fcfs":
        return FcfsPolicy()
    if kind == "sjf":
        return SjfPolicy()
    if kind == "priority":
        return PriorityPolicy()
    if kind == "affinity":
        return AffinityPolicy(patience_ns=patience_ns)
    known = ", ".join(POLICY_KINDS)
    raise ValueError(f"unknown scheduling policy {kind!r}; known policies: {known}")


# --------------------------------------------------------------------------- #
# Placements: where a design lands on a fabric
# --------------------------------------------------------------------------- #
class Placement:
    """Where designs land on one fabric, and how a request holds a slot.

    The scheduler's worker and :meth:`FabricContext.serve` are shared; a
    placement supplies the steps that differ: which pending request can
    start (:meth:`pick`), the image a switch transfers (``claim``), what a
    finished transfer changes (``loaded``), what the service waits on
    (``occupy``), the affinity test (``resident``), the heal after a fault
    (``reset``) and the pristine image an SEU corrupts (``pristine``).
    """

    #: Workers serving this fabric concurrently.
    slots = 1
    #: Whether designs co-locate, each at its own clock and trace track,
    #: instead of taking turns on the whole device.  A finished service
    #: then can unblock a waiting request, so completions wake the workers.
    colocated = False

    def __init__(self, fabric: "FabricContext") -> None:
        self.fabric = fabric

    def pick(self, pending: List[Request], policy: SchedulingPolicy) -> Optional[int]:
        """Index into ``pending`` of the request to serve next, or ``None``
        when none can start now."""
        return policy.select(pending, self.fabric)

    def abandon(self, name: str) -> None:
        """The claimed image of ``name`` failed its integrity check."""

    def release(self, name: str) -> None:
        """The service of ``name`` finished."""


class WholeFabric(Placement):
    """One slot: the whole device runs one design at a time (the default).

    A switch programs the full image and retunes the shared clock
    generator; service waits whole cycles of the fabric's clock domain.
    """

    def claim(self, accelerator: ServedAccelerator) -> Optional[Bitstream]:
        fabric = self.fabric
        if fabric.current_design == accelerator.name:
            return None
        if fabric.energy is not None:
            # Close the accounting epoch at the old frequency before the
            # retune so each epoch integrates at the voltage that applied.
            fabric.energy.sample()
        image = fabric.images.get(accelerator.name)
        return image if image is not None else accelerator.bitstream

    def loaded(self, accelerator: ServedAccelerator, image: Bitstream) -> None:
        fabric = self.fabric
        mhz = fabric.clock_mhz_for(accelerator)
        fabric.clock_generator.set_max_frequency(accelerator.fmax_mhz)
        fabric.clock_generator.set_frequency(mhz)
        fabric.current_design = accelerator.name

    def occupy(self, accelerator: ServedAccelerator, cycles: int):
        energy = self.fabric.energy
        if energy is not None:
            energy.probe.fpga_active_cycles += cycles
        return self.fabric.clock_generator.fpga_domain.wait_cycles(cycles)

    def resident(self, name: str) -> bool:
        return name == self.fabric.current_design

    def reset(self) -> None:
        self.fabric.current_design = None

    def pristine(self, name: str) -> Bitstream:
        return self.fabric.accelerators[name].bitstream


class RegionGrid(Placement):
    """K slots: one shared device carved into column-band regions.

    Designs co-locate on contiguous spans (:mod:`repro.reconfig`).  A span
    serves one request at a time, so it is pinned for the whole service —
    pinned *before* programming, so a concurrent worker placing another
    design can never evict a span mid-transfer.  A switch programs only the
    changed span (:meth:`Bitstream.for_regions`) and idle spans are evicted
    LRU-first when the grid is full.  Each design runs at its own clock
    (per-region clocking), so service is a plain delay at
    :meth:`FabricContext.clock_mhz_for`, with no shared-generator retune.
    """

    colocated = True

    def __init__(self, fabric: "FabricContext", plan: RegionPlan) -> None:
        super().__init__(fabric)
        self.plan = plan
        self.slots = plan.regions
        self.allocator = RegionAllocator(plan.capacities)
        self.regions_programmed = 0
        self.frag_samples: List[float] = []

    def _can_start(self, request: Request) -> bool:
        """Yes when the design holds an *idle* span, or when a span could
        be placed — evicting idle residents LRU-first if needed."""
        name = request.accelerator
        if self.allocator.lookup(name) is not None:
            return not self.allocator.is_pinned(name)
        return self.allocator.can_place(self.plan.tiles[name], name)

    def pick(self, pending: List[Request], policy: SchedulingPolicy) -> Optional[int]:
        startable = [index for index, request in enumerate(pending)
                     if self._can_start(request)]
        if not startable:
            return None
        subset = [pending[index] for index in startable]
        return startable[policy.select(subset, self.fabric)]

    def claim(self, accelerator: ServedAccelerator) -> Optional[Bitstream]:
        name = accelerator.name
        if self.allocator.lookup(name) is not None:
            self.allocator.pin(name)
            self.allocator.touch(name)
            return None
        span = self.allocator.place(name, self.plan.tiles[name]).regions
        self.allocator.pin(name)
        self.frag_samples.append(self.allocator.fragmentation())
        image = self.fabric.images.get(name, self.plan.images[name])
        return image.for_regions(span)

    def abandon(self, name: str) -> None:
        # An SEU in the transferred span: the span holds no valid design —
        # free it before the scheduler's scrub/retry or shed path runs.
        self.allocator.unpin(name)
        self.allocator.evict(name)

    def loaded(self, accelerator: ServedAccelerator, image: Bitstream) -> None:
        self.regions_programmed += len(image.meta["regions"])

    def occupy(self, accelerator: ServedAccelerator, cycles: int):
        return Delay(cycles * 1000.0 / self.fabric.clock_mhz_for(accelerator))

    def release(self, name: str) -> None:
        self.allocator.unpin(name)

    def resident(self, name: str) -> bool:
        return self.allocator.lookup(name) is not None

    def reset(self) -> None:
        self.allocator.reset()

    def pristine(self, name: str) -> Bitstream:
        # The *regioned* image: an SEU trips only when its span transfers.
        return self.plan.images[name]


# --------------------------------------------------------------------------- #
# One servable fabric
# --------------------------------------------------------------------------- #
class FabricContext:
    """One eFPGA fabric: Control Hub, clock generator, programmed state and
    the placement that decides where designs land on it."""

    def __init__(
        self,
        sim: Simulator,
        sys_domain: ClockDomain,
        tile_router: TileRouter,
        mmio_map: MmioMap,
        accelerators: Dict[str, ServedAccelerator],
        monitor: SloMonitor,
        index: int = 0,
        fpga_mhz: Optional[float] = None,
        hub_config: Optional[ControlHubConfig] = None,
        images: Optional[Dict[str, Bitstream]] = None,
        placement: Callable[["FabricContext"], Placement] = WholeFabric,
    ) -> None:
        self.sim = sim
        self.sys_domain = sys_domain
        self.index = index
        self.name = f"fabric{index}"
        self.accelerators = accelerators
        #: The lifecycle funnel programmings and services are reported to.
        self.monitor = monitor
        #: Requested service clock; ``None`` runs each accelerator at Fmax.
        self.fpga_mhz = fpga_mhz
        self.clock_generator = ProgrammableClockGenerator(
            sim, sys_domain, name=f"{self.name}.clkgen")
        self.control_hub = ControlHub(
            sim, sys_domain, tile_router, mmio_map, self.clock_generator,
            config=hub_config, name=f"{self.name}.ctrl")
        #: The design a whole-image programming last loaded (whole-fabric
        #: placement only; region grids leave it ``None``).
        self.current_design: Optional[str] = None
        self.stats = StatSet(f"{self.name}.stats")
        self.reconfigurations = 0
        self.reconfig_ns_total = 0.0
        self.service_ns_total = 0.0
        #: Energy hook: when set, served cycles and clock retunes feed the
        #: attached :class:`~repro.power.model.EnergyModel` (see run_serve).
        self.energy = None
        #: Corrupt-image overrides shared with the scheduler (see
        #: :attr:`FabricScheduler.images`); empty on every fault-free run.
        self.images: Dict[str, Bitstream] = images if images is not None else {}
        self.placement: Placement = placement(self)
        #: Whether design ``name`` is loaded right now (the affinity test).
        self.has_resident: Callable[[str], bool] = self.placement.resident
        # -- fault state (repro.chaos) ---------------------------------- #
        self.failed = False
        self.fail_time_ns = -1.0
        self.fail_time_ps = -1
        self.fail_reason: Optional[str] = None
        self._repair = None

    # ------------------------------------------------------------------ #
    # Fault state (driven by the scheduler's chaos APIs)
    # ------------------------------------------------------------------ #
    def repair_event(self):
        """Event a parked worker waits on until this fabric heals."""
        if self._repair is None or self._repair.triggered:
            self._repair = self.sim.event(name=f"{self.name}.repair")
        return self._repair

    def fail(self, reason: str) -> None:
        self.failed = True
        self.fail_time_ns = self.sim.now
        self.fail_time_ps = self.sim.now_ps
        self.fail_reason = reason

    def heal(self) -> None:
        self.failed = False
        self.fail_reason = None
        # The configuration memory did not survive the fault: the next
        # request pays a full reprogram through ControlHub.program.
        self.placement.reset()
        if self._repair is not None and not self._repair.triggered:
            self._repair.succeed()

    # ------------------------------------------------------------------ #
    # Introspection used by policies
    # ------------------------------------------------------------------ #
    def clock_mhz_for(self, accelerator: ServedAccelerator) -> float:
        """The clock the generator would settle at for this accelerator."""
        target = self.fpga_mhz if self.fpga_mhz is not None else accelerator.fmax_mhz
        return min(target, accelerator.fmax_mhz)

    def estimate_service_ns(self, request: Request) -> float:
        """Pure service-time estimate (no queueing, no reconfiguration)."""
        accelerator = self.accelerators[request.accelerator]
        cycles = accelerator.service_cycles(request.size)
        return cycles * 1000.0 / self.clock_mhz_for(accelerator)

    # ------------------------------------------------------------------ #
    # The serve path (a generator driven by the scheduler worker)
    # ------------------------------------------------------------------ #
    def serve(self, request: Request):
        """Serve ``request`` in one placement slot.

        The slot is claimed before the first yield, so the worker's
        startability check cannot go stale.  A design that is not resident
        is programmed through :meth:`ControlHub.program` first; the slot is
        then held for the service time.
        """
        placement = self.placement
        accelerator = self.accelerators[request.accelerator]
        image = placement.claim(accelerator)
        if image is not None:
            started = self.sim.now
            start_ps = self.sim.now_ps
            try:
                yield from self.control_hub.program(image)
            except DuetError:
                placement.abandon(accelerator.name)
                raise
            placement.loaded(accelerator, image)
            self.reconfigurations += 1
            elapsed = self.sim.now - started
            self.reconfig_ns_total += elapsed
            self.stats.histogram("reconfig_ns").record(elapsed)
            self.monitor.on_program(request, self, image, start_ps)
        try:
            request.start_ns = self.sim.now
            start_ps = self.sim.now_ps
            yield placement.occupy(
                accelerator, accelerator.service_cycles(request.size))
            request.finish_ns = self.sim.now
            self.service_ns_total += request.finish_ns - request.start_ns
            self.monitor.on_service(request, self, start_ps)
        finally:
            placement.release(accelerator.name)
        return request


# --------------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------------- #
@dataclass
class ServeConfig:
    """Static configuration of one serving deployment."""

    policy: str = "fcfs"
    num_fabrics: int = 1
    system_mhz: float = 1000.0
    #: ``None`` runs every accelerator at its own post-route Fmax.
    fpga_mhz: Optional[float] = None
    #: Bounded admission queue; ``None`` means unbounded (never shed).
    queue_capacity: Optional[int] = 64
    #: Affinity starvation guard (see :class:`AffinityPolicy`).
    patience_ns: float = 100_000.0
    #: Which catalog entries this deployment can serve.
    accelerators: Tuple[str, ...] = ()
    control_hub: ControlHubConfig = field(default_factory=ControlHubConfig)
    #: Region grid per fabric; 1 = the whole-fabric path (bit-identical to
    #: a build without region support), > 1 = region-granular co-location.
    regions: int = 1
    #: Under/over-provision the shared region grid (< 1 forces eviction and
    #: fragmentation pressure; only meaningful with ``regions > 1``).
    region_fabric_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_fabrics < 1:
            raise ValueError(f"need at least one fabric, got {self.num_fabrics}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1 or None, got {self.queue_capacity}")
        if self.regions < 1:
            raise ValueError(f"regions must be >= 1, got {self.regions}")
        if self.region_fabric_scale <= 0:
            raise ValueError(
                f"region_fabric_scale must be positive, got {self.region_fabric_scale}")
        make_policy(self.policy, patience_ns=self.patience_ns)  # fail fast


class FabricScheduler:
    """Admission queue + per-fabric worker processes."""

    def __init__(self, sim: Simulator, config: ServeConfig,
                 monitor: Optional[SloMonitor] = None) -> None:
        if not config.accelerators:
            raise ValueError("ServeConfig.accelerators must name >= 1 catalog entry")
        self.sim = sim
        self.config = config
        self.monitor = monitor or SloMonitor(sim)
        self.policy = make_policy(config.policy, patience_ns=config.patience_ns)
        self.sys_domain = ClockDomain(sim, config.system_mhz, "serve-sys")
        # Pre-materialize every servable bitstream once (the offline
        # synthesis the paper's toolchain performs).
        self.accelerators: Dict[str, ServedAccelerator] = {}
        for name in config.accelerators:
            if name not in self.accelerators:
                self.accelerators[name] = materialize(name)
        # One tile per fabric on a private control NoC.
        self.network = NocNetwork(sim, self.sys_domain,
                                  topology=make_topology("mesh", config.num_fabrics, 1))
        mmio_map = MmioMap()
        #: Corrupt-image overrides keyed by accelerator name.  SEU injection
        #: writes here; reconfigure reads through it; scrubbing pops the
        #: entry to restore the pristine catalog bitstream.  Empty (and
        #: never touched) on fault-free runs.
        self.images: Dict[str, Bitstream] = {}
        placement: Callable[[FabricContext], Placement] = WholeFabric
        if config.regions > 1:
            # One plan (geometry and images) shared by every fabric.
            plan = RegionPlan.build(self.accelerators, config.regions,
                                    fabric_scale=config.region_fabric_scale)
            placement = functools.partial(RegionGrid, plan=plan)
        self.fabrics = [
            FabricContext(
                sim, self.sys_domain, TileRouter(self.network, node), mmio_map,
                self.accelerators, self.monitor, index=node, fpga_mhz=config.fpga_mhz,
                hub_config=config.control_hub, images=self.images,
                placement=placement,
            )
            for node in range(config.num_fabrics)
        ]
        self.pending: List[Request] = []
        self.closed = False
        self._work_event = sim.event(name="serve.work")
        self._drained = sim.event(name="serve.drained")
        self._in_flight = 0
        # -- chaos knobs/accounting (defaults keep fault-free runs exact) - #
        #: When True (the default) faults fail over: lost requests replay
        #: through surviving fabrics and corrupt images are scrubbed.
        self.recovery = True
        #: Detection/scrub latency paid before an SEU retry (ns).
        self.fault_detect_ns = 2_000.0
        #: Fault/recovery counters over a fixed key set (the chaos injector
        #: bumps ``faults_injected``); an unknown key raises ``KeyError``.
        self.fault_stats: Dict[str, int] = dict.fromkeys((
            "faults_injected", "fabric_faults", "requests_lost",
            "replayed", "fault_shed", "seu_scrubs", "link_faults",
        ), 0)
        #: Accelerators whose image is corrupt with recovery disabled.
        self.poisoned: Set[str] = set()
        #: ``slots`` workers per fabric: on a region grid, different
        #: resident designs serve concurrently, each on its own span.
        self.workers = [
            sim.process(self._worker(fabric),
                        name=f"serve.worker{fabric.index}.{slot}")
            for fabric in self.fabrics
            for slot in range(fabric.placement.slots)
        ]

    # ------------------------------------------------------------------ #
    # Observability (repro.obs; default off)
    # ------------------------------------------------------------------ #
    def observe(self, observer) -> None:
        """Subscribe ``observer`` to every lifecycle event: its ``on_*``
        methods mirror the :class:`~repro.serve.slo.SloMonitor` hooks.  Call
        before the run; observers never change its results (pinned)."""
        self.monitor.observers += (observer,)

    # ------------------------------------------------------------------ #
    # Admission (called by traffic sources)
    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> bool:
        """Admit ``request``; returns False when admission shed it."""
        request.arrival_ns = self.sim.now
        capacity = self.config.queue_capacity
        if self.closed or (capacity is not None and len(self.pending) >= capacity):
            request.shed = True
            self.monitor.on_shed(request)
            if request.completion is not None:
                request.completion.succeed(request)
            return False
        self.pending.append(request)
        self.monitor.on_submit(request, len(self.pending))
        self._notify()
        return True

    def close(self) -> None:
        """Stop admitting; workers exit once the queue drains."""
        self.closed = True
        self._notify()

    def drained(self):
        """Event that fires when the queue is empty after :meth:`close`."""
        return self._drained

    def _notify(self) -> None:
        event = self._work_event
        self._work_event = self.sim.event(name="serve.work")
        if not event.triggered:
            event.succeed()

    # ------------------------------------------------------------------ #
    # Fault injection + recovery (driven by repro.chaos)
    # ------------------------------------------------------------------ #
    def fail_fabric(self, index: int, reason: str = "fabric") -> bool:
        """Kill fabric ``index`` now.  Its in-flight request (if any) is
        lost at what would have been its completion instant; its worker
        parks until :meth:`heal_fabric`.  Returns False when already dead."""
        fabric = self.fabrics[index]
        if fabric.failed:
            return False
        fabric.fail(reason)
        self.fault_stats["fabric_faults"] += 1
        self.monitor.on_fault()
        self._notify()
        return True

    def heal_fabric(self, index: int) -> bool:
        """Bring fabric ``index`` back (configuration memory blank)."""
        fabric = self.fabrics[index]
        if not fabric.failed:
            return False
        reason = fabric.fail_reason
        fabric.heal()
        self.monitor.on_failover(fabric, reason)
        self._notify()
        return True

    def corrupt_image(self, accelerator: str, offset: int, flip_mask: int) -> None:
        """SEU: flip bits in the stored image of ``accelerator``.

        Latent until the next reprogram of that accelerator trips the
        programming engine's integrity check (see ControlHub.program).  The
        upset lands in the image the placement transfers from: on a region
        grid that is the design's *regioned* image, so it only trips when
        the flipped span is actually transferred — an SEU in a region that
        is never reprogrammed stays latent forever."""
        pristine = self.fabrics[0].placement.pristine(accelerator)
        base = self.images.get(accelerator, pristine)
        self.images[accelerator] = base.corrupted(offset=offset, flip_mask=flip_mask)
        self.monitor.on_fault()

    def scrub_image(self, accelerator: str) -> None:
        """Restore the pristine catalog bitstream for ``accelerator``."""
        self.images.pop(accelerator, None)
        self.poisoned.discard(accelerator)

    def cut_link(self, a: int, b: int) -> Tuple[int, ...]:
        """Fault the control-NoC link ``a <-> b``; fabrics cut off from the
        control tile (tile 0) fail until :meth:`restore_link`.  Returns the
        indices that went unreachable."""
        self.network.fail_link(a, b)
        self.fault_stats["link_faults"] += 1
        reachable = self.network.topology.reachable_set(0)
        lost = tuple(
            fabric.index for fabric in self.fabrics
            if fabric.index not in reachable and not fabric.failed)
        for index in lost:
            self.fail_fabric(index, reason="unreachable")
        return lost

    def restore_link(self, a: int, b: int) -> Tuple[int, ...]:
        """Heal the link and revive fabrics that are reachable again."""
        self.network.heal_link(a, b)
        reachable = self.network.topology.reachable_set(0)
        revived = tuple(
            fabric.index for fabric in self.fabrics
            if fabric.index in reachable and fabric.failed
            and fabric.fail_reason == "unreachable")
        for index in revived:
            self.heal_fabric(index)
        return revived

    def _handle_lost(self, request: Request) -> None:
        """The fabric serving ``request`` died mid-service."""
        self.fault_stats["requests_lost"] += 1
        request.start_ns = -1.0
        request.finish_ns = -1.0
        self.monitor.on_lost(request)
        if self.recovery:
            # Failover: replay through whichever fabric frees up first.
            # Not a new admission — the request was already counted.
            self.fault_stats["replayed"] += 1
            self.pending.append(request)
            self.monitor.on_replay(request, len(self.pending))
            self._notify()
        else:
            self._fault_shed(request)

    def _fault_shed(self, request: Request) -> None:
        request.shed = True
        self.fault_stats["fault_shed"] += 1
        self.monitor.on_fault_shed(request)
        if request.completion is not None:
            request.completion.succeed(request)

    def _handle_program_fault(self, fabric: FabricContext, request: Request):
        """``fabric.serve`` tripped the bitstream integrity check."""
        name = request.accelerator
        request.start_ns = -1.0
        request.finish_ns = -1.0
        if self.recovery:
            # Scrub the corrupt image, pay the detection latency, and put
            # the request back at the head of the queue for a retry (the
            # retry pays a full reprogram of the pristine image).
            self.fault_stats["seu_scrubs"] += 1
            self.scrub_image(name)
            scrub_start_ps = self.sim.now_ps
            if self.fault_detect_ns > 0:
                yield Delay(self.fault_detect_ns)
            self.fault_stats["replayed"] += 1
            self.pending.insert(0, request)
            self.monitor.on_scrub(fabric, name, scrub_start_ps)
            self.monitor.on_replay(request, len(self.pending))
            self._notify()
        else:
            # No recovery: the accelerator is poisoned — this and every
            # later request needing a reprogram of it sheds.
            self.poisoned.add(name)
            self._fault_shed(request)
        return None

    def flush_pending(self) -> int:
        """Shed whatever is still queued (a chaos run can end partitioned
        with every fabric dead); keeps submitted == completed + shed."""
        flushed = 0
        while self.pending:
            self._fault_shed(self.pending.pop())
            flushed += 1
        return flushed

    # ------------------------------------------------------------------ #
    # Worker processes (``placement.slots`` per fabric)
    # ------------------------------------------------------------------ #
    def _worker(self, fabric: FabricContext):
        placement = fabric.placement
        while True:
            if fabric.failed:
                yield fabric.repair_event()
                continue
            if not self.pending:
                if self.closed:
                    break
                yield self._work_event
                continue
            index = placement.pick(self.pending, self.policy)
            if index is None:
                # Every blocked request targets a busy slot, so a service
                # is in flight and its completion will notify.
                yield self._work_event
                continue
            request = self.pending.pop(index)
            self.monitor.on_dequeue(request, len(self.pending), fabric)
            self._in_flight += 1
            program_fault = False
            try:
                yield from fabric.serve(request)
            except DuetError:
                program_fault = True
            finally:
                self._in_flight -= 1
                if placement.colocated:
                    self._notify()
            if program_fault:
                yield from self._handle_program_fault(fabric, request)
                continue
            if fabric.failed and fabric.fail_time_ns < self.sim.now:
                # The fabric died while this request was on it.
                self._handle_lost(request)
                continue
            self.monitor.on_complete(request, fabric)
            if request.completion is not None:
                request.completion.succeed(request)
        if (self.closed and not self.pending and self._in_flight == 0
                and not self._drained.triggered):
            self._drained.succeed()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def fabric_totals(self) -> Dict[str, float]:
        """Aggregate fabric-side accounting for report rows."""
        return {
            "reconfigurations": sum(f.reconfigurations for f in self.fabrics),
            "reconfig_us_total": sum(f.reconfig_ns_total for f in self.fabrics) / 1000.0,
            "service_us_total": sum(f.service_ns_total for f in self.fabrics) / 1000.0,
        }

    def region_totals(self) -> Dict[str, float]:
        """Region-mode accounting; only merged into rows when regions > 1
        (the default-off contract: regions=1 rows keep their exact shape)."""
        grids = [f.placement for f in self.fabrics]
        frag = [sample for grid in grids for sample in grid.frag_samples]
        return {
            "regions": self.config.regions,
            "region_capacity_tiles": grids[0].plan.region_capacity,
            "region_programmings": sum(f.reconfigurations for f in self.fabrics),
            "regions_programmed": sum(g.regions_programmed for g in grids),
            "region_evictions": sum(g.allocator.evictions for g in grids),
            "fragmentation_mean": sum(frag) / len(frag) if frag else 0.0,
        }

    def chaos_totals(self) -> Dict[str, int]:
        """Fault/recovery accounting (all zero on a fault-free run)."""
        totals = dict(self.fault_stats)
        totals["dead_fabrics"] = sum(1 for f in self.fabrics if f.failed)
        return totals
