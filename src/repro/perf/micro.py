"""Microbenchmarks for the simulation kernel's hot paths.

Three of them, matching where the figure experiments spend their event
budget:

* :func:`kernel_throughput` — the canonical *kernel events/sec* number: a
  mixed workload of cooperative yields, event rendezvous (zero-delay
  wakeups through the immediate deque) and timed delays (heap traffic).
  The mix deliberately emphasizes the zero-delay paths (~6:1) because the
  per-event overhead of exactly those hops is what the fast path exists to
  eliminate; :func:`kernel_timed_throughput` tracks the heap path on its
  own, and :func:`paper_cell_throughput` tracks the realistic blend (the
  figure experiments schedule ~45% of their events at zero delay).
* :func:`channel_handoff` — blocking producer/consumer pairs through a
  capacity-1 :class:`~repro.sim.channel.Channel`, so every item forces a
  real event rendezvous each way.
* :func:`noc_message_throughput` — serialized messages across a network
  diameter on any topology, exercising batched link reservation, clock
  alignment and delivery events.  The gated ``noc_messages_per_sec``
  number runs the 8x8 mesh, with per-topology variants alongside (see
  ``repro.perf.SUITE``).  Passing
  ``power_hooks=True`` attaches a live :class:`~repro.power.PowerProbe`
  — the gated ``noc_messages_per_sec_hooks_on`` variant, which is what
  proves the energy-accounting hooks cost ~nothing on the hot path.
* :func:`energy_sample_rate` — epoch closes per wall second of a busy
  :class:`~repro.power.EnergyModel`: the accounting layer's own overhead.
* :func:`serve_request_throughput` — served requests per wall second
  through the :mod:`repro.serve` subsystem on the two-tenant
  reconfiguration-pressure mix: the gated ``serve_requests_per_sec``
  number.
* :func:`reconfig_request_throughput` — the same serving workload on a
  region-gridded fabric (:mod:`repro.reconfig`): allocator, span hot
  swaps and partial-image programming on the hot path — the gated
  ``reconfig_requests_per_sec`` number.
* :func:`fleet_request_throughput` — served requests per wall second
  through the :mod:`repro.fleet` cluster layer (placement, per-node
  simulation, deterministic merge): the gated ``fleet_requests_per_sec``
  number.
* :func:`chaos_request_throughput` — the same fleet path under injected
  faults with recovery on (:mod:`repro.chaos`): the gated
  ``chaos_requests_per_sec`` number.
* :func:`paper_cell_throughput` — paper-figure cells per wall second
  through the :class:`~repro.api.runner.Runner` (a fig9 and a fig11
  subset): the Dolly platform path under the figures, ungated.

All of them return a rate (per wall second), so *higher is better* and
regressions show up as ratios < 1 against the recorded baseline.
"""

from __future__ import annotations

import time

from repro.noc import NocMessage, NocNetwork, make_topology
from repro.power.model import EnergyModel, PowerConfig, PowerProbe
from repro.sim import Channel, ClockDomain, Delay, Simulator


def kernel_throughput(iterations: int = 30_000) -> float:
    """Events per wall second on the zero-delay-heavy kernel workload.

    Per iteration: four cooperative yields, one event rendezvous (a
    zero-delay succeed plus the waiter's wakeup) and one timed delay —
    seven events, ~6:1 zero-delay:timed.
    """
    sim = Simulator()

    def pinger():
        for _ in range(iterations):
            yield None                       # cooperative yields
            yield None
            yield None
            yield None
            event = sim.event()
            sim.schedule(0.0, event.succeed, 1)
            yield event                      # zero-delay rendezvous
            yield Delay(1.0)                 # timed wakeup (heap)

    sim.process(pinger())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_executed / elapsed


def kernel_timed_throughput(iterations: int = 30_000, processes: int = 4) -> float:
    """Events per wall second when every wakeup is a timed delay (heap path)."""
    sim = Simulator()

    def ticker():
        for _ in range(iterations):
            yield Delay(1.0)

    for _ in range(processes):
        sim.process(ticker())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_executed / elapsed


def kernel_zero_delay_throughput(iterations: int = 50_000) -> float:
    """Events per wall second when every wakeup is zero-delay."""
    sim = Simulator()

    def pinger():
        for _ in range(iterations):
            yield None
            event = sim.event()
            sim.schedule(0.0, event.succeed, 1)
            yield event

    sim.process(pinger())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_executed / elapsed


def channel_handoff(items: int = 20_000) -> float:
    """Items per wall second through a capacity-1 blocking channel."""
    sim = Simulator()
    channel = Channel(sim, capacity=1)
    received = 0

    def producer():
        for index in range(items):
            yield from channel.put(index)

    def consumer():
        nonlocal received
        for _ in range(items):
            yield from channel.get()
            received += 1

    sim.process(producer())
    sim.process(consumer())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if received != items:
        raise RuntimeError(f"channel bench lost items: {received}/{items}")
    return items / elapsed


def noc_message_throughput(messages: int = 2_000, width: int = 8, height: int = 8,
                           topology: str = "mesh", power_hooks: bool = False) -> float:
    """Serialized messages per wall second across a network diameter.

    The destination is the node farthest (in hops) from node 0, so every
    topology is measured over its own longest route — the mesh pays the
    full diagonal, the torus half of it, the crossbar a single hop.
    ``power_hooks=True`` attaches a live power probe, turning every send's
    default-off energy hook into a real counter increment.
    """
    sim = Simulator()
    domain = ClockDomain(sim, 1000.0, "noc-bench")
    network = NocNetwork(sim, domain, topology=make_topology(topology, width, height))
    if power_hooks:
        network.power_probe = PowerProbe()
    fabric = network.topology
    far = max(range(network.node_count), key=lambda node: (fabric.hop_count(0, node), -node))
    network.attach(far, lambda message: None)
    if far != 0:
        network.attach(0, lambda message: None)
    delivered_count = 0

    def sender():
        nonlocal delivered_count
        for index in range(messages):
            yield network.send(NocMessage(src=0, dst=far, kind="bench", addr=index))
            delivered_count += 1

    sim.process(sender())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if delivered_count != messages:
        raise RuntimeError(f"noc bench lost messages: {delivered_count}/{messages}")
    return messages / elapsed


def _aggregate(rows):
    return next(row for row in rows if row["tenant"] == "__all__")


def _served_per_second(rows, elapsed: float, bench: str) -> float:
    """Completed requests per wall second; raises if a request went missing."""
    aggregate = _aggregate(rows)
    completed = aggregate["completed"]
    if completed <= 0 or aggregate["shed"] + completed != aggregate["submitted"]:
        raise RuntimeError(
            f"{bench} bench lost requests: completed={completed} "
            f"shed={aggregate['shed']} submitted={aggregate['submitted']}")
    return completed / elapsed


def _serve_rate(bench: str, policy: str, **kwargs) -> float:
    """Served requests per wall second of one ``run_serve`` on the duo mix."""
    from repro.serve.experiments import run_serve

    start = time.perf_counter()
    outcome = run_serve(policy, tenant_mix="duo", **kwargs)
    return _served_per_second(outcome["rows"], time.perf_counter() - start,
                              bench)


def serve_request_throughput(duration_us: float = 4_000.0,
                             arrival_rate_krps: float = 250.0,
                             policy: str = "affinity",
                             tracing: bool = False) -> float:
    """Served requests per wall second through the serving subsystem.

    Runs the canonical two-tenant reconfiguration-pressure mix (``duo``)
    through one fabric under the given policy — every request exercises the
    admission queue, the policy's select, the Control Hub programming
    engine on bitstream switches, and the eFPGA clock-domain wait — so this
    number tracks the serving hot path end to end.  The workload is fully
    deterministic, so only the wall clock varies between repeats.

    ``tracing=True`` attaches a live :class:`~repro.obs.Tracer`, turning
    every request lifecycle into recorded spans/instants — the
    ``serve_requests_per_sec_tracing_on`` twin that gates the hooks-on
    overhead the same way ``noc_messages_per_sec_hooks_on`` gates the
    power probes.
    """
    from repro.obs import Tracer

    return _serve_rate("serve", policy, arrival_rate_krps=arrival_rate_krps,
                       duration_us=duration_us,
                       tracer=Tracer() if tracing else None)


def reconfig_request_throughput(duration_us: float = 4_000.0,
                                arrival_rate_krps: float = 250.0,
                                policy: str = "affinity",
                                regions: int = 4) -> float:
    """Served requests per wall second through *region-granular* serving.

    The same duo workload as :func:`serve_request_throughput`, but on one
    shared fabric carved into ``regions`` spans (:mod:`repro.reconfig`):
    every request exercises the region allocator (lookup/pin/place), the
    startable-filter worker path and partial-image programming through
    ``Bitstream.for_regions`` — the region layer's end-to-end overhead per
    request.  Fully deterministic; only the wall clock varies between
    repeats (gated).
    """
    return _serve_rate("reconfig", policy, arrival_rate_krps=arrival_rate_krps,
                       duration_us=duration_us, regions=regions)


def fleet_request_throughput(nodes: int = 4, epochs: int = 3,
                             epoch_us: float = 400.0,
                             rate_krps: float = 400.0,
                             placement: str = "affinity",
                             monitoring: bool = False) -> float:
    """Served requests per wall second through the fleet layer.

    Runs a static (no-autoscaler) fleet of ``nodes`` serially — placement,
    per-node scheduling, the epoch driver and the deterministic merge are
    all on the measured path — under a flat offered rate, so the number
    tracks the cluster layer's end-to-end overhead per request.  The
    workload is fully deterministic; only the wall clock varies between
    repeats (gated).

    ``monitoring=True`` attaches the live telemetry layer: every node runs
    with a 100us :class:`~repro.obs.TelemetryMonitor` window and the
    cluster evaluates the default :class:`~repro.obs.AlertEngine` rules on
    the merged stream each epoch — the
    ``fleet_requests_per_sec_monitor_on`` twin that gates the monitor-on
    overhead the same way ``serve_requests_per_sec_tracing_on`` gates the
    tracer's.
    """
    from repro.fleet.cluster import FleetConfig, run_fleet
    from repro.fleet.experiments import FLEET_TENANTS

    config = FleetConfig(nodes=nodes, placement=placement, epochs=epochs,
                         epoch_us=epoch_us,
                         telemetry_window_us=100.0 if monitoring else None)
    start = time.perf_counter()
    outcome = run_fleet(config, FLEET_TENANTS, total_rate_rps=rate_krps * 1000.0,
                        rate_profile=(1.0,) * epochs)
    elapsed = time.perf_counter() - start
    return _served_per_second(outcome.rows, elapsed, "fleet")


def chaos_request_throughput(nodes: int = 3, spares: int = 1,
                             epochs: int = 4, epoch_us: float = 400.0,
                             rate_krps: float = 300.0,
                             fault_rate: float = 2.0) -> float:
    """Served requests per wall second through a fleet *under injected
    faults* — the reliability layer's end-to-end cost.

    The run loses node 0 to a pinned whole-node kill in epoch 1 while
    rate-scaled SEU and transient link noise plays over every node, with
    recovery on: spare promotion, failover re-placement, replay bursts and
    image scrubbing are all on the measured path.  Fault draws resolve in
    the parent before any node simulates, so the workload is fully
    deterministic; only the wall clock varies between repeats (gated).
    """
    from repro.chaos import ChaosConfig
    from repro.chaos.experiments import build_schedule
    from repro.fleet.cluster import FleetConfig, run_fleet
    from repro.fleet.experiments import FLEET_TENANTS

    config = FleetConfig(nodes=nodes, placement="affinity", epochs=epochs,
                         epoch_us=epoch_us,
                         chaos=ChaosConfig(build_schedule(fault_rate),
                                           recovery=True),
                         spares=spares)
    start = time.perf_counter()
    outcome = run_fleet(config, FLEET_TENANTS, total_rate_rps=rate_krps * 1000.0,
                        rate_profile=(1.0,) * epochs)
    elapsed = time.perf_counter() - start
    if _aggregate(outcome.rows)["faults_injected"] <= 0:
        raise RuntimeError("chaos bench injected no faults")
    return _served_per_second(outcome.rows, elapsed, "chaos")


def energy_sample_rate(samples: int = 20_000) -> float:
    """Epoch closes per wall second of a busy :class:`EnergyModel`.

    A ticking process bumps several probe counters and closes one
    accounting epoch every simulated 10 ns — far more often than any real
    governor would (epochs are normally 250-1000 ns) — so this number
    bounds the accounting layer's overhead from above.
    """
    sim = Simulator()
    domain = ClockDomain(sim, 1000.0, "energy-bench")
    model = EnergyModel(PowerConfig(enabled=True, trace=False), sim, name="bench")
    model.sys_domain = domain
    model.num_tiles = 4
    model.core_area_mm2 = 3.0
    probe = model.probe

    def ticker():
        sample = model.sample
        for _ in range(samples):
            probe.cache_accesses += 3
            probe.core_active_cycles += 8
            probe.noc_flit_hops += 5
            probe.directory_lookups += 1
            yield Delay(10.0)
            sample()

    sim.process(ticker())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if model.epochs < samples:
        raise RuntimeError(f"energy bench lost epochs: {model.epochs}/{samples}")
    return samples / elapsed


def paper_cell_throughput(fig9_mechanisms=("shadow_reg", "cpu_pull_proxy"),
                          fig9_mhz=(100.0, 500.0),
                          fig11_processors=(1, 2, 4),
                          fig11_accesses: int = 16) -> float:
    """Paper-figure cells per wall second through the experiment runner.

    Runs a fig9 latency subset and a fig11 scalability subset serially with
    caching off — the Dolly platform build, the MMIO and NoC paths and the
    memory hierarchy under the paper figures — and divides the cell count
    by the wall time of both.
    """
    from repro.api.runner import Runner

    runner = Runner()
    start = time.perf_counter()
    cells = runner.run("fig9", use_cache=False, mechanism=tuple(fig9_mechanisms),
                       fpga_mhz=tuple(fig9_mhz)).stats.cells
    cells += runner.run("fig11", use_cache=False,
                        num_processors=tuple(fig11_processors),
                        accesses_per_processor=fig11_accesses).stats.cells
    return cells / (time.perf_counter() - start)
