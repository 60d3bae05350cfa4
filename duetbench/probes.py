"""Wrappers around the library's layer entry points, installed from outside.

Two kinds, never active together:

* :class:`SetupClock` (untraced runs) times only the O(deployments) entry
  points that build a deployment or platform — ``FabricScheduler(...)``,
  ``build_system`` and ``DollySystem.install_accelerator`` — and never a
  per-request call.
* :func:`instrument` (traced runs) wraps the public functions of every
  layer with a :class:`Recorder`: spans (name, start, end, parent) for
  plain functions, counts only for generator entry points, whose host time
  is spent inside ``Simulator.run`` and stays in ``sim.self_s``.

Module-level functions imported by name elsewhere (``materialize``,
``build_system``, ``simulate_node`` ...) are rebound in every module that
holds them.  :meth:`Patches.undo` puts every original back.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.api import runner as api_runner
from repro.chaos.schedule import FaultSchedule
from repro.core.control_hub import ControlHub
from repro.fleet import cluster as fleet_cluster
from repro.fleet import node as fleet_node
from repro.fleet.router import Router
from repro.fpga.bitstream import Bitstream
from repro.fpga.synthesis import SynthesisModel
from repro.mem.private_cache import PrivateCacheAgent
from repro.noc.network import NocNetwork
from repro.obs.alerts import AlertEngine
from repro.obs.monitor import TelemetryMonitor
from repro.obs.trace import Tracer
from repro.platform import dolly
from repro.reconfig.placement import RegionAllocator
from repro.reconfig.plan import RegionPlan
from repro.serve import catalog
from repro.serve import experiments as serve_experiments
from repro.serve.scheduler import FabricScheduler, SchedulingPolicy
from repro.serve.slo import SloMonitor
from repro.serve.traffic import TrafficSource
from repro.sim.kernel import Simulator

#: Modules searched when a module-level function is rebound.
_REBIND_PREFIXES = ("repro", "duetbench")

#: The O(deployments) constructors whose host time is the set-up, as
#: ``(owner, attribute, span name)``; in the traced run their subtrees are
#: the set-up.
SETUP_ENTRY_POINTS = (
    (FabricScheduler, "__init__", "scheduler.init"),
    (dolly, "build_system", "platform.build"),
    (dolly.DollySystem, "install_accelerator", "platform.install"),
)
SETUP_SPANS = tuple(name for _, _, name in SETUP_ENTRY_POINTS)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def attach(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        """Wrap a method of a class, or a function of a module."""
        if isinstance(owner, type):
            self.method(owner, attr, make)
        else:
            self.function(owner, attr, make)

    def method(self, cls: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, raw))

    def function(self, module: Any, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith(_REBIND_PREFIXES):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._undo.append((loaded, key, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------------------- #
# Untraced runs: set-up time only
# --------------------------------------------------------------------------- #
class SetupClock:
    """Host seconds spent inside deployment and platform construction.

    Nested constructor calls count once, at the outermost one.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._active = False

    def _wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._active:
                return fn(*args, **kwargs)
            self._active = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += (perf_counter_ns() - start) / 1e9
                self._active = False
        return timed

    def install(self) -> Patches:
        patches = Patches()
        for owner, attr, _ in SETUP_ENTRY_POINTS:
            patches.attach(owner, attr, self._wrap)
        return patches


# --------------------------------------------------------------------------- #
# Traced runs: spans and counts per layer
# --------------------------------------------------------------------------- #
class Recorder:
    """Spans and counters of one traced workload run, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.designs: set = set()
        #: Objects whose own counters are read once the run ends.
        self.instances: Dict[str, List[Any]] = {}

    def timed(self, name: str, fn: Callable) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
        return span

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def count(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)
        return count

    def kept(self, kind: str, init: Callable) -> Callable:
        kept = self.instances.setdefault(kind, [])

        @functools.wraps(init)
        def keep(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            kept.append(obj)
        return keep

    def sim_run(self, fn: Callable) -> Callable:
        timed = self.timed("sim.run", fn)
        counts = self.counts

        @functools.wraps(fn)
        def run(sim: Simulator, *args: Any, **kwargs: Any) -> Any:
            before = sim.events_executed
            try:
                return timed(sim, *args, **kwargs)
            finally:
                counts["sim.events"] += sim.events_executed - before
        return run

    def materialize(self, fn: Callable) -> Callable:
        timed = self.timed("catalog.materialize", fn)

        @functools.wraps(fn)
        def run(name: str, *args: Any, **kwargs: Any) -> Any:
            self.designs.add(name)
            return timed(name, *args, **kwargs)
        return run

    def generate(self, fn: Callable) -> Callable:
        timed = self.timed("bitstream.generate", fn)
        counts = self.counts

        @functools.wraps(fn)
        def run(*args: Any, **kwargs: Any) -> Bitstream:
            image = timed(*args, **kwargs)
            counts["bitstream.generate_bytes"] += len(image.data)
            return image
        return run


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _public_functions(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, (classmethod, staticmethod, type))]


def instrument(rec: Recorder) -> Patches:
    """Wrap every layer's public entry points with ``rec``'s probes."""
    p = Patches()

    def timed(name: str) -> Callable[[Callable], Callable]:
        return functools.partial(rec.timed, name)

    def counted(name: str) -> Callable[[Callable], Callable]:
        return functools.partial(rec.counted, name)

    # sim
    p.method(Simulator, "run", rec.sim_run)
    # serve: traffic, scheduler, policies, SLO accounting, catalog
    p.method(TrafficSource, "__init__", functools.partial(rec.kept, "traffic"))
    p.method(random.Random, "expovariate", counted("traffic.draws"))
    for owner, attr, name in SETUP_ENTRY_POINTS:
        p.attach(owner, attr, timed(name))
    p.method(FabricScheduler, "submit", timed("scheduler.submit"))
    for policy in _subclasses(SchedulingPolicy):
        if "select" in vars(policy):
            p.method(policy, "select", timed("scheduler.select"))
    for hook in [name for name in vars(SloMonitor) if name.startswith("on_")]:
        p.method(SloMonitor, hook, timed("slo.hook"))
    p.method(SloMonitor, "tenant_rows", timed("slo.rows"))
    p.function(catalog, "materialize", rec.materialize)
    p.function(serve_experiments, "run_serve", timed("serve.run"))
    # fpga
    p.method(SynthesisModel, "implement", timed("synthesis.implement"))
    p.method(Bitstream, "generate", rec.generate)
    p.method(Bitstream, "for_regions", timed("bitstream.for_regions"))
    # core
    p.method(ControlHub, "program", counted("control_hub.programs"))
    p.method(ControlHub, "program_instantly", timed("control_hub.program_instantly"))
    # reconfig
    for method in _public_functions(RegionAllocator):
        p.method(RegionAllocator, method, timed("regions.allocator"))
    p.method(RegionAllocator, "__init__", functools.partial(rec.kept, "allocators"))
    p.method(RegionPlan, "build", timed("regions.plan_build"))
    # obs
    for method in ("complete", "begin", "end", "instant"):
        p.method(Tracer, method, timed("tracer"))
    p.method(Tracer, "__init__", functools.partial(rec.kept, "tracers"))
    for method in ("tick", "finalize"):
        p.method(TelemetryMonitor, method, timed("telemetry"))
    p.method(TelemetryMonitor, "__init__", functools.partial(rec.kept, "telemetry"))
    p.method(AlertEngine, "consume", timed("alerts.consume"))
    p.method(AlertEngine, "__init__", functools.partial(rec.kept, "alert_engines"))
    # fleet and chaos
    p.function(fleet_node, "simulate_node", timed("fleet.node"))
    p.function(fleet_cluster, "run_fleet", timed("fleet.run"))
    for method in ("place", "rebalance"):
        p.method(Router, method, timed("fleet.router"))
    p.method(FaultSchedule, "events", timed("chaos.schedule"))
    # noc, mem
    p.method(NocNetwork, "send", timed("noc.send"))
    for method in ("load", "store", "amo"):
        p.method(PrivateCacheAgent, method, counted("mem.accesses"))
    # api
    p.method(api_runner.Runner, "run", timed("runner.run"))
    p.function(api_runner, "_call_cell", timed("runner.cell"))
    return p


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the part of it its direct children cover.

    Spans are in start order (a parent precedes its children); overlapping
    children count their union once, and a child reaching outside its
    parent counts only inside it.
    """
    count = len(starts)
    covered = [0] * count
    reach = list(starts)  # per parent: end of the coverage counted so far
    for index in range(count):
        parent = parents[index]
        if parent < 0:
            continue
        start = max(starts[index], reach[parent])
        end = min(ends[index], ends[parent])
        if end > start:
            covered[parent] += end - start
            reach[parent] = end
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def setup_membership(names: Sequence[str],
                     parents: Sequence[int]) -> Tuple[List[bool], List[int]]:
    """Which spans lie inside a set-up constructor, and the outermost ones."""
    inside = [False] * len(names)
    roots: List[int] = []
    for index, name in enumerate(names):
        parent = parents[index]
        if parent >= 0 and inside[parent]:
            inside[index] = True
        elif name in SETUP_SPANS:
            inside[index] = True
            roots.append(index)
    return inside, roots


#: Span name -> per-layer metric carrying its self time.
SELF_TIME_METRICS: Dict[str, str] = {
    "sim.run": "sim.self_s",
    "serve.run": "serve.run_self_s",
    "scheduler.init": "scheduler.init_s",
    "scheduler.submit": "scheduler.submit_s",
    "scheduler.select": "scheduler.select_s",
    "slo.hook": "slo.hook_s",
    "slo.rows": "slo.rows_s",
    "catalog.materialize": "catalog.materialize_s",
    "synthesis.implement": "synthesis.implement_s",
    "bitstream.generate": "bitstream.generate_s",
    "bitstream.for_regions": "bitstream.for_regions_s",
    "control_hub.program_instantly": "control_hub.program_instantly_s",
    "regions.allocator": "regions.allocator_s",
    "regions.plan_build": "regions.plan_build_s",
    "tracer": "tracer.s",
    "telemetry": "telemetry.s",
    "alerts.consume": "alerts.consume_s",
    "fleet.node": "fleet.node_s",
    "fleet.router": "fleet.router_s",
    "fleet.run": "fleet.control_s",
    "chaos.schedule": "chaos.schedule_s",
    "platform.build": "platform.build_s",
    "platform.install": "platform.install_s",
    "noc.send": "noc.send_s",
    "runner.run": "runner.overhead_s",
    "runner.cell": "runner.cell_self_s",
}

#: Span name -> per-layer metric carrying its call count.
CALL_COUNT_METRICS: Dict[str, str] = {
    "scheduler.init": "scheduler.deployments",
    "scheduler.submit": "scheduler.submits",
    "scheduler.select": "scheduler.select_calls",
    "slo.hook": "slo.hook_calls",
    "catalog.materialize": "catalog.materialize_calls",
    "synthesis.implement": "synthesis.implement_calls",
    "bitstream.generate": "bitstream.generate_calls",
    "bitstream.for_regions": "bitstream.for_regions_calls",
    "regions.allocator": "regions.allocator_ops",
    "fleet.node": "fleet.node_epochs",
    "platform.build": "platform.systems",
    "noc.send": "noc.messages",
    "runner.cell": "runner.cells",
}


def layer_metrics(rec: Recorder, wall_ns: int, requests: int,
                  aggregate: Dict[str, Any],
                  speed: float = 1.0) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics of one traced run, plus the metric name of the layer
    with the largest share of the traced set-up time.

    ``aggregate`` is the run's ``__all__`` result row (empty on the paper
    figures), the source of the scheduler and chaos counts.  Every host
    time is multiplied by ``speed``, the run's host-speed factor.
    """
    to_s = speed / 1e9
    metrics: Dict[str, float] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    inside, roots = setup_membership(rec.names, rec.parents)
    setup_by_metric: Counter = Counter()
    root_ns = sim_run_ns = 0
    calls: Counter = Counter()
    for index, name in enumerate(rec.names):
        metric = SELF_TIME_METRICS[name]
        metrics[metric] += selfs[index] * to_s
        calls[name] += 1
        duration = rec.ends[index] - rec.starts[index]
        if rec.parents[index] < 0:
            root_ns += duration
        if name == "sim.run":
            sim_run_ns += duration
        if inside[index]:
            setup_by_metric[metric] += selfs[index]
    for name, metric in CALL_COUNT_METRICS.items():
        metrics[metric] = float(calls[name])
    counts = rec.counts
    instances = rec.instances
    events = counts["sim.events"]
    emitted = sum(source.emitted for source in instances.get("traffic", ()))
    metrics.update({
        "sim.events": float(events),
        "sim.events_per_request": events / requests if requests else 0.0,
        "sim.run_s": sim_run_ns * to_s,
        "sim.us_per_event": metrics["sim.self_s"] * 1e6 / events if events else 0.0,
        "traffic.emitted": float(emitted),
        "traffic.draws": float(counts["traffic.draws"]),
        "traffic.draw_yield": (emitted / counts["traffic.draws"]
                               if counts["traffic.draws"] else 0.0),
        "scheduler.reconfigurations": float(aggregate.get("reconfigurations", 0)),
        "catalog.designs": float(len(rec.designs)),
        "bitstream.generate_bytes": float(counts["bitstream.generate_bytes"]),
        "control_hub.programs": float(counts["control_hub.programs"]),
        "regions.evictions": float(sum(
            allocator.evictions for allocator in instances.get("allocators", ()))),
        "tracer.events": float(sum(
            tracer.event_count for tracer in instances.get("tracers", ()))),
        "telemetry.windows": float(sum(
            len(monitor.stream.samples) for monitor in instances.get("telemetry", ()))),
        "alerts.fired": float(sum(
            1 for engine in instances.get("alert_engines", ())
            for event in engine.events if event.event == "fired")),
        "chaos.faults_injected": float(aggregate.get("faults_injected", 0)),
        "chaos.replayed": float(aggregate.get("replayed", 0)),
        "chaos.fault_shed": float(aggregate.get("fault_shed", 0)),
        "mem.accesses": float(counts["mem.accesses"]),
        "trace.spans": float(len(rec.names)),
        "trace.unattributed_s": (wall_ns - root_ns) * to_s,
    })
    setup_ns = sum(rec.ends[i] - rec.starts[i] for i in roots)
    metrics["setup.traced_s"] = setup_ns * to_s
    metrics["setup.top_share"] = 0.0
    metrics["trace.overhead_ratio"] = 0.0  # needs the untraced runs too
    top = ""
    if setup_by_metric:
        top, top_ns = setup_by_metric.most_common(1)[0]
        metrics["setup.top_share"] = top_ns / setup_ns if setup_ns else 0.0
    return metrics, top


def write_chrome_trace(rec: Recorder, path: str) -> None:
    """Write the spans as Chrome-trace JSON (opens in Perfetto)."""
    origin = rec.starts[0] if rec.starts else 0
    quoted = {name: json.dumps(name) for name in set(rec.names)}
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"displayTimeUnit":"ns","traceEvents":[')
        for index, name in enumerate(rec.names):
            start = rec.starts[index]
            out.write(
                f'{"," if index else ""}{{"name":{quoted[name]},"ph":"X",'
                f'"pid":1,"tid":1,"ts":{(start - origin) / 1000:.3f},'
                f'"dur":{(rec.ends[index] - start) / 1000:.3f},'
                f'"args":{{"parent":{rec.parents[index]}}}}}\n')
        out.write("]}\n")
