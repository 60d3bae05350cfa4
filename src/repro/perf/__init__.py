"""Performance benchmarks and the tracked perf baseline (``BENCH_kernel.json``).

``python -m repro perf`` runs this suite, writes the report, and —
given ``--baseline`` — fails on gated regressions.  See
``docs/performance.md`` for the workflow and schema.
"""

from repro.perf.harness import (
    DEFAULT_GATES,
    DEFAULT_TOLERANCE,
    SCHEMA,
    BenchSpec,
    Comparison,
    compare_reports,
    format_comparisons,
    has_gated_regression,
    load_report,
    run_suite,
    write_report,
)
from repro.perf import micro

#: Default output filename for the tracked baseline artifact.
BENCH_FILENAME = "BENCH_kernel.json"

#: The standard suite, in execution order.  ``kernel_events_per_sec`` is the
#: headline (and CI-gated) number.
SUITE = [
    # Quick mode runs identical problem sizes (only the repeat count
    # drops), so a --quick CI run compares apples-to-apples against a
    # committed full-mode baseline.
    BenchSpec(
        name="kernel_events_per_sec",
        fn=micro.kernel_throughput,
        unit="events/s",
        params={"iterations": 30_000},
        repeats=5,
        quick_repeats=3,
    ),
    BenchSpec(
        name="kernel_zero_delay_events_per_sec",
        fn=micro.kernel_zero_delay_throughput,
        unit="events/s",
        params={"iterations": 50_000},
        repeats=5,
        quick_repeats=3,
    ),
    BenchSpec(
        name="kernel_timed_events_per_sec",
        fn=micro.kernel_timed_throughput,
        unit="events/s",
        params={"iterations": 30_000, "processes": 4},
        repeats=5,
        quick_repeats=3,
    ),
    BenchSpec(
        name="channel_handoff_items_per_sec",
        fn=micro.channel_handoff,
        unit="items/s",
        params={"items": 20_000},
    ),
    # The gated NoC number: serialized messages across the 8x8 mesh
    # diagonal (14 hops), the configuration the batched link reservation
    # was sized against.  The per-topology variants below track the same
    # workload on the other fabrics (informational).
    BenchSpec(
        name="noc_messages_per_sec",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "mesh"},
    ),
    # The gated hooks-on twin of noc_messages_per_sec: identical workload
    # with a live PowerProbe attached, so the energy hooks' hot-path cost
    # is measured (and gated) directly.
    BenchSpec(
        name="noc_messages_per_sec_hooks_on",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "mesh",
                "power_hooks": True},
    ),
    BenchSpec(
        name="energy_samples_per_sec",
        fn=micro.energy_sample_rate,
        unit="samples/s",
        params={"samples": 20_000},
    ),
    # The gated serving number: requests served per wall second through the
    # admission queue, affinity policy, programming engine and eFPGA clock
    # domain on the duo tenant mix.
    BenchSpec(
        name="serve_requests_per_sec",
        fn=micro.serve_request_throughput,
        unit="requests/s",
        params={"duration_us": 4_000.0, "arrival_rate_krps": 250.0,
                "policy": "affinity"},
    ),
    # The gated tracing-on twin of serve_requests_per_sec: identical
    # workload with a live repro.obs Tracer attached, so the lifecycle
    # hooks' hot-path cost is measured (and gated) directly — same
    # pattern as noc_messages_per_sec_hooks_on.
    BenchSpec(
        name="serve_requests_per_sec_tracing_on",
        fn=micro.serve_request_throughput,
        unit="requests/s",
        params={"duration_us": 4_000.0, "arrival_rate_krps": 250.0,
                "policy": "affinity", "tracing": True},
    ),
    # The gated region-granular serving number: the duo workload on one
    # shared 4-region fabric under the affinity policy — allocator, span
    # hot swaps and partial-image programming on the measured path.
    BenchSpec(
        name="reconfig_requests_per_sec",
        fn=micro.reconfig_request_throughput,
        unit="requests/s",
        params={"duration_us": 4_000.0, "arrival_rate_krps": 250.0,
                "policy": "affinity", "regions": 4},
    ),
    # The gated fleet number: requests served per wall second through the
    # cluster layer — placement, the epoch driver, per-node serving and
    # the deterministic merge.
    BenchSpec(
        name="fleet_requests_per_sec",
        fn=micro.fleet_request_throughput,
        unit="requests/s",
        params={"nodes": 4, "epochs": 3, "epoch_us": 400.0,
                "rate_krps": 400.0, "placement": "affinity"},
        repeats=3,
        quick_repeats=1,
    ),
    # The gated monitor-on twin of fleet_requests_per_sec: identical
    # workload with live 100us telemetry windows on every node and the
    # default alert rules evaluated on the merged stream each epoch —
    # the observability layer's hot-path cost, gated like the tracing-on
    # and power hooks-on twins.
    BenchSpec(
        name="fleet_requests_per_sec_monitor_on",
        fn=micro.fleet_request_throughput,
        unit="requests/s",
        params={"nodes": 4, "epochs": 3, "epoch_us": 400.0,
                "rate_krps": 400.0, "placement": "affinity",
                "monitoring": True},
        repeats=3,
        quick_repeats=1,
    ),
    # The gated chaos number: the fleet path under injected faults with
    # recovery on — spare promotion, failover re-placement, replay bursts
    # and image scrubbing included.
    BenchSpec(
        name="chaos_requests_per_sec",
        fn=micro.chaos_request_throughput,
        unit="requests/s",
        params={"nodes": 3, "spares": 1, "epochs": 4, "epoch_us": 400.0,
                "rate_krps": 300.0, "fault_rate": 2.0},
        repeats=3,
        quick_repeats=1,
    ),
    BenchSpec(
        name="noc_messages_per_sec_torus",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "torus"},
    ),
    BenchSpec(
        name="noc_messages_per_sec_ring",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "ring"},
    ),
    BenchSpec(
        name="noc_messages_per_sec_crossbar",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "crossbar"},
    ),
    # The paper layer: fig9 and fig11 subsets through the Runner, as
    # cells per wall second (ungated; see ROADMAP item 4).
    BenchSpec(
        name="paper_cells_per_sec",
        fn=micro.paper_cell_throughput,
        unit="cells/s",
        params={"fig9_mechanisms": ["shadow_reg", "cpu_pull_proxy"],
                "fig9_mhz": [100.0, 500.0], "fig11_processors": [1, 2, 4],
                "fig11_accesses": 16},
    ),
]

__all__ = [
    "BENCH_FILENAME",
    "SUITE",
    "BenchSpec",
    "Comparison",
    "DEFAULT_GATES",
    "DEFAULT_TOLERANCE",
    "SCHEMA",
    "compare_reports",
    "format_comparisons",
    "has_gated_regression",
    "load_report",
    "run_suite",
    "write_report",
]
