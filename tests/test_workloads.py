"""End-to-end tests of the application workloads and the synthetic studies.

These are the integration tests closest to the paper's evaluation: each one
runs a (scaled-down) benchmark on at least two of the three systems and
checks functional correctness plus the headline performance relationship.
"""

import pytest

from repro.core.exceptions import DuetError
from repro.platform import SystemKind
from repro.workloads import bfs, dijkstra, pdes, popcount, sort, tangent
from repro.workloads.common import WorkloadParams
from repro.workloads.synthetic import measure_bandwidth, measure_latency


# --------------------------------------------------------------------------- #
# Fine-grained acceleration benchmarks
# --------------------------------------------------------------------------- #
def test_tangent_correct_and_duet_faster_than_cpu():
    cpu = tangent.run(SystemKind.CPU_ONLY, WorkloadParams(1, 0), calls=16)
    duet = tangent.run(SystemKind.DUET, WorkloadParams(1, 0), calls=16)
    assert cpu.correct and duet.correct
    assert duet.speedup_over(cpu) > 1.0


def test_popcount_correct_on_all_three_systems():
    results = {
        kind: popcount.run(kind, WorkloadParams(1, 1), vectors=8)
        for kind in (SystemKind.CPU_ONLY, SystemKind.FPSOC, SystemKind.DUET)
    }
    checksums = {result.checksum for result in results.values()}
    assert len(checksums) == 1
    assert all(result.correct for result in results.values())
    assert results[SystemKind.DUET].runtime_ns < results[SystemKind.FPSOC].runtime_ns


def test_sort_accelerated_produces_sorted_output_and_beats_fpsoc():
    duet = sort.run(SystemKind.DUET, WorkloadParams(1, 2), total_elements=128, slice_size=32)
    fpsoc = sort.run(SystemKind.FPSOC, WorkloadParams(1, 2), total_elements=128, slice_size=32)
    assert duet.correct and fpsoc.correct
    assert duet.runtime_ns < fpsoc.runtime_ns


def test_dijkstra_distances_match_reference():
    duet = dijkstra.run(SystemKind.DUET, WorkloadParams(1, 1), vertices=24, degree=4)
    cpu = dijkstra.run(SystemKind.CPU_ONLY, WorkloadParams(1, 1), vertices=24, degree=4)
    assert duet.correct and cpu.correct
    assert duet.checksum == cpu.checksum


# --------------------------------------------------------------------------- #
# Hardware-augmentation benchmarks
# --------------------------------------------------------------------------- #
def test_pdes_processes_all_events_on_both_systems():
    cpu = pdes.run(SystemKind.CPU_ONLY, WorkloadParams(2, 1), gates=12, max_events=40)
    duet = pdes.run(SystemKind.DUET, WorkloadParams(2, 1), gates=12, max_events=40)
    assert cpu.correct and duet.correct
    assert duet.runtime_ns < cpu.runtime_ns


def test_bfs_levels_match_reference_and_duet_beats_cpu():
    cpu = bfs.run(SystemKind.CPU_ONLY, WorkloadParams(4, 0), vertices=48, degree=3)
    duet = bfs.run(SystemKind.DUET, WorkloadParams(4, 0), vertices=48, degree=3)
    assert cpu.correct and duet.correct
    assert duet.checksum == cpu.checksum
    assert duet.runtime_ns < cpu.runtime_ns


# --------------------------------------------------------------------------- #
# Synthetic communication studies (Sec. V-C)
# --------------------------------------------------------------------------- #
def test_latency_shadow_beats_normal_and_proxy_is_frequency_insensitive():
    shadow = measure_latency("shadow_reg", 100.0)
    normal = measure_latency("normal_reg", 100.0)
    assert shadow.roundtrip_ns < normal.roundtrip_ns
    proxy_slow_clock = measure_latency("cpu_pull_proxy", 50.0)
    proxy_fast_clock = measure_latency("cpu_pull_proxy", 500.0)
    # The Proxy Cache keeps the eFPGA off the critical path: CPU-pull latency
    # barely moves across a 10x eFPGA clock change.
    assert abs(proxy_slow_clock.roundtrip_ns - proxy_fast_clock.roundtrip_ns) < 25.0


def test_latency_slow_cache_penalized_at_low_frequency():
    slow = measure_latency("cpu_pull_slow", 50.0)
    proxy = measure_latency("cpu_pull_proxy", 50.0)
    assert slow.roundtrip_ns > proxy.roundtrip_ns


def test_bandwidth_proxy_beats_slow_cache_for_efpga_pull():
    proxy = measure_bandwidth("efpga_pull_proxy", 100.0, quad_words=32)
    slow = measure_bandwidth("efpga_pull_slow", 100.0, quad_words=32)
    assert proxy.mbytes_per_s > slow.mbytes_per_s
    assert proxy.bytes_moved == 32 * 8


def test_cpu_pull_proxy_bandwidth_completes_at_20mhz_with_128_quad_words():
    result = measure_bandwidth("cpu_pull_proxy", 20.0, quad_words=128)
    assert result.bytes_moved == 128 * 8
    assert result.mbytes_per_s > 0


@pytest.mark.xfail(
    strict=True, raises=DuetError,
    reason="ROADMAP item 1: DuetError: memory hub deactivated. At a slow "
           "eFPGA clock the CMD_PUSH_BUFFER store stream outlasts the "
           "20,000-cycle ExceptionUnit timeout on the CPU's blocking "
           "DATA_OUT read; TIMEOUT deactivates every hub")
@pytest.mark.parametrize("fpga_mhz, quad_words", [(50.0, 512), (20.0, 256)])
def test_cpu_pull_proxy_bandwidth_at_paper_size(fpga_mhz, quad_words):
    result = measure_bandwidth("cpu_pull_proxy", fpga_mhz, quad_words=quad_words)
    assert result.bytes_moved == quad_words * 8


def test_result_accounting_speedup_and_adp_helpers():
    cpu = tangent.run(SystemKind.CPU_ONLY, WorkloadParams(1, 0), calls=8)
    duet = tangent.run(SystemKind.DUET, WorkloadParams(1, 0), calls=8)
    assert duet.chip_area_mm2 > cpu.chip_area_mm2
    assert duet.adp() == pytest.approx(duet.chip_area_mm2 * duet.runtime_ns)
    assert duet.normalized_adp(cpu) > 0.0
