"""Synthetic CPU–eFPGA communication microbenchmarks (Sec. V-C).

Three studies, mirroring Figs. 9, 10 and 11:

* :func:`measure_latency` — minimum round-trip latency of the six
  communication mechanisms on Dolly-P1M1 (single processor, single
  transaction);
* :func:`measure_bandwidth` — single-processor bandwidth of the same
  mechanisms while passing 512 quad-words to the eFPGA and back;
* :func:`measure_register_scalability` — per-processor bandwidth of normal
  vs shadow registers under multi-processor contention.

The eFPGA emulates a simple scratchpad memory, exactly as the paper's
synthetic benchmark does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.core.registers import RegisterKind, RegisterSpec
from repro.fpga.accelerator import SoftAccelerator
from repro.fpga.synthesis import AcceleratorDesign
from repro.platform.config import DollyConfig, SystemKind
from repro.platform.dolly import build_system

#: Register map of the synthetic scratchpad accelerator.
REG_CMD = 0          # FPGA-bound FIFO: commands / data pushed by the CPU
REG_DATA_OUT = 1     # CPU-bound FIFO: data returned to the CPU
REG_PLAIN_A = 2      # plain shadow: buffer A base address
REG_PLAIN_B = 3      # plain shadow: buffer B base address
REG_BARRIER = 4      # normal soft register: blocking hand-off / echo target
REG_COUNT = 5        # plain shadow: number of words to move

#: Commands understood by the synthetic accelerator.
CMD_STOP = (1 << 62)
CMD_WRITE_LINE = 1   # make the accelerator dirty a line the CPU will pull
CMD_PULL_BUFFER = 2  # load COUNT words from buffer A into the scratchpad
CMD_PUSH_BUFFER = 3  # store COUNT words from the scratchpad into buffer B

QUAD_WORDS = 512
WORD_BYTES = 8
LINE_BYTES = 16

#: Default data seed shared with :class:`repro.workloads.common.WorkloadParams`.
DEFAULT_SEED = 2023


def _payload_words(count: int, seed: int) -> List[int]:
    """Deterministic payload data for one run.

    Values stay above the CMD_* opcodes and below CMD_STOP so they read as
    plain data pushes when streamed through the command FIFO.
    """
    rng = random.Random(seed)
    return [rng.randrange(1 << 12, 1 << 31) for _ in range(count)]


def synthetic_registers() -> List[RegisterSpec]:
    return [
        RegisterSpec(REG_CMD, RegisterKind.FPGA_BOUND_FIFO, "cmd", depth=16),
        RegisterSpec(REG_DATA_OUT, RegisterKind.CPU_BOUND_FIFO, "data_out", depth=16),
        RegisterSpec(REG_PLAIN_A, RegisterKind.PLAIN, "buffer_a"),
        RegisterSpec(REG_PLAIN_B, RegisterKind.PLAIN, "buffer_b"),
        RegisterSpec(REG_BARRIER, RegisterKind.NORMAL, "barrier"),
        RegisterSpec(REG_COUNT, RegisterKind.PLAIN, "count"),
    ]


class ScratchpadAccelerator(SoftAccelerator):
    """The synthetic benchmark's eFPGA side: a scratchpad plus command engine."""

    DESIGN = AcceleratorDesign(
        name="synthetic-scratchpad",
        luts=900,
        ffs=1200,
        bram_kbits=64,
        dsps=0,
        logic_depth=7,
        routing_pressure=0.3,
        mem_ports=1,
        description="Scratchpad memory + DMA-style engine for the Sec. V-C studies",
    )

    def __init__(self) -> None:
        super().__init__("synthetic-scratchpad")
        self.echo_count = 0

    def behavior(self):
        scratch: Dict[int, int] = {}
        while True:
            command = yield from self.regs.pop_request(REG_CMD)
            if command == CMD_STOP:
                return self.echo_count
            if command == CMD_WRITE_LINE:
                # Dirty one line so a subsequent CPU load must pull it from
                # the FPGA-side cache (the "CPU pull" scenario).
                buffer_b = yield from self.regs.read(REG_PLAIN_B)
                yield from self.mem.store(buffer_b, 0xC0FFEE)
                yield from self.mem.store(buffer_b + 8, 0xC0FFEE)
                yield from self.regs.push_response(REG_DATA_OUT, 1)
            elif command == CMD_PULL_BUFFER:
                # eFPGA pull: stream buffer A into the scratchpad.
                buffer_a = yield from self.regs.read(REG_PLAIN_A)
                count = yield from self.regs.read(REG_COUNT)
                pending = []
                for line in range(0, count * WORD_BYTES, LINE_BYTES):
                    event = yield from self.mem.issue("load_line", buffer_a + line)
                    pending.append((line, event))
                for line, event in pending:
                    words = yield from self.mem.wait(event)
                    for offset, word in enumerate(words):
                        scratch[line + offset * WORD_BYTES] = word
                    yield self.cycles(1)
                yield from self.regs.push_response(REG_DATA_OUT, count)
            elif command == CMD_PUSH_BUFFER:
                # CPU pull, phase 1: stream the scratchpad into buffer B.
                buffer_b = yield from self.regs.read(REG_PLAIN_B)
                count = yield from self.regs.read(REG_COUNT)
                store_events = []
                for index in range(count):
                    value = scratch.get(index * WORD_BYTES, index)
                    event = yield from self.mem.issue(
                        "store", buffer_b + index * WORD_BYTES, value
                    )
                    store_events.append(event)
                    yield self.cycles(1)
                for event in store_events:
                    yield from self.mem.wait(event)
                yield from self.regs.push_response(REG_DATA_OUT, count)
            else:
                # Plain data push: echo it back (register bandwidth study).
                self.echo_count += 1
                yield from self.regs.push_response(REG_DATA_OUT, command)


@dataclass
class LatencyResult:
    """Round-trip latency of one mechanism at one eFPGA frequency."""

    mechanism: str
    fpga_mhz: float
    roundtrip_ns: float


@dataclass
class BandwidthResult:
    mechanism: str
    fpga_mhz: float
    bytes_moved: int
    elapsed_ns: float

    @property
    def mbytes_per_s(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.bytes_moved / (self.elapsed_ns * 1e-9)) / 1e6


@dataclass
class ScalabilityResult:
    mechanism: str
    operation: str
    num_processors: int
    per_processor_mbytes_per_s: float


def _build(kind: SystemKind, processors: int, fpga_mhz: float):
    if kind is SystemKind.DUET:
        config = DollyConfig.dolly(processors, 1, fpga_mhz=fpga_mhz)
    else:
        config = DollyConfig.fpsoc(processors, 1, fpga_mhz=fpga_mhz)
    system = build_system(config)
    accelerator = ScratchpadAccelerator()
    system.install_accelerator(
        accelerator,
        registers=synthetic_registers(),
        fpga_mhz=fpga_mhz,
    )
    system.start_accelerator()
    return system, accelerator


# --------------------------------------------------------------------------- #
# Fig. 9: round-trip latency
# --------------------------------------------------------------------------- #
LATENCY_MECHANISMS = (
    "shadow_reg",
    "normal_reg",
    "cpu_pull_proxy",
    "cpu_pull_slow",
    "efpga_pull_proxy",
    "efpga_pull_slow",
)


def measure_latency(mechanism: str, fpga_mhz: float,
                    seed: int = DEFAULT_SEED) -> LatencyResult:
    """Minimum round-trip latency of one mechanism on Dolly-P1M1."""
    if mechanism not in LATENCY_MECHANISMS:
        raise ValueError(f"unknown latency mechanism {mechanism!r}")
    kind = SystemKind.FPSOC if mechanism.endswith("_slow") else SystemKind.DUET
    system, _ = _build(kind, processors=1, fpga_mhz=fpga_mhz)
    adapter = system.adapter
    buffer_a = system.memory.allocate(4096, align=4096)
    buffer_b = system.memory.allocate(4096, align=4096)
    payload = _payload_words(2, seed)

    def program(ctx):
        # Common setup (not measured): pass buffer addresses and the count.
        yield from ctx.mmio_write(adapter.register_addr(REG_PLAIN_A), buffer_a)
        yield from ctx.mmio_write(adapter.register_addr(REG_PLAIN_B), buffer_b)
        yield from ctx.mmio_write(adapter.register_addr(REG_COUNT), 2)
        # Let the configuration values settle into the slow clock domain
        # before any measured transaction (driver start-up, not measured).
        yield from ctx.compute(800)
        if mechanism in ("shadow_reg", "normal_reg"):
            target = REG_PLAIN_A if mechanism == "shadow_reg" else REG_BARRIER
            # One warm-up access, then the measured single transaction.
            yield from ctx.mmio_read(adapter.register_addr(target))
            start = ctx.now
            yield from ctx.mmio_read(adapter.register_addr(target))
            return ctx.now - start
        if mechanism.startswith("cpu_pull"):
            # The eFPGA dirties a line; the measured transaction is the CPU
            # load that must fetch it from the FPGA-side cache.
            yield from ctx.mmio_write(adapter.register_addr(REG_CMD), CMD_WRITE_LINE)
            yield from ctx.mmio_read(adapter.register_addr(REG_DATA_OUT))
            start = ctx.now
            yield from ctx.load(buffer_b)
            return ctx.now - start
        # eFPGA pull: the CPU dirties a line, then asks the eFPGA to load it;
        # the measured quantity is the accelerator-side load round trip,
        # bounded here by (invoke .. completion) minus the two MMIO trips.
        yield from ctx.store(buffer_a, payload[0])
        yield from ctx.store(buffer_a + 8, payload[1])
        start = ctx.now
        yield from ctx.mmio_write(adapter.register_addr(REG_CMD), CMD_PULL_BUFFER)
        yield from ctx.mmio_read(adapter.register_addr(REG_DATA_OUT))
        return ctx.now - start

    roundtrip, _ = system.run_single(program)
    return LatencyResult(mechanism=mechanism, fpga_mhz=fpga_mhz,
                         roundtrip_ns=roundtrip)


# --------------------------------------------------------------------------- #
# Fig. 10: single-processor bandwidth
# --------------------------------------------------------------------------- #
BANDWIDTH_MECHANISMS = (
    "shadow_reg",
    "normal_reg",
    "cpu_pull_proxy",
    "cpu_pull_slow",
    "efpga_pull_proxy",
    "efpga_pull_slow",
)


def measure_bandwidth(mechanism: str, fpga_mhz: float, quad_words: int = QUAD_WORDS,
                      seed: int = DEFAULT_SEED) -> BandwidthResult:
    """Single-processor bandwidth of one mechanism (512 quad-words by default)."""
    if mechanism not in BANDWIDTH_MECHANISMS:
        raise ValueError(f"unknown bandwidth mechanism {mechanism!r}")
    kind = SystemKind.FPSOC if mechanism.endswith("_slow") or mechanism == "normal_reg" else SystemKind.DUET
    system, _ = _build(kind, processors=1, fpga_mhz=fpga_mhz)
    adapter = system.adapter
    bytes_moved = quad_words * WORD_BYTES
    buffer_a = system.memory.allocate(bytes_moved, align=4096)
    buffer_b = system.memory.allocate(bytes_moved, align=4096)
    payload = _payload_words(quad_words, seed)

    def register_program(ctx):
        start = ctx.now
        for index in range(quad_words):
            yield from ctx.mmio_write(adapter.register_addr(REG_CMD), payload[index])
            yield from ctx.mmio_read(adapter.register_addr(REG_DATA_OUT))
        return ctx.now - start

    def efpga_pull_program(ctx):
        yield from ctx.mmio_write(adapter.register_addr(REG_PLAIN_A), buffer_a)
        yield from ctx.mmio_write(adapter.register_addr(REG_COUNT), quad_words)
        yield from ctx.compute(800)
        for index in range(quad_words):
            yield from ctx.store(buffer_a + index * WORD_BYTES, payload[index])
        start = ctx.now
        yield from ctx.mmio_write(adapter.register_addr(REG_CMD), CMD_PULL_BUFFER)
        yield from ctx.mmio_read(adapter.register_addr(REG_DATA_OUT))
        return ctx.now - start

    def cpu_pull_program(ctx):
        yield from ctx.mmio_write(adapter.register_addr(REG_PLAIN_B), buffer_b)
        yield from ctx.mmio_write(adapter.register_addr(REG_COUNT), quad_words)
        yield from ctx.compute(800)
        yield from ctx.mmio_write(adapter.register_addr(REG_CMD), CMD_PUSH_BUFFER)
        yield from ctx.mmio_read(adapter.register_addr(REG_DATA_OUT))
        start = ctx.now
        total = 0
        for index in range(quad_words):
            total += yield from ctx.load(buffer_b + index * WORD_BYTES)
        return ctx.now - start

    if mechanism in ("shadow_reg", "normal_reg"):
        program = register_program
    elif mechanism.startswith("efpga_pull"):
        program = efpga_pull_program
    else:
        program = cpu_pull_program

    elapsed, _ = system.run_single(program, max_events=120_000_000)
    return BandwidthResult(
        mechanism=mechanism, fpga_mhz=fpga_mhz, bytes_moved=bytes_moved, elapsed_ns=elapsed
    )


# --------------------------------------------------------------------------- #
# Fig. 11: multi-processor register scalability
# --------------------------------------------------------------------------- #
def measure_register_scalability(
    mechanism: str,
    operation: str,
    num_processors: int,
    fpga_mhz: float = 500.0,
    accesses_per_processor: int = 64,
    seed: int = DEFAULT_SEED,
) -> ScalabilityResult:
    """Per-processor bandwidth with ``num_processors`` hammering one register."""
    if mechanism not in ("shadow_reg", "normal_reg"):
        raise ValueError("scalability study covers shadow_reg and normal_reg only")
    if operation not in ("read", "write"):
        raise ValueError("operation must be 'read' or 'write'")
    kind = SystemKind.DUET if mechanism == "shadow_reg" else SystemKind.FPSOC
    system, _ = _build(kind, processors=num_processors, fpga_mhz=fpga_mhz)
    adapter = system.adapter
    target = adapter.register_addr(REG_PLAIN_A)
    payload = _payload_words(accesses_per_processor, seed)

    def program(ctx):
        start = ctx.now
        for index in range(accesses_per_processor):
            if operation == "write":
                yield from ctx.mmio_write(target, payload[index])
            else:
                yield from ctx.mmio_read(target)
        return ctx.now - start

    assignments = [(core, program, ()) for core in range(num_processors)]
    results, _ = system.run_programs(assignments, max_events=200_000_000)
    # Per-processor bandwidth: each access moves one 8-byte quad-word.
    bandwidths = []
    for elapsed in results:
        bytes_moved = accesses_per_processor * WORD_BYTES
        bandwidths.append((bytes_moved / (elapsed * 1e-9)) / 1e6 if elapsed > 0 else 0.0)
    mean_bw = sum(bandwidths) / len(bandwidths)
    return ScalabilityResult(
        mechanism=mechanism,
        operation=operation,
        num_processors=num_processors,
        per_processor_mbytes_per_s=mean_bw,
    )
