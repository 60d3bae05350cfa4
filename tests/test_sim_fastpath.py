"""Kernel-semantics tests for the fast-path simulator.

These pin down the ordering invariants the immediate-run deque and the
integer-picosecond timeline must preserve (see docs/architecture.md):
same-timestamp FIFO across heap and deque, event waiter ordering,
``stop()`` ending a run at the end of its instant, explicit failure
propagation, a golden-file determinism check on fig9 and row-digest
pins on further Dolly-path experiments.
"""

import hashlib
import json
import os

import pytest

from repro.sim import Delay, Event, SimulationError, Simulator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# --------------------------------------------------------------------------- #
# Same-instant ordering
# --------------------------------------------------------------------------- #
def test_mixed_heap_and_immediate_keep_global_fifo_order():
    """Heap entries at the current instant interleave with zero-delay
    callbacks exactly in the order the schedule calls were made."""
    sim = Simulator()
    order = []

    def at_five():
        # Runs first at t=5: its zero-delay work must run *after* h1..h3,
        # which were scheduled (and therefore sequenced) earlier.
        order.append("cb")
        sim.schedule(0.0, order.append, "z1")
        sim.schedule(0.0, order.append, "z2")

    sim.schedule(5.0, at_five)
    sim.schedule(5.0, order.append, "h1")
    sim.schedule(5.0, order.append, "h2")
    sim.schedule(5.0, order.append, "h3")
    sim.run()
    assert order == ["cb", "h1", "h2", "h3", "z1", "z2"]


def test_zero_delay_schedule_at_matches_schedule_zero():
    sim = Simulator()
    order = []

    def kick():
        sim.schedule(0.0, order.append, "a")
        sim.schedule_at(sim.now, order.append, "b")
        sim.schedule(0.0, order.append, "c")

    sim.schedule(1.0, kick)
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_waiters_fire_in_registration_order():
    sim = Simulator()
    event = sim.event("go")
    order = []

    def waiter(tag):
        value = yield event
        order.append((tag, value))

    # Mix plain callbacks and process waiters; registration order must hold.
    sim.process(waiter("p1"))
    sim.run()  # p1 reaches its yield and registers
    event.add_callback(lambda value: order.append(("cb", value)))
    sim.process(waiter("p2"))
    sim.run()  # p2 registers after the plain callback
    event.succeed(7)
    sim.run()
    assert order == [("p1", 7), ("cb", 7), ("p2", 7)]


def test_triggered_event_wakes_later_waiters_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("late")

    def waiter():
        value = yield event
        return value

    process = sim.process(waiter())
    sim.run()
    assert process.done.value == "late"


def test_stop_finishes_the_instant_and_keeps_later_events_queued():
    """stop() ends run() once the current instant's callbacks have run:
    time does not advance, later events stay queued, and a following
    run() resumes them."""
    sim = Simulator()
    seen = []

    def stopper(tag):
        seen.append(tag)
        sim.stop()

    sim.schedule(5.0, seen.append, "a")
    sim.schedule(5.0, stopper, "b")
    sim.schedule(5.0, seen.append, "c")
    sim.schedule(9.0, seen.append, "later")
    assert sim.run(until=20.0) == 5.0
    assert seen == ["a", "b", "c"]
    assert sim.now == 5.0
    assert sim.pending_events == 1
    sim.run()
    assert seen == ["a", "b", "c", "later"]
    assert sim.now == 9.0


def test_until_does_not_run_future_events_but_drains_current_instant():
    sim = Simulator()
    seen = []

    def spawner():
        seen.append("start")
        sim.schedule(0.0, seen.append, "same-instant")
        yield Delay(10.0)
        seen.append("future")

    sim.process(spawner())
    sim.run(until=5.0)
    assert seen == ["start", "same-instant"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["start", "same-instant", "future"]
    assert sim.now == 10.0


# --------------------------------------------------------------------------- #
# Integer-picosecond timeline
# --------------------------------------------------------------------------- #
def test_now_ps_tracks_now_in_integer_picoseconds():
    sim = Simulator()
    sim.schedule(1.5, lambda: None)
    sim.run()
    assert sim.now == 1.5
    assert sim.now_ps == 1500

    sim.schedule(0.001, lambda: None)  # one picosecond
    sim.run()
    assert sim.now_ps == 1501
    assert sim.now == pytest.approx(1.501)


def test_float_ns_precision_preserved_through_the_api():
    """Sub-picosecond float structure of the model arithmetic survives: the
    kernel must not quantize the times it reports."""
    sim = Simulator()
    period = 1000.0 / 282.0  # an irrational-ish accelerator period
    times = []
    for cycle in range(1, 4):
        sim.schedule_at(cycle * period, lambda: times.append(sim.now))
    sim.run()
    assert times == [period, 2 * period, 3 * period]


def test_sub_picosecond_events_keep_distinct_order():
    sim = Simulator()
    order = []
    base = 5.0
    just_after = 5.0 + 5e-13  # same picosecond, later float time
    sim.schedule_at(just_after, order.append, "late")
    sim.schedule_at(base, order.append, "early")
    sim.run()
    assert order == ["early", "late"]


# --------------------------------------------------------------------------- #
# Failure propagation
# --------------------------------------------------------------------------- #
def test_unsupported_command_fails_done_and_raises():
    sim = Simulator()

    def bad():
        yield "not-a-command"

    process = sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()
    assert process.finished
    assert process.failed
    assert process.done.failed
    assert isinstance(process.done.value, SimulationError)


def test_waiter_of_failed_process_gets_exception_thrown_not_returned():
    sim = Simulator()
    witnessed = []

    def bad():
        yield "not-a-command"

    def waiter(child):
        try:
            value = yield child
            witnessed.append(("value", value))
        except SimulationError as error:
            witnessed.append(("raised", type(error).__name__))

    child = sim.process(bad())
    sim.process(waiter(child))
    with pytest.raises(SimulationError):
        sim.run()
    sim.run()  # deliver the failure to the waiter
    assert witnessed == [("raised", "SimulationError")]


def test_registered_waiter_consumes_failure_without_aborting_run():
    """When somebody is already waiting on a process's done event, its
    failure is delivered to the waiter only — run() keeps going and the
    exception is not raised a second time."""
    sim = Simulator()
    outcome = []

    def child():
        yield Delay(5.0)
        raise ValueError("boom")

    def parent(child_process):
        try:
            yield child_process.done
            outcome.append("no error")
        except ValueError as error:
            outcome.append(f"caught {error}")
        yield Delay(1.0)
        return "recovered"

    child_process = sim.process(child())
    parent_process = sim.process(parent(child_process))
    sim.run()  # must not raise: the parent consumes the failure
    assert outcome == ["caught boom"]
    assert parent_process.done.value == "recovered"
    assert child_process.failed and child_process.done.failed


def test_generator_exception_fails_done_event():
    sim = Simulator()

    def boom():
        yield Delay(1.0)
        raise ValueError("boom")

    process = sim.process(boom())
    with pytest.raises(ValueError):
        sim.run()
    assert process.failed
    assert isinstance(process.done.value, ValueError)


def test_event_fail_throws_into_waiting_process():
    sim = Simulator()
    event = sim.event("doomed")
    outcome = []

    def waiter():
        try:
            yield event
        except RuntimeError as error:
            outcome.append(str(error))
            return "handled"

    process = sim.process(waiter())
    sim.run()
    event.fail(RuntimeError("hardware error"))
    sim.run()
    assert outcome == ["hardware error"]
    assert process.done.value == "handled"
    assert not process.failed  # the process recovered


def test_event_fail_requires_an_exception_and_is_one_shot():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")
    event.fail(RuntimeError("x"))
    assert event.triggered and event.failed and not event.ok
    with pytest.raises(RuntimeError):
        event.succeed(1)


def test_run_process_reraises_failure():
    sim = Simulator()

    def bad():
        yield "garbage"

    with pytest.raises(SimulationError):
        sim.run_process(bad())


# --------------------------------------------------------------------------- #
# Determinism golden: fig9 must be bit-identical to the recorded seed run
# --------------------------------------------------------------------------- #
def test_fig9_results_match_golden_file():
    """Guards the integer-picosecond switch (and any future kernel change):
    the full fig9 grid must reproduce the seed kernel's output exactly."""
    from repro.api.runner import Runner

    with open(os.path.join(DATA_DIR, "fig9_golden.json")) as handle:
        golden = json.load(handle)
    rows = Runner().run("fig9").to_dicts()
    normalized = json.loads(json.dumps(rows, sort_keys=True))
    assert normalized == golden


#: SHA-256 of the sorted-key JSON rows of Dolly-path experiments beyond
#: fig9 (synthetic bandwidth, energy windows, DVFS and three applications)
#: and of the serve and fleet experiments built on the shared deployment
#: driver (energy wiring, policies, failover, alerting and tracing).
DOLLY_ROW_DIGESTS = {
    "fig10": "66cebe4d7454825c982f042f97bc16c65cc05acc5ba46ab314b5d060aba9f733",
    "fig11": "47068cb25433a4dcfac02a79d67beaaaef3b18cbdd873284511a7faa6416d7dd",
    "power_efficiency": "fdcae4ab5a9d477417bcc6337098f31c058b50355ff838bef507e7c581029b49",
    "dvfs_policy": "3bbcbb74486a21b60f08201b74582c018b442751776ffe46a3f20619c7ab8eeb",
    "app/tangent": "63cbe958dbf663a902f6a5be7dabf92c1b11fe2b860f219c201c5683bc7af4bb",
    "app/popcount": "82b6aecb9c458332773a87757c31117ec01d94d0342a14c985ee9d53e49eff9b",
    "app/sort/32": "6145461793af4977949ac56114ed84e40c9111a69503b9b68b20eb933c8560cd",
    "serve_energy": "b32428f358d19e1265da0041fc7c5ce6d621cdb1102452ecc735c6cad237d96c",
    "serve_policy": "61b1b1f88778112ae2f7a63fdac2ca4fe30592870c269aa8c51098cc8ff3988e",
    "chaos": "3c7b5791acde8b8358253b1c135ddf5fd09b90a9a14afc009d05700edddbbe4f",
    "fleet_scaling": "33436313330d105437e387319a6312f82cc282ea7f9deeafbefceccb173ef750",
    "alerting": "ecbf57524a3ce3d953796b0e06e49f2ed92baa7a3765bb28ae50972d9774ec19",
    "latency_decomposition":
        "7f5d564026eb1cc61feafcf1b99b31e2c94ba88e94ccdc90fd7dc9031293ed39",
}

#: Axis overrides that keep the larger sweeps above to about a second.
ROW_DIGEST_OVERRIDES = {
    "serve_policy": {"arrival_rate_krps": (150.0,)},
    "fleet_scaling": {"nodes": (2,)},
}


@pytest.mark.parametrize("experiment", sorted(DOLLY_ROW_DIGESTS))
def test_dolly_rows_match_recorded_digest(experiment):
    """Every row, runtime and energy window of these experiments must stay
    bit-identical across changes to how a run is driven and reported."""
    from repro.api.runner import Runner

    overrides = ROW_DIGEST_OVERRIDES.get(experiment, {})
    rows = Runner().run(experiment, **overrides).to_dicts()
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == DOLLY_ROW_DIGESTS[experiment]


def test_multicore_coherence_is_hash_seed_independent():
    """Invalidation fan-out order must not depend on PYTHONHASHSEED: the
    directory sorts its sharer set before sending Inv messages."""
    from repro.workloads import bfs
    from repro.workloads.common import WorkloadParams

    first = bfs.run_cpu(WorkloadParams(num_processors=4))
    second = bfs.run_cpu(WorkloadParams(num_processors=4))
    assert first.runtime_ns == second.runtime_ns
    assert first.correct and second.correct
