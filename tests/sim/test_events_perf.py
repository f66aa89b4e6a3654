"""Kernel tests for partial runs, the event counter and merge ordering.

The event counter is the CI-safe perf proxy: the kernel is
deterministic, so ``events_processed`` must be identical across runs
and hosts for the same workload (``make bench-check`` relies on this).
"""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, Simulation, all_of


def _workload(sim):
    """A small mixed workload touching timeouts, events and barriers."""
    gate = sim.event()

    def opener():
        yield sim.timeout(2.0)
        gate.succeed("open")

    def waiter():
        value = yield gate
        yield sim.timeout(1.0)
        return value

    def sleeper(delay):
        yield sim.timeout(delay)

    def main():
        procs = [sim.process(sleeper(d)) for d in (0.5, 1.5, 2.5)]
        procs.append(sim.process(opener()))
        procs.append(sim.process(waiter()))
        yield all_of(sim, procs)

    return sim.process(main(), name="main")


# -- run(until=...) partial-run semantics --------------------------------


def test_run_until_leaves_future_events_queued():
    sim = Simulation()
    fired = []

    def proc():
        yield sim.timeout(1.0)
        fired.append(sim.now)
        yield sim.timeout(9.0)
        fired.append(sim.now)

    sim.process(proc())
    assert sim.run(until=5.0) == 5.0
    assert fired == [1.0]
    # Resuming without a bound finishes the remaining events.
    assert sim.run() == 10.0
    assert fired == [1.0, 10.0]


def test_run_until_processes_same_instant_events():
    """Events triggered with zero delay at exactly ``until`` still run."""
    sim = Simulation()
    log = []

    def proc():
        yield sim.timeout(3.0)
        log.append("timeout")
        gate = Event(sim).succeed("now")
        value = yield gate
        log.append(value)

    sim.process(proc())
    sim.run(until=3.0)
    assert log == ["timeout", "now"]


def test_run_until_is_resumable_in_slices():
    """Slicing a run into windows reaches the same final state."""
    whole = Simulation()
    _workload(whole)
    whole.run()

    sliced = Simulation()
    process = _workload(sliced)
    for bound in (0.5, 1.0, 2.0, 2.75, 10.0):
        sliced.run(until=bound)
    sliced.run()
    assert process.triggered
    assert sliced.now == whole.now
    assert sliced.events_processed == whole.events_processed


def test_run_until_in_the_past_is_rejected_without_moving_the_clock():
    sim = Simulation()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    assert sim.run(until=11.0) == 11.0
    with pytest.raises(SimulationError, match="before now"):
        sim.run(until=5.0)
    assert sim.now == 11.0
    assert sim.run(until=11.0) == 11.0   # ``until == now`` is allowed
    assert sim.run() == 20.0
    assert fired == [10.0, 20.0]


@pytest.mark.parametrize("until", [-1.0, float("nan")])
def test_run_until_negative_or_nan_is_rejected(until):
    sim = Simulation()

    def sleeper():
        yield sim.timeout(1.0)

    sim.process(sleeper())
    with pytest.raises(SimulationError):
        sim.run(until=until)
    assert sim.now == 0.0
    assert sim.events_processed == 0
    assert sim.run() == 1.0


# -- the event counter ---------------------------------------------------


def test_events_processed_starts_at_zero():
    assert Simulation().events_processed == 0


def test_events_processed_is_deterministic_across_runs():
    counts = []
    for _ in range(3):
        sim = Simulation()
        _workload(sim)
        sim.run()
        counts.append(sim.events_processed)
    assert len(set(counts)) == 1
    assert counts[0] > 0


def test_events_processed_counts_step_and_run_identically():
    run_sim = Simulation()
    _workload(run_sim)
    run_sim.run()

    step_sim = Simulation()
    process = _workload(step_sim)
    while True:
        try:
            step_sim.step()
        except IndexError:
            break
    assert process.triggered
    assert step_sim.events_processed == run_sim.events_processed


def test_step_on_empty_simulation_raises():
    with pytest.raises(IndexError):
        Simulation().step()


def test_serve_event_count_is_deterministic():
    """The service-level counter (what bench-check pins) is stable."""
    from repro.serve import PreprocessingService, bursty_trace
    counts = set()
    for _ in range(2):
        report = PreprocessingService(policy="cache-aware", slots=2).run(
            bursty_trace(tenants=4, seed=0))
        counts.add(report.events_processed)
    assert len(counts) == 1
    assert counts.pop() > 0


# -- FIFO/heap merge ordering --------------------------------------------


def test_same_instant_events_process_in_schedule_order():
    """Zero-delay triggers and timeouts landing at the same instant
    resolve in exact scheduling order (the heap/FIFO merge contract)."""
    sim = Simulation()
    order = []

    def a():
        yield sim.timeout(1.0)     # scheduled first -> runs first at t=1
        order.append("a")
        gate = Event(sim).succeed()  # zero-delay, same instant, later seq
        yield gate
        order.append("a-gate")

    def b():
        yield sim.timeout(1.0)     # scheduled second, same timestamp
        order.append("b")

    sim.process(a(), name="a")
    sim.process(b(), name="b")
    sim.run()
    # a's zero-delay gate was scheduled *after* b's timeout existed but
    # b's timeout carries an earlier sequence number, so b runs between
    # a's two steps -- exactly like a single global priority queue.
    assert order == ["a", "b", "a-gate"]


def test_multiple_callbacks_fire_in_attach_order():
    sim = Simulation()
    seen = []
    event = sim.event()
    event.add_callback(lambda e: seen.append("first"))
    event.add_callback(lambda e: seen.append("second"))
    event.add_callback(lambda e: seen.append("third"))
    event.succeed()
    sim.run()
    assert seen == ["first", "second", "third"]


def test_all_of_with_already_processed_events():
    sim = Simulation()

    def early():
        yield sim.timeout(1.0)
        return "early"

    def main(done):
        late = sim.process(_sleep(sim, 1.0, "late"))
        values = yield all_of(sim, [done, late])
        return values

    def _sleep(sim, delay, value):
        yield sim.timeout(delay)
        return value

    done = sim.process(early())
    sim.run()  # early has completed and been processed
    assert sim.run_process(main(done)) == ["early", "late"]
