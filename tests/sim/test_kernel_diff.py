"""Differential tests: the production kernel vs the all-queued reference.

The production kernel resumes next-in-line grants, link completions and
timed waits in-line and serves ``yield delay`` from one reusable timer
per process (docs/performance.md, "Order-exact waits").
``reference_kernel`` queues every event and builds a Timeout for every
delay.  Random process programs -- half-integer delays that force
same-instant ties and waits ending before, at and after the heap head,
convoy locks, multi-slot resources, shared waits and ``all_of``
barriers, zero-byte transfers, blackout-failed and aborted transfers --
must produce the identical interleaved trace on both, also when the run
is sliced by ``run(until)`` horizons, and the reference must resolve
exactly ``events_processed + events_inlined`` events.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.bandwidth import SharedBandwidth
from repro.sim.events import Simulation, all_of
from repro.sim.resources import Lock, Resource

from reference_kernel import ReferenceSimulation

#: Resource capacities: one mutex-like slot, then multi-slot pools.
CAPACITIES = (1, 2, 3)
GATES = 3


class _Blackout(Exception):
    pass


def _blackout(nbytes):
    return _Blackout(nbytes)


#: Half-integer delays: exact in binary, so sums tie exactly.
_delays = st.integers(min_value=0, max_value=6).map(lambda half: half / 2)
_op = st.one_of(
    st.tuples(st.just("wait"), _delays),
    st.tuples(st.just("use"), st.integers(0, len(CAPACITIES) - 1), _delays),
    st.tuples(st.just("hold"), _delays),
    st.tuples(st.just("hold_scaled"), _delays, st.integers(1, 3)),
    st.tuples(st.just("late_grant"), st.integers(0, len(CAPACITIES) - 1),
              _delays, _delays),
    st.tuples(st.just("transfer"), st.sampled_from([0, 1, 2, 3, 4, 8])),
    st.tuples(st.just("gate"), st.integers(0, GATES - 1)),
    st.tuples(st.just("all_of"), st.lists(_delays, min_size=1,
                                          max_size=3)),
    st.tuples(st.just("blackout"), _delays),
    st.tuples(st.just("abort"),),
)
_programs = st.fixed_dictionaries({
    "processes": st.lists(st.lists(_op, min_size=1, max_size=6),
                          min_size=1, max_size=6),
    "gate_times": st.lists(_delays, min_size=GATES, max_size=GATES),
})
#: Several processes woken by one gate, then waiting: the gate's
#: dispatch has many callbacks, so no waiter's timed wait may end
#: before the last waiter has woken.
_fan_outs = st.fixed_dictionaries({
    "processes": st.lists(
        st.lists(st.tuples(st.just("wait"), _delays), min_size=1,
                 max_size=4).map(lambda waits: [("gate", 0)] + waits),
        min_size=2, max_size=4),
    "gate_times": st.lists(_delays, min_size=GATES, max_size=GATES),
})


def run_program(sim, program, drive=None):
    """Run ``program`` on ``sim``; returns everything both kernels must
    agree on, plus the event counts.  ``drive(sim, log)`` replaces the
    single ``sim.run()``; what it returns is compared too."""
    resources = [Resource(sim, capacity, name=f"r{capacity}")
                 for capacity in CAPACITIES]
    lock = Lock(sim, name="convoy", convoy_overhead=0.5,
                max_convoy_waiters=2)
    link = SharedBandwidth(sim, aggregate_bw=4.0, per_stream_bw=2.0)
    gates = [sim.event() for _ in range(GATES)]
    log = []

    def opener(index, at):
        yield float(at)
        gates[index].succeed(index)
        # Stay alive, so the gate's waiters run with an empty FIFO.
        yield 4.0

    def child(pid, delay):
        yield from resources[1].use(float(delay))
        log.append((sim.now, pid, "child"))
        return delay

    def body(pid, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            outcome = None
            if kind == "wait":
                yield float(op[1])
            elif kind == "use":
                yield from resources[op[1]].use(float(op[2]))
            elif kind == "hold":
                yield from lock.hold(float(op[1]))
            elif kind == "hold_scaled":
                yield from lock.hold_scaled(float(op[1]), op[2])
            elif kind == "late_grant":
                # The grant is yielded only after an unrelated wait.
                resource = resources[op[1]]
                grant = resource.acquire()
                yield float(op[2])
                outcome = (yield grant).name
                yield float(op[3])
                resource.release()
            elif kind == "transfer":
                try:
                    yield link.transfer(float(op[1]))
                except _Blackout:
                    outcome = "failed"
            elif kind == "gate":
                outcome = yield gates[op[1]]
            elif kind == "all_of":
                outcome = yield all_of(sim, [
                    sim.process(child(pid, delay)) for delay in op[1]])
            elif kind == "blackout":
                link.set_fault(_blackout)
                yield float(op[1])
                link.clear_fault()
            else:
                outcome = link.abort_active(_blackout)
            log.append((sim.now, pid, step, outcome))

    for index, at in enumerate(program["gate_times"]):
        sim.process(opener(index, at))
    for pid, ops in enumerate(program["processes"]):
        sim.process(body(pid, ops), name=f"p{pid}")
    if drive is None:
        sim.run()
        driven = None
    else:
        driven = drive(sim, log)
    observed = {
        "driven": driven,
        "log": log,
        "now": sim.now,
        "resources": [(r.total_acquisitions, r.peak_in_use, r.in_use,
                       r.queued) for r in resources + [lock]],
        "link": (link.total_transfers, link.peak_streams,
                 link.bytes_moved, link.active_streams),
    }
    return observed, sim.events_processed, sim.events_inlined


def _step_all(sim, log):
    while True:
        try:
            sim.step()
        except IndexError:
            return


def _assert_matches_the_reference(program, drive=None):
    expected, reference_events, reference_inlined = run_program(
        ReferenceSimulation(), program, drive)
    observed, processed, inlined = run_program(Simulation(), program,
                                               drive)
    assert observed == expected
    assert reference_inlined == 0
    assert processed + inlined == reference_events


@settings(deadline=None, max_examples=300, derandomize=True)
@given(program=_programs)
def test_fast_kernel_matches_the_all_queued_reference(program):
    _assert_matches_the_reference(program)


def _sliced(horizons):
    """A drive that runs up to each horizon in turn, then to the end,
    recording the clock, the log length and the events resolved or
    in-lined at every stop."""
    def drive(sim, log):
        stops = []
        for until in sorted(horizons):
            stops.append((sim.run(until), sim.now, len(log),
                          sim.events_processed + sim.events_inlined))
        sim.run()
        return stops
    return drive


#: Quarter-second horizons: they fall exactly on half-integer wait ends
#: and strictly between two of them.
_horizons = st.lists(st.integers(min_value=0, max_value=80).map(
    lambda quarter: quarter / 4), min_size=1, max_size=6)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(program=_programs, horizons=_horizons)
def test_sliced_runs_match_the_reference_at_every_horizon(program,
                                                          horizons):
    _assert_matches_the_reference(program, _sliced(horizons))


@settings(deadline=None, max_examples=100, derandomize=True)
@given(program=_fan_outs)
def test_fanned_out_waiters_match_the_reference(program):
    _assert_matches_the_reference(program)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(program=_programs)
def test_step_and_run_in_line_identically(program):
    ran = run_program(Simulation(), program)
    stepped = run_program(Simulation(), program, drive=_step_all)
    assert stepped == ran


def _two_workers(sim):
    resource = Resource(sim, 2)
    link = SharedBandwidth(sim, aggregate_bw=1.0)
    log = []

    def worker(pid):
        for step in range(3):
            yield resource.acquire()
            yield 1.0
            resource.release()
            yield link.transfer(1.0 + pid)
            log.append((sim.now, pid, step))

    sim.process(worker(0))
    sim.process(worker(1), name="second")
    sim.run()
    return log


def test_in_lining_happens_and_is_conserved():
    fast, reference = Simulation(), ReferenceSimulation()
    assert _two_workers(fast) == _two_workers(reference)
    assert fast.events_inlined > 0
    assert (fast.events_processed + fast.events_inlined
            == reference.events_processed)


def test_multi_callback_dispatch_is_never_in_lined():
    """Two waiters of one event: the first one's grant must not resume
    it before the second waiter has run."""
    sim = Simulation()
    gate = sim.event()
    resource = Resource(sim, 2)
    log = []

    def waiter(pid):
        yield gate
        log.append(("woke", pid))
        yield resource.acquire()
        log.append(("granted", pid))

    def opener():
        yield 1.0
        gate.succeed()
        yield 1.0

    sim.process(waiter(0))
    sim.process(waiter(1))
    sim.process(opener())
    sim.run()
    assert log == [("woke", 0), ("woke", 1), ("granted", 0),
                   ("granted", 1)]


def test_grant_outside_the_run_loop_is_queued():
    """With no dispatch running nothing can be resumed in-line: the
    grant is an ordinary pending event."""
    sim = Simulation()
    grant = Resource(sim, 1).acquire()
    assert grant.triggered and not grant.processed
    assert sim.events_inlined == 0


@pytest.mark.parametrize("tie", [0.0, 1.0])
def test_lone_completion_with_a_same_instant_heap_head_is_queued(tie):
    """A heap entry at ``now`` could precede a completion, so the
    completion is only in-lined when the heap head is strictly later."""
    fast, reference = Simulation(), ReferenceSimulation()
    results = []
    for sim in (fast, reference):
        link = SharedBandwidth(sim, aggregate_bw=1.0)
        log = []

        def mover():
            yield link.transfer(2.0)
            log.append(("moved", sim.now))

        def sleeper():
            yield 2.0 + tie
            log.append(("slept", sim.now))

        sim.process(mover())
        sim.process(sleeper())
        sim.run()
        results.append(log)
    assert results[0] == results[1]
    assert fast.events_processed + fast.events_inlined \
        == reference.events_processed


def _waits_then_log(sim, log, name, delays):
    for delay in delays:
        yield delay
        log.append((sim.now, name))


def test_timed_waits_are_in_lined_and_conserved():
    """A lone process: every wait is next in line, so only the
    bootstrap and the exit are queued."""
    fast, reference = Simulation(), ReferenceSimulation()
    logs = []
    for sim in (fast, reference):
        log = []
        sim.process(_waits_then_log(sim, log, "a", (1.0, 0.5, 2.0)))
        sim.run()
        logs.append(log)
    assert logs[0] == logs[1] == [(1.0, "a"), (1.5, "a"), (3.5, "a")]
    assert (fast.events_processed, fast.events_inlined) == (2, 3)
    assert reference.events_processed == 5


def test_timed_wait_does_not_pass_the_run_horizon():
    sim = Simulation()
    log = []
    sim.process(_waits_then_log(sim, log, "a", (1.0, 1.0)))
    assert sim.run(until=1.5) == 1.5
    assert sim.now == 1.5
    assert log == [(1.0, "a")]
    assert sim.run() == 2.0
    assert log == [(1.0, "a"), (2.0, "a")]


def test_timed_wait_ending_at_the_horizon_is_in_lined():
    sim = Simulation()
    log = []
    sim.process(_waits_then_log(sim, log, "a", (1.0, 1.0)))
    assert sim.run(until=2.0) == 2.0
    assert log == [(1.0, "a"), (2.0, "a")]
    assert sim.events_inlined == 2


@pytest.mark.parametrize("head", [0.5, 1.0, 1.5])
def test_timed_wait_against_the_heap_head(head):
    """A wait ending before, at and after another process's pending
    timer: only one ending strictly before it may be in-lined, and the
    order matches the reference every time."""
    results = []
    for sim in (Simulation(), ReferenceSimulation()):
        log = []
        sim.process(_waits_then_log(sim, log, "sleeper", (head,)))
        sim.process(_waits_then_log(sim, log, "waiter", (0.0, 1.0)))
        sim.run()
        results.append((log, sim.events_processed + sim.events_inlined))
    assert results[0] == results[1]


def test_timed_wait_behind_a_same_instant_trigger_is_queued():
    """A zero-delay trigger is still in the FIFO: its waiter runs at
    ``now``, before the triggering process's wait ends."""
    sim = Simulation()
    gate = sim.event()
    log = []

    def opener():
        yield 1.0
        gate.succeed()
        yield 1.0
        log.append((sim.now, "opener"))

    def waiter():
        yield gate
        log.append((sim.now, "waiter"))

    sim.process(opener())
    sim.process(waiter())
    sim.run()
    assert log == [(1.0, "waiter"), (2.0, "opener")]


def test_timed_wait_during_multi_callback_dispatch_is_queued():
    """Two waiters of one event: the first one's timed wait must not
    end before the second waiter has run at the same instant."""
    sim = Simulation()
    gate = sim.event()
    log = []

    def waiter(pid):
        yield gate
        log.append((sim.now, "woke", pid))
        yield 1.0
        log.append((sim.now, "slept", pid))

    def opener():
        yield 1.0
        gate.succeed()
        # Stay alive, so the gate's waiters run with an empty FIFO.
        yield 5.0

    sim.process(waiter(0))
    sim.process(waiter(1))
    sim.process(opener())
    sim.run()
    assert log == [(1.0, "woke", 0), (1.0, "woke", 1),
                   (2.0, "slept", 0), (2.0, "slept", 1)]
