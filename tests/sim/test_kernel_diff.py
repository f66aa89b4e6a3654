"""Differential tests: the production kernel vs the all-queued reference.

The production kernel resumes next-in-line grants and link completions
in-line and serves ``yield delay`` from one reusable timer per process
(docs/performance.md, "Order-exact waits").  ``reference_kernel`` queues
every event and builds a Timeout for every delay.  Random process
programs -- integer delays that force same-instant ties, convoy locks,
multi-slot resources, shared waits and ``all_of`` barriers, zero-byte
transfers, blackout-failed and aborted transfers -- must produce the
identical interleaved trace on both, and the reference must resolve
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


_delays = st.integers(min_value=0, max_value=3)
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


def run_program(sim, program, drive=None):
    """Run ``program`` on ``sim``; returns everything both kernels must
    agree on, plus the event counts."""
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
    else:
        drive(sim)
    observed = {
        "log": log,
        "now": sim.now,
        "resources": [(r.total_acquisitions, r.peak_in_use, r.in_use,
                       r.queued) for r in resources + [lock]],
        "link": (link.total_transfers, link.peak_streams,
                 link.bytes_moved, link.active_streams),
    }
    return observed, sim.events_processed, sim.events_inlined


def _step_all(sim):
    while True:
        try:
            sim.step()
        except IndexError:
            return


@settings(deadline=None, max_examples=300, derandomize=True)
@given(program=_programs)
def test_fast_kernel_matches_the_all_queued_reference(program):
    expected, reference_events, reference_inlined = run_program(
        ReferenceSimulation(), program)
    observed, processed, inlined = run_program(Simulation(), program)
    assert observed == expected
    assert reference_inlined == 0
    assert processed + inlined == reference_events


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
