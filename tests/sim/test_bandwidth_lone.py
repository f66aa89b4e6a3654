"""Lone transfers: the production link vs the heap-only reference.

A transfer that finds ``SharedBandwidth`` idle is served from the
link's reusable wake and parked events instead of a heap entry, a wake
``Timeout`` and a transfer ``Event`` (docs/performance.md, "Lone
transfers").  ``heap_link`` keeps the link from before that change.
Random programs mix lone and overlapping transfers, capacity changes,
blackouts, aborts and mid-flight queries; both links must give the
identical trace, event counts and byte totals under both tie-breaks --
compared with ``==``, not a tolerance.  The second half pins the
parked-event contract: a transfer's event must be yielded at once by
the one process that started it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.bandwidth import TIE_BREAKS, SharedBandwidth
from repro.sim.events import Simulation

from heap_link import SharedBandwidth as HeapSharedBandwidth


class _Blackout(Exception):
    pass


def _blackout(nbytes):
    return _Blackout(nbytes)


#: Half-integer delays tie exactly, so transfers start together, end
#: exactly when another starts, or overlap part-way.
_delays = st.integers(min_value=0, max_value=8).map(lambda half: half / 2)
#: Repeated sizes make simultaneous completions (tie-break batches);
#: odd sizes make ulp-sensitive completion times; 1e-7 is below the
#: link's epsilon and never becomes active.
_sizes = st.one_of(
    st.sampled_from([0.0, 1e-7, 1.0, 2.0, 3.0, 0.1, 1 / 3]),
    st.floats(min_value=0.01, max_value=12.0))
_capacities = st.sampled_from([1.0, 2.0, 3.0, 4.0, 10 / 3])
#: In-flight queries; each must materialise a lone transfer by itself.
_QUERIES = {
    "bytes_moved": lambda link: link.bytes_moved,
    "active_streams": lambda link: link.active_streams,
    "current_throughput": lambda link: link.current_throughput(),
    "stream_rate": lambda link: link.stream_rate(),
}
_OPS = {
    "transfer": st.tuples(st.just("transfer"), _sizes,
                          st.sampled_from(["", "a", "b"])),
    "wait": st.tuples(st.just("wait"), _delays),
    "capacity": st.tuples(st.just("capacity"), _capacities,
                          st.one_of(st.none(), _capacities)),
    "blackout": st.tuples(st.just("blackout"), _delays),
    "abort": st.just(("abort",)),
    "query": st.tuples(st.just("query"), st.sampled_from(sorted(_QUERIES))),
}
#: Half the ops are transfers; the rest spread over the other kinds.
_op = st.sampled_from(["transfer"] * 5 + [
    "wait", "capacity", "blackout", "abort", "query"]).flatmap(
        _OPS.__getitem__)
_programs = st.fixed_dictionaries({
    "aggregate": _capacities,
    "per_stream": st.one_of(st.none(), _capacities),
    "processes": st.lists(
        st.tuples(_delays, st.lists(_op, min_size=1, max_size=8)),
        min_size=1, max_size=5),
    #: An observer that reads the link at these instants.
    "queries": st.lists(st.tuples(st.integers(0, 40).map(lambda q: q / 4),
                                  st.sampled_from(sorted(_QUERIES))),
                        max_size=4),
})


def run_program(link_cls, program, tie_break):
    """Run ``program`` on a fresh simulation with a ``link_cls`` link;
    returns everything the two links must agree on."""
    sim = Simulation()
    link = link_cls(sim, program["aggregate"], program["per_stream"],
                    tie_break=tie_break)
    log = []

    def body(pid, start, ops):
        yield float(start)
        for step, op in enumerate(ops):
            kind = op[0]
            outcome = None
            if kind == "transfer":
                try:
                    yield link.transfer(op[1], op[2])
                except _Blackout:
                    outcome = "failed"
            elif kind == "wait":
                yield float(op[1])
            elif kind == "capacity":
                link.set_capacity(op[1], op[2])
            elif kind == "blackout":
                link.set_fault(_blackout)
                yield float(op[1])
                link.clear_fault()
            elif kind == "abort":
                outcome = link.abort_active(_blackout)
            else:
                outcome = _QUERIES[op[1]](link)
            log.append((sim.now, pid, step, outcome))

    def observer(queries):
        for instant, query in sorted(queries):
            yield instant - sim.now
            log.append((sim.now, "observer", _QUERIES[query](link)))

    for pid, (start, ops) in enumerate(program["processes"]):
        sim.process(body(pid, start, ops), name=f"p{pid}")
    if program["queries"]:
        sim.process(observer(program["queries"]), name="observer")
    sim.run()
    return {
        "log": log,
        "now": sim.now,
        "events_processed": sim.events_processed,
        "events_inlined": sim.events_inlined,
        "bytes_moved": link.bytes_moved,
        "peak_streams": link.peak_streams,
        "total_transfers": link.total_transfers,
        "active_streams": link.active_streams,
    }


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@settings(deadline=None, max_examples=250, derandomize=True)
@given(program=_programs)
def test_lone_path_matches_the_heap_link_exactly(program, tie_break):
    expected = run_program(HeapSharedBandwidth, program, tie_break)
    observed = run_program(SharedBandwidth, program, tie_break)
    assert observed == expected


def test_sequential_transfers_match_the_heap_link():
    """One reader back to back: every transfer takes the lone path."""
    program = {"aggregate": 4.0, "per_stream": 1.5, "queries": [],
               "processes": [(0.0, [("transfer", 1 / 3, "")] * 6
                              + [("wait", 0.5), ("transfer", 0.1, "")])]}
    for tie_break in TIE_BREAKS:
        expected = run_program(HeapSharedBandwidth, program, tie_break)
        assert run_program(SharedBandwidth, program, tie_break) == expected
        assert expected["events_inlined"] > 0


# -- the parked-event contract ---------------------------------------------


def _contract_run(*bodies):
    """Run ``bodies(sim, link, log)`` as processes; returns the log up to
    the SimulationError the run must raise."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=4.0, per_stream_bw=2.0)
    log = []
    for index, body in enumerate(bodies):
        sim.process(body(sim, link, log), name=f"p{index}")
    with pytest.raises(SimulationError, match="yielded at once"):
        sim.run()
    return sim, log


def test_a_transfer_outliving_its_unyielded_event_raises():
    def holder(sim, link, log):
        event = link.transfer(2.0)   # done at t=1, but not yielded
        yield 3.0
        log.append(("holder woke", sim.now))
        yield event
        log.append(("holder resumed", sim.now))

    sim, log = _contract_run(holder)
    assert sim.now == 1.0
    assert log == []


def test_a_second_admission_beside_an_unyielded_event_raises():
    def holder(sim, link, log):
        event = link.transfer(4.0)
        yield 3.0
        log.append(("holder woke", sim.now))
        yield event

    def second(sim, link, log):
        yield 0.5
        yield link.transfer(1.0)
        log.append(("second resumed", sim.now))

    sim, log = _contract_run(holder, second)
    assert sim.now == 0.5
    assert log == []


def test_a_query_beside_an_unyielded_event_raises():
    def holder(sim, link, log):
        event = link.transfer(4.0)
        yield 3.0
        yield event

    def prober(sim, link, log):
        yield 0.5
        log.append(link.bytes_moved)

    sim, log = _contract_run(holder, prober)
    assert sim.now == 0.5
    assert log == []


def test_a_transfer_event_shared_by_two_processes_raises():
    """The second waiter would be resumed by a transfer it did not start."""
    shared = []

    def starter(sim, link, log):
        shared.append(link.transfer(2.0))
        yield shared[0]
        log.append(("starter resumed", sim.now))

    def borrower(sim, link, log):
        yield shared[0]
        log.append(("borrower resumed", sim.now))

    sim, log = _contract_run(starter, borrower)
    assert sim.now == 1.0
    assert log == []


def test_a_finished_transfer_event_yields_again_at_once():
    """Yielding a finished lone transfer's event again resumes at once,
    as the heap link's processed event does."""
    def run(link_cls):
        sim = Simulation()
        link = link_cls(sim, aggregate_bw=4.0, per_stream_bw=2.0)
        log = []

        def body():
            event = link.transfer(2.0)
            yield event
            log.append(sim.now)
            yield 0.5
            yield event
            log.append(sim.now)

        sim.process(body())
        sim.run()
        return log, sim.events_processed, sim.events_inlined

    assert run(SharedBandwidth) == run(HeapSharedBandwidth)
    assert run(SharedBandwidth)[0] == [1.0, 1.5]


@pytest.mark.parametrize("link_cls", [SharedBandwidth, HeapSharedBandwidth])
def test_a_nan_size_on_an_idle_link_is_rejected(link_cls):
    sim = Simulation()
    link = link_cls(sim, aggregate_bw=4.0)
    with pytest.raises(SimulationError, match="delay"):
        link.transfer(float("nan"))
