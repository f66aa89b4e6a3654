"""Pinned performance scenarios for the kernel benchmark suite.

Each scenario is deterministic: the simulated results (makespan, SPS,
events processed and in-lined) must be identical on every host and
every run, while
the wall-clock seconds measure how fast *this* checkout's kernel chews
through the same event stream.  ``make bench`` records all scenarios
into ``BENCH_serve.json``; ``make bench-check`` replays only the pinned
64-tenant scenario and asserts the event count (flake-free CI proxy).

Scenarios
---------
* ``serve64``          -- THE pinned scenario: 64-tenant bursty serve on
                          16 slots under cache-aware scheduling (default
                          pipeline mix).  The kernel-speedup acceptance
                          gate and the CI event-count smoke run this.
* ``serve64_hot_raw``  -- 64 bursty tenants, full co-tenancy (64 slots),
                          hot artifact pinned to the *raw* CV2-PNG
                          dataset whose working set exceeds the page
                          cache: sustained storage-stream concurrency,
                          the regime where the historical O(n) link
                          rescans went quadratic.  Runs under the
                          ``tenant`` tie-break so equal-score ordering
                          is pinned by name, not arrival.
* ``serve128``         -- 128 tenants; scale check above the pinned one.
* ``stream64``         -- 64 bursty tenant request streams through the
                          streaming inference engine (bounded queues,
                          per-request deadlines): the latency-path
                          analogue of ``serve64``, pinned by event count
                          in the CI bench-check set.
* ``ctl_ops_chaos32``  -- long-horizon operations trace (3 simulated
                          days, 32 tenants) through the control plane
                          with the full chaos timeline injected
                          (straggler + device slowdown + brownout +
                          blackout + crash window, checkpoint-aware
                          resume, SLO-aware shedding).  Pins the fault
                          engine's deterministic cost in the CI
                          bench-check set.
* ``link10k``          -- kernel microbenchmark: 10,000 transfers over
                          one max-min fair link at 512-way concurrency,
                          no model code at all.
* ``sweep``            -- every legal strategy of MP3 + FLAC through the
                          serial sweep engine (profiling hot path).
* ``sweep_full``       -- the whole pipeline registry (slow; excluded
                          from the default ``make bench`` run).
"""

from __future__ import annotations

import time

from repro.units import MB

#: Serve-scenario definitions: trace kwargs + service kwargs.
SERVE_SCENARIOS = {
    "serve8": dict(
        trace=dict(kind="bursty", tenants=8, seed=0),
        policies=("fifo", "cache-aware"), slots=2),
    "serve64": dict(
        trace=dict(kind="bursty", tenants=64, seed=0),
        policies=("cache-aware",), slots=16),
    "serve64_hot_raw": dict(
        trace=dict(kind="bursty", tenants=64, seed=0, burst_size=8,
                   pipelines=("CV2-PNG", "CV2-JPG"),
                   hot_pipeline="CV2-PNG", hot_split="unprocessed"),
        policies=("cache-aware",), slots=64, tie_break="tenant"),
    "serve128": dict(
        trace=dict(kind="bursty", tenants=128, seed=0),
        policies=("cache-aware",), slots=16),
}

#: Scenarios the CI smoke (``make bench-check``) replays.  serve64 is
#: the default-mix bursty scenario; serve64_hot_raw is the pinned
#: kernel-speedup acceptance scenario (sustained storage concurrency).
CHECK_SCENARIOS = ("serve64", "serve64_hot_raw")

#: Streaming-inference scenario definitions (generate_stream kwargs).
STREAM_SCENARIOS = {
    "stream64": dict(tenants=64, seed=0, arrival="burst", rate=2.0,
                     requests=48, batch=32, workers=4, queue_bound=8),
}

#: Stream scenarios the CI smoke replays alongside CHECK_SCENARIOS.
STREAM_CHECK_SCENARIOS = ("stream64",)

#: Control-plane chaos scenarios: trace kwargs + dispatcher kwargs +
#: fault-plan kwargs (generate_fault_plan).  Deterministic like every
#: other scenario -- same seed, same timeline, same event count.
CTL_SCENARIOS = {
    "ctl_ops_chaos32": dict(
        trace=dict(kind="operations", tenants=32, seed=0),
        policy="cache-aware", slots=8,
        faults=dict(seed=3, horizon=20000.0, stragglers=1, slowdowns=1,
                    brownouts=1, blackouts=1, crash_windows=1,
                    severity=0.6),
        checkpoint_epochs=2, shed_slo=True),
}

#: Chaos scenarios the CI smoke replays alongside CHECK_SCENARIOS.
CTL_CHECK_SCENARIOS = ("ctl_ops_chaos32",)

LINK_STREAMS = 512
LINK_TRANSFERS = 10_000


def build_trace(kind: str, **kwargs):
    from repro.serve import generate_trace
    return generate_trace(kind, **kwargs)


def run_serve_scenario(name: str) -> dict:
    """Run one pinned serve scenario; returns the recorded metrics."""
    from repro.serve import PreprocessingService
    spec = SERVE_SCENARIOS[name]
    policies = {}
    for policy in spec["policies"]:
        trace = build_trace(**spec["trace"])
        service = PreprocessingService(policy=policy, slots=spec["slots"],
                                       tie_break=spec.get("tie_break"))
        started = time.perf_counter()
        report = service.run(trace)
        wall = time.perf_counter() - started
        policies[policy] = {
            "wall_seconds": round(wall, 3),
            "events": report.events_processed,
            "events_inlined": report.events_inlined,
            "events_per_sec": int(report.events_processed / wall),
            "makespan_s": round(report.makespan, 3),
            "aggregate_sps": round(report.aggregate_sps, 3),
            "p99_epoch_s": round(report.p99_epoch_seconds, 3),
            "cache_hit_ratio": round(report.cache_hit_ratio, 4),
            "offline_runs": report.offline_runs,
            "offline_deduped": report.offline_deduped,
            "slo_violations": report.total_slo_violations,
        }
    return {
        "trace": dict(spec["trace"]),
        "slots": spec["slots"],
        "tie_break": spec.get("tie_break"),
        "policies": policies,
    }


def run_stream_scenario(name: str) -> dict:
    """Run one pinned streaming-inference scenario.

    Deterministic like the serve scenarios: the event count and every
    simulated latency metric must be bit-identical across hosts; only
    the wall seconds measure this checkout's kernel speed.
    """
    from repro.stream import StreamingService, generate_stream
    spec = STREAM_SCENARIOS[name]
    kwargs = dict(spec)
    tenants = kwargs.pop("tenants")
    seed = kwargs.pop("seed")
    streams = generate_stream(tenants, seed=seed, **kwargs)
    started = time.perf_counter()
    report = StreamingService().run(streams, seed=seed)
    wall = time.perf_counter() - started
    return {
        "spec": dict(spec),
        "wall_seconds": round(wall, 3),
        "events": report.events_processed,
        "events_inlined": report.events_inlined,
        "events_per_sec": int(report.events_processed / wall),
        "makespan_s": round(report.makespan, 3),
        "p99_latency_s": round(report.p99_latency, 3),
        "miss_fraction": round(report.miss_fraction, 4),
        "shed": report.total_shed,
        "cache_hit_ratio": round(report.cache_hit_ratio, 4),
    }


def run_ctl_scenario(name: str) -> dict:
    """Run one pinned control-plane chaos scenario.

    The chaos timeline is seeded (``chaos-{seed}`` RNG namespace), so
    the injected windows -- and therefore retries, sheds, lost epochs
    and the kernel event count -- are bit-identical across hosts.
    """
    from repro.ctl import Dispatcher
    from repro.faults import generate_fault_plan
    spec = CTL_SCENARIOS[name]
    trace = build_trace(**spec["trace"])
    plan = generate_fault_plan(**spec["faults"])
    dispatcher = Dispatcher(policy=spec["policy"], slots=spec["slots"],
                            faults=plan,
                            checkpoint_epochs=spec["checkpoint_epochs"],
                            shed_slo=spec["shed_slo"])
    started = time.perf_counter()
    report = dispatcher.run(trace)
    wall = time.perf_counter() - started
    return {
        "trace": dict(spec["trace"]),
        "slots": spec["slots"],
        "wall_seconds": round(wall, 3),
        "events": report.events_processed,
        "events_inlined": report.events_inlined,
        "events_per_sec": int(report.events_processed / wall),
        "makespan_s": round(report.service.makespan, 3),
        "fault_windows": len(report.service.fault_events),
        "transfers_aborted": report.service.transfers_aborted,
        "retries": report.total_retries,
        "dead_lettered": report.dead,
        "shed": report.total_shed,
        "lost_epochs": report.total_lost_epochs,
    }


def run_link_microbench(streams: int = LINK_STREAMS,
                        transfers: int = LINK_TRANSFERS) -> dict:
    """Pure-kernel link stress: many concurrent max-min fair streams.

    No pipelines, no machine model -- just transfer arrivals and
    completions, so the wall seconds isolate the link hot path the
    virtual-progress rewrite targets.
    """
    from repro.sim.bandwidth import SharedBandwidth
    from repro.sim.events import Simulation, all_of

    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=910 * MB,
                           per_stream_bw=219 * MB, name="bench")
    per_stream, extra = divmod(transfers, streams)

    def worker(worker_id: int, count: int):
        for index in range(count):
            # Deterministic, aperiodic sizes in [4, 8) MB.
            size = (1.0 + ((worker_id * 31 + index * 17) % 97) / 97.0) \
                * 4 * MB
            yield link.transfer(size)

    def main():
        yield all_of(sim, [
            sim.process(worker(i, per_stream + (1 if i < extra else 0)),
                        name=f"stream-{i}")
            for i in range(streams)])

    started = time.perf_counter()
    sim.run_process(main())
    wall = time.perf_counter() - started
    assert link.total_transfers == transfers
    return {
        "streams": streams,
        "transfers": transfers,
        "peak_streams": link.peak_streams,
        "wall_seconds": round(wall, 3),
        "events": sim.events_processed,
        "events_inlined": sim.events_inlined,
        "events_per_sec": int(sim.events_processed / wall),
        "simulated_seconds": round(sim.now, 3),
        "bytes_moved_gb": round(link.bytes_moved / 1e9, 3),
    }


def run_sweep(pipelines=("MP3", "FLAC")) -> dict:
    """Strategy sweep through the serial engine (profiling hot path)."""
    from repro.backends import SimulatedBackend
    from repro.exec import SweepEngine
    from repro.pipelines import get_pipeline
    engine = SweepEngine(SimulatedBackend())
    started = time.perf_counter()
    result = engine.sweep([get_pipeline(name) for name in pipelines])
    wall = time.perf_counter() - started
    throughputs = {
        f"{profile.strategy.pipeline_name}/{profile.strategy.split_name}":
            round(profile.throughput, 3)
        for profile in result.all_profiles()
    }
    return {
        "pipelines": list(pipelines),
        "strategies": result.job_count,
        "wall_seconds": round(wall, 3),
        "throughput_sps": throughputs,
    }


def run_sweep_full() -> dict:
    """The whole registry (slow; opt-in via ``--full``)."""
    from repro.pipelines import all_pipelines
    return run_sweep(tuple(spec.name for spec in all_pipelines()))
