"""The four host-time benchmark workloads, built on the pinned scenarios.

Every workload reuses a definition from
``benchmarks/perf/scenarios.py`` instead of forking it.  Only the seed
(as the trace or stream seed), the hot pipeline of ``serve_mix`` and the
request count of ``stream_burst`` are applied on top.  Seed 0 reproduces
the pinned scenario exactly, so its event count and makespan can be
checked against ``benchmarks/perf/baseline.json``.

A workload is split in two so the benchmark can time the parts apart:
``prepare(seed)`` generates the inputs and constructs the service
(set-up), and the returned :class:`Prepared` holds the ``run()`` call
whose host time is the benchmark's end-to-end measure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

from scenarios import (CTL_SCENARIOS, SERVE_SCENARIOS, STREAM_SCENARIOS,
                       build_trace)

#: Requests per tenant on ``stream_burst``.  The pinned ``stream64``
#: spec asks 48, which runs for a tenth of a second and is dominated by
#: set-up; 30x that gives the request body a run as long as serve's.
STREAM_BURST_REQUESTS = 1440

#: The hot pipeline ``serve64`` draws at seed 0.  Pinning it keeps the
#: traffic mix alike across seeds (the seed still draws every other
#: tenant's pipeline and priority); a per-seed draw moved events per
#: batch between 7.6 and 9.8.  The trace generator consumes its draw
#: either way, so seed 0 stays the pinned scenario.
SERVE_MIX_HOT = "NILM"


@dataclass
class Prepared:
    """A workload with its inputs built, ready for the timed ``run()``."""

    run: Callable[[], Any]
    #: Summarises the report ``run()`` returned as simulated statistics.
    stats: Callable[[Any], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``baseline.json`` section holding the scenario's seed-0 pin, or
    #: ``None`` where the scenario is resized and so has no pin.
    baseline_section: tuple | None
    prepare: Callable[[int], Prepared]


def _serve_stats(report) -> dict:
    return {
        "events": report.events_processed,
        "makespan_s": report.makespan,
        "aggregate_sps": report.aggregate_sps,
        "p99_epoch_s": report.p99_epoch_seconds,
        "cache_hit_ratio": report.cache_hit_ratio,
        "offline_runs": report.offline_runs,
        "offline_deduped": report.offline_deduped,
        "slo_violations": report.total_slo_violations,
        "tenants": [[job.spec.tenant, job.spec.pipeline, job.spec.split,
                     job.queue_delay, job.epoch_durations]
                    for job in report.tenants],
    }


def _prepare_serve(scenario: str, **pins) -> Callable[[int], Prepared]:
    def prepare(seed: int) -> Prepared:
        from repro.serve import PreprocessingService
        spec = SERVE_SCENARIOS[scenario]
        (policy,) = spec["policies"]
        trace = build_trace(**{**spec["trace"], **pins, "seed": seed})
        service = PreprocessingService(policy=policy, slots=spec["slots"],
                                       tie_break=spec.get("tie_break"))
        return Prepared(run=lambda: service.run(trace), stats=_serve_stats)
    return prepare


def _stream_stats(report) -> dict:
    return {
        "events": report.events_processed,
        "makespan_s": report.makespan,
        "p99_latency_s": report.p99_latency,
        "miss_fraction": report.miss_fraction,
        "requests": report.total_requests,
        "completed": report.total_completed,
        "shed": report.total_shed,
        "cache_hit_ratio": report.cache_hit_ratio,
        "tenants": [[tenant.spec.tenant, tenant.spec.pipeline,
                     tenant.spec.split, tenant.shed_count,
                     [record.completed for record in tenant.records]]
                    for tenant in report.tenants],
    }


def _prepare_stream(seed: int) -> Prepared:
    from repro.stream import StreamingService, generate_stream
    kwargs = dict(STREAM_SCENARIOS["stream64"])
    kwargs.update(seed=seed, requests=STREAM_BURST_REQUESTS)
    tenants = kwargs.pop("tenants")
    streams = generate_stream(tenants, **kwargs)
    service = StreamingService()
    return Prepared(run=lambda: service.run(streams, seed=seed),
                    stats=_stream_stats)


def _ctl_stats(report) -> dict:
    stats = _serve_stats(report.service)
    stats.update(
        fault_windows=len(report.service.fault_events),
        transfers_aborted=report.service.transfers_aborted,
        retries=report.total_retries,
        dead_lettered=report.dead,
        shed=report.total_shed,
        lost_epochs=report.total_lost_epochs,
        ledger=[[record.job_id, record.retries, record.lost_epochs,
                 record.shed] for record in report.records])
    return stats


def _prepare_ctl(seed: int) -> Prepared:
    from repro.ctl import Dispatcher
    from repro.faults import generate_fault_plan
    spec = CTL_SCENARIOS["ctl_ops_chaos32"]
    trace = build_trace(**{**spec["trace"], "seed": seed})
    # The seed varies the trace only.  The pinned fault plan stays: plans
    # drawn from other seeds change the work done by up to 40% (shed and
    # retried jobs), which would swamp any per-batch bound.
    plan = generate_fault_plan(**spec["faults"])
    dispatcher = Dispatcher(policy=spec["policy"], slots=spec["slots"],
                            faults=plan,
                            checkpoint_epochs=spec["checkpoint_epochs"],
                            shed_slo=spec["shed_slo"])
    return Prepared(run=lambda: dispatcher.run(trace), stats=_ctl_stats)


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("serve_mix", ("serve", "serve64", "cache-aware"),
                 _prepare_serve("serve64", hot_pipeline=SERVE_MIX_HOT)),
        Workload("serve_hot_raw", ("serve", "serve64_hot_raw", "cache-aware"),
                 _prepare_serve("serve64_hot_raw")),
        Workload("stream_burst", None, _prepare_stream),
        Workload("ctl_chaos", ("ctl", "ctl_ops_chaos32"), _prepare_ctl),
    )
}


def digest(stats: dict) -> str:
    """SHA-256 of the simulated statistics, floats at full precision."""
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check(workload: Workload, seed: int, stats: dict, root: str) -> list:
    """Correctness problems of one run's simulated statistics.

    Seed 0 is the pinned scenario, so its event count and makespan (and,
    on ``ctl_chaos``, its fault windows) must equal the pins in
    ``benchmarks/perf/baseline.json``.  Every ``stream_burst`` request
    must end completed or shed.
    """
    problems = []
    if workload.name == "stream_burst":
        expected = (STREAM_SCENARIOS["stream64"]["tenants"]
                    * STREAM_BURST_REQUESTS)
        if not stats["requests"] == expected == (stats["completed"]
                                                 + stats["shed"]):
            problems.append(
                f"{stats['requests']} requests, {stats['completed']} "
                f"completed, {stats['shed']} shed; expected {expected}")
    if seed == 0 and workload.baseline_section is not None:
        path = os.path.join(root, "benchmarks", "perf", "baseline.json")
        with open(path) as handle:
            pinned = json.load(handle)
        for key in workload.baseline_section:
            pinned = pinned[key]
        for key, value in sorted(pinned.items()):
            measured = stats[key]
            if isinstance(value, float):
                measured = round(measured, 3)
            if measured != value:
                problems.append(f"{key} is {measured}, pinned {value}")
    return problems
