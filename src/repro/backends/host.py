"""The one simulation host every DES workload runs on.

:class:`SimHost` owns what the single-job backend, the multi-tenant
service (and so the control plane) and the streaming service used to
set up each on their own: one :class:`~repro.sim.events.Simulation`,
the calibrated :class:`~repro.sim.cpu.Machine`, the
:class:`~repro.sim.cluster.StorageCluster` with its fair per-stream
read share, the chaos engine, the metrics sampler, the timed drain and
the run-cost stamp on the report.  The workloads keep only their own
admission and scheduling logic.

Process creation order is event order, so :meth:`SimHost.start` runs
after the workload has created its own processes: fault windows first,
then the sampler -- the order every host has always used.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Generator, Sequence

from repro import calibration as cal
from repro.backends.base import Environment
from repro.errors import ProfilingError, SimulationError
from repro.sim.cluster import StorageCluster
from repro.sim.cpu import Machine
from repro.sim.events import Event, Process, Simulation


def check_metrics_interval(metrics, interval: float) -> None:
    """Reject a sampler cadence that is not a finite positive number
    (``inf`` would stamp a snapshot at ``t=inf``; ``nan`` would reach
    the kernel's delay check mid-run)."""
    if metrics is not None and not (math.isfinite(interval)
                                    and interval > 0):
        raise ProfilingError(
            f"metrics_interval must be a finite positive number, "
            f"got {interval}")


class SimHost:
    """One simulated VM plus object store, and the run lifecycle on it.

    ``widest`` is the largest reader count of any job on the host (a
    job's threads, a stream's workers): the read link's per-stream rate
    is pinned to the fair share ``aggregate_bw / widest``, capped by the
    device's stream rate.  Ceph serves a fixed striping share per client
    stream once many readers are configured, so partially idle readers
    do not transiently exceed it, and a lone job sees exactly the rates
    of the paper's per-strategy network read speeds.

    ``faults``, ``metrics`` and ``tracer`` are null by default; with them
    off the host schedules zero extra kernel events.
    """

    def __init__(self, environment: Environment, widest: int,
                 tie_break: str = "admission", faults=None, metrics=None,
                 metrics_interval: float = 60.0, tracer=None):
        self.environment = environment
        self.sim = sim = Simulation()
        self.machine = Machine(
            sim, cores=environment.cores,
            ram_bytes=environment.ram_bytes,
            page_cache_bytes=cal.PAGE_CACHE_FRACTION * environment.ram_bytes,
            memory_bw=environment.memory_bw,
            memory_stream_bw=environment.memory_stream_bw,
            dispatch_cost=cal.DISPATCH_COST,
            dispatch_convoy=cal.DISPATCH_CONVOY,
            gil_convoy=cal.GIL_CONVOY)
        storage = environment.storage
        self.cluster = StorageCluster(sim, storage,
                                      memory_link=self.machine.memory_link,
                                      tie_break=tie_break)
        self.cluster.read_link.per_stream_bw = min(
            storage.stream_bw, storage.aggregate_bw / widest)
        self.fault_plan = faults
        self.metrics = metrics
        self.metrics_interval = metrics_interval
        self.tracer = tracer
        #: The chaos engine, built by :meth:`start` when a plan is set.
        self.fault_engine = None
        self.wall_seconds = 0.0

    def start(self, live: Callable[[], bool],
              sample: Callable[[object], None]) -> None:
        """Spawn the fault windows, then the metrics sampler.

        The engine snapshots the pinned link capacity as nominal.  The
        sampler ticks every ``metrics_interval`` while ``live()`` holds,
        calling ``sample(registry)`` before each snapshot.
        """
        if self.fault_plan:
            from repro.faults.engine import FaultEngine
            self.fault_engine = FaultEngine(
                self.fault_plan, self.sim, self.machine, self.cluster,
                metrics=self.metrics, tracer=self.tracer)
            self.fault_engine.start()
        if self.metrics is not None:
            self.sim.process(self._sampler(live, sample),
                             name="metrics-sampler")

    def _sampler(self, live: Callable[[], bool],
                 sample: Callable[[object], None]
                 ) -> Generator[Event, None, None]:
        sim = self.sim
        registry = self.metrics
        interval = self.metrics_interval
        while live():
            yield sim.timeout(interval)
            sample(registry)
            registry.snapshot(sim.now)

    def sample_cluster(self, registry) -> None:
        """Set the link, cache, metadata, kernel and fault gauges.  Pure
        reads of existing state -- never schedules events."""
        link = self.cluster.read_link
        registry.gauge("link.active_streams").set(link.active_streams)
        aggregate = self.environment.storage.aggregate_bw
        registry.gauge("link.utilization").set(
            link.current_throughput() / aggregate if aggregate else 0.0)
        cache = self.machine.page_cache
        registry.gauge("cache.hit_rate").set(cache.hit_rate)
        registry.gauge("cache.used_bytes").set(cache.used_bytes)
        registry.gauge("cache.evictions").set(cache.evictions)
        metadata = self.cluster.metadata
        registry.gauge("metadata.in_use").set(metadata.in_use)
        registry.gauge("metadata.queued").set(metadata.queued)
        registry.gauge("kernel.events_processed").set(
            self.sim.events_processed)
        engine = self.fault_engine
        if engine is not None:
            registry.gauge("faults.active").set(engine.active_count)
            # Blackouts make the bound unreachable; clamp for exporters.
            registry.gauge("faults.capacity_stretch").set(
                min(engine.capacity_stretch(), 1e6))

    def drain(self, processes: Sequence[Process], names: Sequence[str],
              message: str) -> None:
        """Run the simulation dry and check the workload's processes.

        Raises :class:`~repro.errors.SimulationError` (``message`` plus
        the names of the processes left parked) when one never finished,
        and re-raises the first failed process's own exception.  The
        host wall seconds ``sim.run()`` took go to :meth:`stamp`.
        """
        started = time.perf_counter()
        self.sim.run()
        self.wall_seconds = time.perf_counter() - started
        unfinished = [name for name, process in zip(names, processes)
                      if not process.triggered]
        if unfinished:
            raise SimulationError(f"{message}: {unfinished}")
        for process in processes:
            if process._exception is not None:
                raise process._exception

    def stamp(self, report) -> None:
        """Copy the run-cost and chaos counters onto ``report``."""
        sim = self.sim
        report.events_processed = sim.events_processed
        report.events_inlined = sim.events_inlined
        report.metadata_peak_in_use = self.cluster.metadata.peak_in_use
        report.page_cache_evictions = self.machine.page_cache.evictions
        report.wall_seconds = self.wall_seconds
        engine = self.fault_engine
        if engine is not None:
            report.fault_events = list(engine.events)
            report.transfers_aborted = engine.transfers_aborted
