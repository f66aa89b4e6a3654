"""One repetition of one workload, in the interpreter that runs this file.

``run.py`` starts this script once per repetition, so every repetition
pays imports and module-level memos (such as the job-partition cache of
``repro.backends.simulated``) cold, as a user's process would.  It
prints one JSON object on its last line of standard output:

* host measures of the workload's ``run()`` call (wall and CPU seconds),
  the set-up time from process start to the first simulated event, and
  peak resident memory;
* the time of a fixed pure-Python event loop (the yardstick) taken
  just before and after the run, to measure the host's current speed;
* the simulated statistics and their digest, for the correctness check;
* with ``--profile``, per-layer self time and call counts from
  ``cProfile`` plus the public counters of every kernel object.

Nothing under ``src/`` is changed: counters are read from outside, by
recording the kernel objects as they are constructed, and the one
wrapper the profile needs (on ``Resource.acquire``) is installed here.

Usage::

    python3 benchmarks/hostbench/rep.py --workload serve_mix --seed 0 \
        --spawned "$(python3 -c 'import time; print(time.perf_counter())')"
"""

from __future__ import annotations

import argparse
import cProfile
import heapq
import json
import os
import pstats
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PERF = os.path.join(ROOT, "benchmarks", "perf")


class KernelObjects:
    """Records every kernel object built during the workload's run.

    Wraps the constructors of ``Simulation``, ``Resource`` (and so
    ``Lock``), ``SharedBandwidth`` and ``PageCache``, and notes when the
    first ``Simulation.run`` starts -- the first simulated event.
    """

    def __init__(self):
        from repro.sim.bandwidth import SharedBandwidth
        from repro.sim.events import Simulation
        from repro.sim.pagecache import PageCache
        from repro.sim.resources import Resource
        self.first_event_at = None
        self.simulations = []
        self.resources = []
        self.links = []
        self.caches = []
        for cls, sink in ((Simulation, self.simulations),
                          (Resource, self.resources),
                          (SharedBandwidth, self.links),
                          (PageCache, self.caches)):
            cls.__init__ = self._recording(cls.__init__, sink)
        run = Simulation.run

        def timed_run(sim, *args, **kwargs):
            if self.first_event_at is None:
                self.first_event_at = time.perf_counter()
            return run(sim, *args, **kwargs)
        Simulation.run = timed_run

    @staticmethod
    def _recording(init, sink):
        def recording_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            sink.append(obj)
        return recording_init

    def clear(self) -> None:
        for sink in (self.simulations, self.resources, self.links,
                     self.caches):
            sink.clear()

    def of_run(self):
        """The run's simulation and the resources and links bound to it."""
        if len(self.simulations) != 1:
            raise RuntimeError(
                f"expected one simulation, saw {len(self.simulations)}")
        (sim,) = self.simulations
        return (sim, [r for r in self.resources if r.sim is sim],
                [link for link in self.links if link.sim is sim])


class AcquireCounter:
    """Counts ``Resource.acquire`` calls and the grants that did not queue."""

    def __init__(self):
        from repro.sim.resources import Resource
        self.acquires = 0
        self.immediate = 0
        acquire = Resource.acquire

        def counting_acquire(res):
            grant = acquire(res)
            self.acquires += 1
            if grant.triggered:
                self.immediate += 1
            return grant
        Resource.acquire = counting_acquire


#: Yardstick size: 4,096 generators of 10 steps, about 0.1 s a round.
YARDSTICK_PROCESSES = 4096
YARDSTICK_STEPS = 10
YARDSTICK_ROUNDS = 5


class _YardstickEvent:
    """Stands in for a kernel event: a plain object resumed from a heap."""

    def __init__(self, delay):
        self.delay = delay
        self.resume = None
        self.processed = False


def yardstick_loop() -> int:
    """A fixed pure-Python event loop, independent of ``repro``.

    Generators yield event objects that a heap orders by time, as the
    simulator's kernel does, over thousands of live processes, so the
    loop's speed follows the host's speed for that kind of code.
    """
    def process(index):
        delay = 1.0 + (index % 13) / 13.0
        for _ in range(YARDSTICK_STEPS):
            yield _YardstickEvent(delay)

    heap = []
    sequence = 0

    def resume(now, generator):
        nonlocal sequence
        for event in generator:
            event.resume = generator
            sequence += 1
            heapq.heappush(heap, (now + event.delay, sequence, event))
            return

    for index in range(YARDSTICK_PROCESSES):
        resume(0.0, process(index))
    while heap:
        now, _, event = heapq.heappop(heap)
        event.processed = True
        resume(now, event.resume)
    return sequence


def yardstick() -> dict:
    """Median wall and CPU seconds of the yardstick loop.

    ``run.py`` divides the workload's times by the yardstick's, which
    cancels the drift of a shared host's speed between runs.
    """
    walls, cpus = [], []
    for _ in range(YARDSTICK_ROUNDS):
        cpu_started = time.process_time()
        started = time.perf_counter()
        yardstick_loop()
        walls.append(time.perf_counter() - started)
        cpus.append(time.process_time() - cpu_started)
    return {"wall_s": sorted(walls)[YARDSTICK_ROUNDS // 2],
            "cpu_s": sorted(cpus)[YARDSTICK_ROUNDS // 2]}


def check_drained(resources, links) -> list:
    """Conservation at the end of a run: nothing held, queued or moving."""
    problems = [f"resource {r.name!r} ends with {r.in_use} held, "
                f"{r.queued} queued"
                for r in resources if r.in_use or r.queued]
    problems += [f"link {link.name!r} ends with {link.active_streams} "
                 f"active transfers"
                 for link in links if link.active_streams]
    return problems


def profile_counters(stats, objects, acquires, report_stats) -> dict:
    """Per-layer self time and the counts the layer metrics are built on."""
    from layermap import call_count, group_profile
    from repro.sim.bandwidth import SharedBandwidth
    from repro.sim.events import Process, Timeout
    from repro.sim.pagecache import PageCache
    _, _, links = objects.of_run()
    caches = objects.caches
    grouped = group_profile(stats, SRC, exclude=HERE)
    return {
        "layer_self_s": grouped["self_s"],
        "layer_calls": grouped["calls"],
        "timeouts": call_count(stats, Timeout.__init__),
        "resumes": call_count(stats, Process._resume),
        "acquires": acquires.acquires,
        "immediate_grants": acquires.immediate,
        "transfers": sum(link.total_transfers for link in links),
        "wakes": call_count(stats, SharedBandwidth._on_wake),
        "peak_streams": max((link.peak_streams for link in links),
                            default=0),
        "cache_lookups": call_count(stats, PageCache.lookup),
        "cache_inserts": call_count(stats, PageCache.insert),
        "cache_hits": sum(cache.hits for cache in caches),
        "cache_misses": sum(cache.misses for cache in caches),
        "cache_evictions": sum(cache.evictions for cache in caches),
        "requests": report_stats.get("requests", 0),
        "shed": report_stats.get("shed", 0),
        "offline_runs": report_stats.get("offline_runs", 0),
        "offline_deduped": report_stats.get("offline_deduped", 0),
        "retries": report_stats.get("retries", 0),
        "fault_windows": report_stats.get("fault_windows", 0),
        "transfers_aborted": report_stats.get("transfers_aborted", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.perf_counter() just before this "
                             "process was started (a system-wide clock)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and record layer counts")
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, PERF]

    objects = KernelObjects()
    from workloads import WORKLOADS, check, digest
    workload = WORKLOADS[args.workload]
    prepared = workload.prepare(args.seed)
    acquires = AcquireCounter() if args.profile else None
    profiler = cProfile.Profile() if args.profile else None
    objects.clear()
    yardstick_started = time.perf_counter()
    before = yardstick()
    yardstick_wall = time.perf_counter() - yardstick_started
    cpu_started = time.process_time()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    report = prepared.run()
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    after = yardstick()

    sim, resources, links = objects.of_run()
    stats = prepared.stats(report)
    result = {
        "wall_s": wall,
        "yardstick": {key: (before[key] + after[key]) / 2
                      for key in before},
        "cpu_s": cpu,
        # The yardstick ran between set-up and the first event.
        "setup_s": objects.first_event_at - args.spawned - yardstick_wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": sim.events_processed,
        # The per-batch boundary: every per-batch job of the epoch body
        # and every stream request ends in exactly one grant of the
        # machine's dispatch lock.
        "batches": sum(r.total_acquisitions for r in resources
                       if r.name == "dispatch"),
        "problems": (check_drained(resources, links)
                     + check(workload, args.seed, stats, ROOT)),
        "stats": {key: value for key, value in stats.items()
                  if not isinstance(value, list)},
        "digest": digest(stats),
    }
    if profiler is not None:
        result["profile"] = profile_counters(
            pstats.Stats(profiler).stats, objects, acquires, stats)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
