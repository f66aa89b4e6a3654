"""Capacity-limited resources for the simulation kernel.

Two primitives cover every contention point in the storage/CPU model:

* :class:`Resource` -- a counting semaphore with a FIFO wait queue (CPU
  cores, metadata-server slots, concurrent-seek slots).
* :class:`Lock` -- a single-slot resource with an optional *convoy
  overhead*: each acquisition costs extra time proportional to the number
  of waiters.  This models the context-switch convoy the paper observed for
  tiny samples (Sec. 4.4 observation 1: 100,000 context switches/s at
  0.01 MB samples erase the benefit of multi-threading).
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.errors import ResourceError
from repro.sim.events import Event, Simulation


class Resource:
    """A counting semaphore with FIFO granting.

    Usage inside a process::

        yield resource.acquire()
        try:
            yield service_time        # or: yield sim.timeout(service_time)
        finally:
            resource.release()

    An uncontended grant whose event would be the next one popped
    (:meth:`Simulation.next_in_line`) is handed out as the resource's
    shared, already-processed grant event, so the waiting process
    resumes in-line; the slot bookkeeping is identical either way.
    """

    def __init__(self, sim: Simulation, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        # Counters for dstat-style introspection.
        self.total_acquisitions = 0
        self.peak_in_use = 0
        #: The grant handed out by next-in-line acquisitions: triggered
        #: and processed with this resource as its value, so a process
        #: yielding it resumes at once.
        granted = Event(sim)
        granted._triggered = granted._processed = True
        granted._value = self
        self._granted = granted

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        in_use = self._in_use
        sim = self.sim
        if in_use < self.capacity:
            # Uncontended acquisition: grant the slot immediately.
            in_use += 1
            self._in_use = in_use
            self.total_acquisitions += 1
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            if sim.next_in_line():
                sim._events_inlined += 1
                return self._granted
            return Event(sim).succeed(self)
        grant = Event(sim)
        self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Release a previously-acquired slot."""
        in_use = self._in_use
        if in_use <= 0:
            raise ResourceError(f"release of idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # Hand the slot straight to the next waiter.
            self.total_acquisitions += 1
            waiters.popleft().succeed(self)
        else:
            self._in_use = in_use - 1

    def use(self, service_time: float
            ) -> Generator[Event | float, None, None]:
        """Process helper: acquire, hold for ``service_time``, release."""
        yield self.acquire()
        try:
            yield service_time
        finally:
            self.release()


class Lock(Resource):
    """A mutex with an optional per-waiter convoy overhead.

    ``convoy_overhead`` adds that many seconds to every *hold* for each
    process queued behind the lock at grant time, capped by
    ``max_convoy_waiters``.  With 8 threads hammering a 110 us dispatch
    lock this reproduces the near-1x speedup the paper measured for
    0.01 MB samples (Fig. 11) without special-casing sample sizes.
    """

    def __init__(self, sim: Simulation, name: str = "lock",
                 convoy_overhead: float = 0.0, max_convoy_waiters: int = 8):
        super().__init__(sim, capacity=1, name=name)
        self.convoy_overhead = convoy_overhead
        self.max_convoy_waiters = max_convoy_waiters

    def contention_penalty(self) -> float:
        """Extra hold time induced by the current queue length."""
        waiters = min(self.queued, self.max_convoy_waiters)
        return waiters * self.convoy_overhead

    def hold(self, base_time: float
             ) -> Generator[Event | float, None, None]:
        """Acquire, hold for ``base_time`` plus convoy penalty, release."""
        yield self.acquire()
        try:
            waiters = len(self._waiters)
            if waiters > self.max_convoy_waiters:
                waiters = self.max_convoy_waiters
            yield base_time + waiters * self.convoy_overhead
        finally:
            self.release()

    def hold_scaled(self, per_unit_time: float, units: float
                    ) -> Generator[Event | float, None, None]:
        """Hold for ``units`` work items, paying convoy overhead *per unit*.

        Used when samples are batched into jobs: a job of k samples holds
        the lock once but still pays k context-switch penalties, so the
        batching optimisation of the simulator does not dilute contention.
        """
        yield self.acquire()
        try:
            waiters = len(self._waiters)
            if waiters > self.max_convoy_waiters:
                waiters = self.max_convoy_waiters
            per_unit = per_unit_time + waiters * self.convoy_overhead
            yield units * per_unit
        finally:
            self.release()
