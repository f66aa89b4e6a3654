"""A reference DES kernel for differential tests: every event is queued.

The executable specification of the schedule :mod:`repro.sim.events`
produces.  One heap ordered by ``(timestamp, sequence)`` holds every
triggered event: there is no same-instant FIFO, no next-in-line
resumption and no reusable timer -- a process's ``yield delay`` builds a
fresh :class:`~repro.sim.events.Timeout` at the yield.  It counts every
event it resolves, so its ``events_processed`` must equal the
production kernel's ``events_processed + events_inlined``.

Events, resources and links are the production classes.  They reach
the simulation only through ``_now``, ``_sequence``, ``_queue``,
``_fifo.append`` and ``next_in_line()``; here ``_fifo.append`` pushes
onto the heap at ``now`` and ``next_in_line()`` is always false, so
every grant and link completion takes the queued path.
"""

from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout


class _HeapLane:
    """Stands in for the same-instant FIFO: zero-delay events go onto
    the heap at the current instant, in sequence order."""

    __slots__ = ("sim",)

    def __init__(self, sim):
        self.sim = sim

    def append(self, entry):
        sequence, event = entry
        heappush(self.sim._queue, (self.sim._now, sequence, event))


class ReferenceProcess(Event):
    """A process that waits on events only; a float is a new Timeout."""

    __slots__ = ("_generator", "name")

    def __init__(self, sim, generator, name="process"):
        super().__init__(sim)
        self._generator = generator
        self.name = name
        bootstrap = Event(sim)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    def _resume(self, event):
        while True:
            try:
                if event._exception is not None:
                    target = self._generator.throw(event._exception)
                else:
                    target = self._generator.send(event._value)
            except StopIteration as stop:
                Event.succeed(self, stop.value)
                return
            except Exception as error:
                Event.fail(self, error)
                return
            if isinstance(target, float):
                try:
                    target = Timeout(self.sim, target)
                except SimulationError as error:
                    # Raised where ``yield Timeout(sim, delay)`` would
                    # have raised it: inside the generator.
                    event = Event(self.sim)
                    event._exception = error
                    continue
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded "
                    f"{type(target).__name__}, expected an Event or a "
                    f"non-negative float delay")
            if target.processed:
                event = target
                continue
            target.add_callback(self._resume)
            return


class ReferenceSimulation:
    """The heap-only event loop; see the module docstring."""

    events_inlined = 0

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._fifo = _HeapLane(self)
        self._sequence = 0
        self.events_processed = 0

    @property
    def now(self):
        return self._now

    def next_in_line(self):
        return False

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def process(self, generator, name="process"):
        return ReferenceProcess(self, generator, name)

    def run(self, until=None):
        """Resolve events in order; with ``until``, stop before the first
        event stamped later and leave the clock at ``until``."""
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now = until
                break
            timestamp, _, event = heappop(self._queue)
            if timestamp < self._now:
                raise SimulationError("time went backwards")
            self._now = timestamp
            self.events_processed += 1
            event._resolve()
        return self._now
