"""A minimal discrete-event simulation kernel.

The kernel follows the simpy model without the dependency: a
:class:`Simulation` owns a priority queue of timestamped events, and a
:class:`Process` wraps a Python generator that ``yield``s events.  When a
yielded event triggers, the process resumes with the event's value.

Only the features the storage/CPU models need are implemented, which keeps
the kernel small enough to test exhaustively:

* :class:`Timeout` -- fires after a simulated delay.
* :class:`Event` -- manually triggered (used by resources and links).
* :class:`Process` -- itself an event that triggers when the generator
  returns, so processes can wait on each other.
* :func:`all_of` -- barrier over a list of events.

A process waits on an :class:`Event` (``yield event``) or for a delay
(``yield 2.5``), which means exactly ``yield sim.timeout(2.5)`` without
allocating the :class:`Timeout` (see :class:`Process`).

The hot path is deliberately allocation-light: callback lists are created
lazily (most events carry exactly one callback), scheduling is inlined
into :meth:`Event.succeed`/:class:`Timeout` instead of routing through a
helper, and the :meth:`Simulation.run` loop resolves events without a
per-event method-call chain.  :attr:`Simulation.events_processed` counts
resolved events; because the kernel is deterministic, that counter is a
machine-independent proxy for simulation cost (``make bench-check``).

A resource grant, link completion or timed wait that would be the very
next event popped resumes its waiter in-line instead of taking a queue
round trip (:meth:`Simulation.next_in_line`);
:attr:`Simulation.events_inlined` counts the skipped queue entries.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError

#: Type of the generators that drive processes: they yield events or
#: non-negative float delays.
ProcessGenerator = Generator["Event | float", Any, Any]


def _bad_delay(delay: Any) -> SimulationError:
    return SimulationError(
        f"delay must be a non-negative number, got {delay!r}")


class Event:
    """A one-shot occurrence inside a simulation.

    An event starts *pending*, is *triggered* exactly once with a value (or
    an exception), and then runs its callbacks when the simulation processes
    it.  Triggering twice is a bug and raises :class:`SimulationError`.

    ``callbacks`` is ``None`` until the first callback is attached, a bare
    callable while there is exactly one (the overwhelmingly common case,
    so the kernel avoids allocating a list per event), and a list only
    from the second callback on.  Use :meth:`add_callback` rather than
    touching the attribute directly.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered",
                 "_processed")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        #: ``None`` | a single callable | a list of callables.
        self.callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False   # value decided, queued for its timestamp
        self._processed = False   # timestamp reached, callbacks ran

    @property
    def triggered(self) -> bool:
        """Whether the event already fired (value available)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's timestamp has been reached by the clock."""
        return self._processed

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` (upgrading single-callback storage)."""
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` simulated seconds."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        # Validate before mutating: a rejected delay leaves the event
        # pending, so the caller may retry.
        if delay and not delay >= 0:
            raise _bad_delay(delay)
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._sequence += 1
        if delay:
            heappush(sim._queue, (sim._now + delay, sim._sequence, self))
        else:
            # Same-instant events skip the heap: the run loop merges this
            # FIFO with the heap in exact (timestamp, sequence) order.
            sim._fifo.append((sim._sequence, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay`` seconds."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        if delay and not delay >= 0:
            raise _bad_delay(delay)
        self._triggered = True
        self._exception = exception
        sim = self.sim
        sim._sequence += 1
        if delay:
            heappush(sim._queue, (sim._now + delay, sim._sequence, self))
        else:
            sim._fifo.append((sim._sequence, self))
        return self

    def _resolve(self) -> None:
        """Run callbacks; called by the simulation at the event's timestamp."""
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        elif self._exception is not None:
            # A failure nobody is watching must not vanish.
            raise self._exception


class Timeout(Event):
    """An event that fires automatically after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if not delay >= 0:   # also rejects NaN
            raise _bad_delay(delay)
        # Inlined Event.__init__ + scheduling: timeouts are the single most
        # allocated object in a run, and the super().__init__ chain plus a
        # _schedule call measurably slows the kernel.
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        sim._sequence += 1
        if delay:
            heappush(sim._queue, (sim._now + delay, sim._sequence, self))
        else:
            sim._fifo.append((sim._sequence, self))


class Process(Event):
    """Drives a generator; the process is an event that fires on return.

    The generator yields an :class:`Event` to wait for it, or a
    non-negative float to wait that many simulated seconds.  A float
    wait is scheduled on the process's one reusable timer at exactly the
    sequence point ``yield sim.timeout(delay)`` would have taken, so the
    two spellings give identical schedules; a negative or NaN delay is
    thrown into the generator as a :class:`SimulationError`, as the
    :class:`Timeout` constructor would have raised it there.

    A positive wait whose timer would be the very next event popped --
    the :meth:`Simulation.next_in_line` conditions, with the heap head
    strictly after the wait's end instead of after ``now`` -- ends
    in-line: the clock jumps to the end and the generator resumes
    without the queue round trip.  A wait ending past the ``until`` of
    the running :meth:`Simulation.run` is always queued.
    """

    __slots__ = ("_generator", "name", "_resume_cb", "_timer")

    def __init__(self, sim: "Simulation", generator: ProcessGenerator,
                 name: str = "process"):
        super().__init__(sim)
        self._generator = generator
        self.name = name
        # One bound method for the process lifetime instead of a fresh
        # bound-method object per yielded event.
        self._resume_cb = self._resume
        # The timer behind float waits: only this process ever waits on
        # it, and a process waits on one thing at a time, so one object
        # serves every wait.  Its first use is the bootstrap, which
        # resumes the generator once the simulation starts.
        timer = Event(sim)
        timer._triggered = True
        timer.callbacks = self._resume_cb
        self._timer = timer
        sim._sequence += 1
        sim._fifo.append((sim._sequence, timer))

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of the event that fired."""
        generator = self._generator
        while True:
            try:
                if event._exception is not None:
                    target = generator.throw(event._exception)
                else:
                    target = generator.send(event._value)
            except StopIteration as stop:
                super().succeed(stop.value)
                return
            except Exception as error:
                # A dying process becomes a *failed* event: watchers
                # (all_of barriers, joining processes) receive the
                # exception through the normal event path; if nobody is
                # watching, the run loop re-raises it as unhandled.
                super().fail(error)
                return
            if type(target) is float:
                delay = target
            else:
                try:
                    if target._processed:
                        # The event's timestamp already passed: resume
                        # in-line.
                        event = target
                        continue
                    callbacks = target.callbacks
                except AttributeError:
                    if not isinstance(target, float):
                        raise SimulationError(
                            f"process {self.name!r} yielded "
                            f"{type(target).__name__}, expected an Event "
                            f"or a non-negative float delay") from None
                    delay = float(target)   # e.g. numpy.float64
                else:
                    if callbacks is None:
                        target.callbacks = self._resume_cb
                    elif type(callbacks) is list:
                        callbacks.append(self._resume_cb)
                    else:
                        target.callbacks = [callbacks, self._resume_cb]
                    return
            if not delay >= 0:   # also rejects NaN
                event = Event(self.sim)
                event._exception = _bad_delay(delay)
                continue
            sim = self.sim
            timer = self._timer
            sim._sequence += 1
            if not delay:
                timer.callbacks = self._resume_cb
                sim._fifo.append((sim._sequence, timer))
                return
            when = sim._now + delay
            queue = sim._queue
            # Queue the timer unless it would be the next event popped
            # with nothing running before it (Simulation.next_in_line,
            # tested at ``when``).  The heap head is tested first: it
            # is what keeps most timed waits queued.
            if ((queue and queue[0][0] <= when) or sim._fifo
                    or not sim._may_inline or when > sim._until):
                timer.callbacks = self._resume_cb
                heappush(queue, (when, sim._sequence, timer))
                return
            sim._now = when
            sim._events_inlined += 1
            event = timer


class _AllOfState:
    """Shared completion state for :func:`all_of` (no per-event closures)."""

    __slots__ = ("barrier", "pending", "remaining")

    def __init__(self, barrier: Event, pending: list[Event]):
        self.barrier = barrier
        self.pending = pending
        self.remaining = len(pending)

    def on_event(self, event: Event) -> None:
        barrier = self.barrier
        if event._exception is not None:
            if not barrier._triggered:
                barrier.fail(event._exception)
            return
        self.remaining -= 1
        if self.remaining == 0 and not barrier._triggered:
            barrier.succeed([item._value for item in self.pending])


def all_of(sim: "Simulation", events: Iterable[Event]) -> Event:
    """Return an event that fires once every event in ``events`` has fired.

    The resulting value is the list of the individual event values in input
    order.  An empty iterable yields an immediately-triggered event.
    """
    pending = list(events)
    barrier = Event(sim)
    if not pending:
        return barrier.succeed([])
    state = _AllOfState(barrier, pending)
    on_event = state.on_event
    for event in pending:
        if event._processed:
            on_event(event)
        else:
            callbacks = event.callbacks
            if callbacks is None:
                event.callbacks = on_event
            elif type(callbacks) is list:
                callbacks.append(on_event)
            else:
                event.callbacks = [callbacks, on_event]
    return barrier


class Simulation:
    """The event loop: a clock plus a priority queue of pending events."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        #: Events triggered with zero delay while the clock sits at _now.
        #: They bypass the heap; the run loop merges both structures in
        #: exact (timestamp, sequence) order, so the fast lane is purely
        #: an allocation/heap-traffic optimisation.
        self._fifo: deque[tuple[int, Event]] = deque()
        self._sequence = 0
        self._processes_started = 0
        self._events_processed = 0
        self._events_inlined = 0
        #: True only while the run loop (or step) dispatches an event
        #: with a single callback: then nothing else runs between the
        #: current callback's return and the next pop (see next_in_line).
        self._may_inline = False
        #: The ``until`` of the running ``run()`` call: a timed wait
        #: ending later is never resumed in-line (see Process).
        self._until = inf

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events resolved since construction.

        The kernel is deterministic, so for a fixed workload this counter
        is identical across hosts and runs -- the CI perf smoke asserts it
        instead of flaky wall-clock numbers.
        """
        return self._events_processed

    @property
    def events_inlined(self) -> int:
        """Queue entries skipped by next-in-line resumption.

        Deterministic like :attr:`events_processed`;
        ``events_processed + events_inlined`` is the count of a kernel
        that queues every grant, link completion and timed wait.
        """
        return self._events_inlined

    def next_in_line(self) -> bool:
        """Whether an event triggered now would be the next one popped
        *and* nothing else would run before it.

        True when a single-callback dispatch is running, the same-instant
        FIFO is empty and the heap head lies strictly after ``now``.  An
        event triggered now would enter the FIFO, which then holds only
        it, and every later trigger gets a larger sequence number -- so
        it pops the moment the current callback returns.  Resuming its
        waiter in-line instead gives the identical schedule without the
        queue round trip; the caller counts it in ``_events_inlined``.
        A timed wait applies the same test to its end time instead of
        ``now``, within the running ``run(until)`` (see :class:`Process`).
        """
        if not self._may_inline or self._fifo:
            return False
        queue = self._queue
        return not queue or queue[0][0] > self._now

    # -- public construction helpers ---------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this simulation."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: str = "process") -> Process:
        """Start a process driven by ``generator``."""
        self._processes_started += 1
        return Process(self, generator, name=name)

    # -- execution ----------------------------------------------------------

    def _pop_next(self) -> Optional[Event]:
        """Pop the globally next event in (timestamp, sequence) order,
        advancing the clock; ``None`` when both structures are empty."""
        fifo = self._fifo
        queue = self._queue
        if fifo:
            # The heap never holds timestamps below _now, so a heap entry
            # only precedes the FIFO head when it is *at* _now with a
            # smaller sequence number (scheduled earlier).
            if queue:
                head = queue[0]
                if head[0] <= self._now and head[1] < fifo[0][0]:
                    timestamp, _, event = heappop(queue)
                    self._now = timestamp
                    return event
            return fifo.popleft()[1]
        if queue:
            timestamp, _, event = heappop(queue)
            if timestamp < self._now:
                raise SimulationError("time went backwards")
            self._now = timestamp
            return event
        return None

    def step(self) -> None:
        """Process the single next event."""
        event = self._pop_next()
        if event is None:
            raise IndexError("step from an empty simulation")
        self._events_processed += 1
        self._may_inline = type(event.callbacks) is not list
        try:
            event._resolve()
        finally:
            self._may_inline = False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Events stamped past ``until`` stay queued; the clock is left at
        ``until`` so a later ``run()`` call continues where this one
        stopped.  Returns the final simulated time.  An ``until`` that
        is NaN or before :attr:`now` raises :class:`SimulationError`
        and changes nothing: the clock never moves backwards.
        """
        if until is None:
            until = inf
        if not until >= self._now:   # also rejects NaN
            raise SimulationError(
                f"run(until={until!r}) must not be NaN or before "
                f"now={self._now!r}")
        queue = self._queue
        fifo = self._fifo
        events_processed = self._events_processed
        self._may_inline = True
        self._until = until
        try:
            while True:
                # Merge the same-instant FIFO with the heap in exact
                # (timestamp, sequence) order; see _pop_next (inlined here
                # because this loop dominates simulation cost).
                if fifo:
                    if queue:
                        head = queue[0]
                        if head[0] <= self._now and head[1] < fifo[0][0]:
                            event = heappop(queue)[2]
                        else:
                            event = fifo.popleft()[1]
                    else:
                        event = fifo.popleft()[1]
                elif queue:
                    timestamp = queue[0][0]
                    if timestamp > until:
                        self._now = until
                        break
                    event = heappop(queue)[2]
                    self._now = timestamp
                else:
                    break
                events_processed += 1
                event._processed = True
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    if type(callbacks) is list:
                        # Later callbacks run between an earlier one's
                        # return and the next pop: no in-lining here.
                        self._may_inline = False
                        for callback in callbacks:
                            callback(event)
                        self._may_inline = True
                    else:
                        callbacks(event)
                elif event._exception is not None:
                    # A failure nobody is watching must not vanish.
                    raise event._exception
        finally:
            self._events_processed = events_processed
            self._may_inline = False
            self._until = inf
        return self._now

    def run_process(self, generator: ProcessGenerator,
                    name: str = "main") -> Any:
        """Convenience: start a process, run to completion, return its value.

        Raises :class:`DeadlockError` if the queue drains before the process
        finishes (some event was never triggered).
        """
        process = self.process(generator, name=name)
        self.run()
        if not process.triggered:
            raise DeadlockError(
                f"simulation drained before process {name!r} completed"
            )
        if process._exception is not None:
            raise process._exception
        return process.value
