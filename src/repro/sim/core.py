"""Core of the discrete-event simulation kernel.

The model follows SimPy closely:

* An :class:`Environment` owns a virtual clock and an event queue.
* A *process* is a Python generator.  Each ``yield`` hands an :class:`Event`
  back to the environment; the process resumes when that event succeeds (the
  event's value is sent into the generator) or fails (the failure exception is
  thrown into the generator).
* :class:`Timeout` is an event that succeeds after a fixed delay.
* Processes are themselves events: yielding a process waits for it to finish
  and receives its return value.
* :meth:`Process.interrupt` throws :class:`Interrupt` into a waiting process,
  which is how worker failures preempt in-flight tasks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.common.errors import SimulationError

#: Sentinel used internally for "event has not yet been given a value".
_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Internal: carries a process return value out of a generator."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*, then either *succeeds* with a value or *fails*
    with an exception.  Callbacks registered on the event run when it is
    processed by the environment's event loop.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value or failure."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event value accessed before it was triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that succeeds ``delay`` time units after it is created."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class _ConditionValue(dict):
    """Mapping of event -> value produced by :class:`AllOf` / :class:`AnyOf`."""


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._finished = 0
        if not self._events:
            self.succeed(_ConditionValue())
            return
        for event in self._events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._finished += 1
        if self._satisfied():
            result = _ConditionValue()
            for child in self._events:
                if child.triggered and child.ok:
                    result[child] = child.value
            self.succeed(result)


class AllOf(_Condition):
    """Succeeds when every child event has succeeded."""

    def _satisfied(self) -> bool:
        return self._finished == len(self._events)


class AnyOf(_Condition):
    """Succeeds as soon as any child event succeeds."""

    def _satisfied(self) -> bool:
        return self._finished >= 1


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    A process is also an event: it triggers when the generator returns (with
    the generator's return value) or raises (with the exception).
    """

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("Process requires a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the process has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait point."""
        if self.triggered:
            return
        interrupt_event = Event(self.env)
        interrupt_event._interrupt_cause = cause  # type: ignore[attr-defined]
        interrupt_event.callbacks.append(self._resume_interrupt)
        interrupt_event.succeed(cause)

    def _detach_from_target(self) -> None:
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            return
        self._detach_from_target()
        self._step(Interrupt(event.value), is_exception=True)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return
        self._target = None
        if event.ok:
            self._step(event.value, is_exception=False)
        else:
            self._step(event.value, is_exception=True)

    def _step(self, value: Any, is_exception: bool) -> None:
        self.env._active_process = self
        try:
            if is_exception:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except StopProcess as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self.env._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.succeed_with_failure(exc)
            return
        finally:
            self.env._active_process = None

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an Event"
            )
        if target.processed:
            # The event already happened; resume immediately via a zero-delay
            # bootstrap event to keep the loop iterative (no recursion).
            bridge = Event(self.env)
            bridge._ok = target._ok
            bridge._value = target._value
            bridge.callbacks.append(self._resume)
            self.env._schedule(bridge)
            self._target = bridge
        else:
            target.callbacks.append(self._resume)
            self._target = target

    def succeed_with_failure(self, exc: BaseException) -> None:
        """Finish the process by failing its completion event with ``exc``."""
        if self.triggered:
            return
        self._ok = False
        self._value = exc
        self.env._schedule(self)


class Environment:
    """Owns the virtual clock and runs the event loop."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List = []
        self._counter = itertools.count()
        self._active_process: Optional[Process] = None
        #: Events processed so far.  A process that reads the same value
        #: before and after a ``yield from`` knows the delegate never yielded.
        self.steps = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds after ``delay`` virtual seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event succeeding when all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event succeeding when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one scheduled event."""
        if not self._queue:
            raise SimulationError("cannot step an empty event queue")
        when, _tie, event = heapq.heappop(self._queue)
        self._now = when
        self.steps += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the event loop.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until the clock reaches that time) or an :class:`Event` (run
        until that event is processed, returning its value or raising its
        failure).
        """
        if isinstance(until, Event):
            stop_event = until
            while not stop_event.processed:
                if not self._queue:
                    raise SimulationError(
                        "event loop drained before the awaited event triggered"
                    )
                self.step()
            if stop_event.ok:
                return stop_event.value
            raise stop_event.value
        if until is None:
            while self._queue:
                self.step()
            return None
        deadline = float(until)
        while self._queue and self.peek() <= deadline:
            self.step()
        self._now = max(self._now, deadline)
        return None
