"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Environment, Interrupt


class TestTimeoutsAndClock:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_single_timeout_advances_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(5.0)
            return env.now

        result = env.run(env.process(proc()))
        assert result == 5.0
        assert env.now == 5.0

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        log = []

        def proc():
            for delay in [1.0, 2.0, 3.5]:
                yield env.timeout(delay)
                log.append(env.now)

        env.run(env.process(proc()))
        assert log == [1.0, 3.0, 6.5]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_run_until_time(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(10.0)
            fired.append(env.now)

        env.process(proc())
        env.run(until=5.0)
        assert fired == []
        assert env.now == 5.0
        env.run(until=20.0)
        assert fired == [10.0]


class TestProcessInteraction:
    def test_two_processes_interleave(self):
        env = Environment()
        order = []

        def fast():
            yield env.timeout(1.0)
            order.append("fast")

        def slow():
            yield env.timeout(2.0)
            order.append("slow")

        env.process(slow())
        env.process(fast())
        env.run()
        assert order == ["fast", "slow"]

    def test_yielding_process_waits_for_return_value(self):
        env = Environment()

        def child():
            yield env.timeout(3.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return result, env.now

        assert env.run(env.process(parent())) == ("child-result", 3.0)

    def test_events_wake_waiters_with_value(self):
        env = Environment()
        gate = env.event()

        def waiter():
            value = yield gate
            return value

        def opener():
            yield env.timeout(4.0)
            gate.succeed("opened")

        env.process(opener())
        assert env.run(env.process(waiter())) == "opened"

    def test_failed_event_raises_in_waiter(self):
        env = Environment()
        gate = env.event()

        def waiter():
            try:
                yield gate
            except ValueError as exc:
                return f"caught:{exc}"

        def failer():
            yield env.timeout(1.0)
            gate.fail(ValueError("boom"))

        env.process(failer())
        assert env.run(env.process(waiter())) == "caught:boom"

    def test_process_exception_propagates_to_run(self):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise RuntimeError("broken process")

        with pytest.raises(RuntimeError, match="broken process"):
            env.run(env.process(broken()))

    def test_all_of_waits_for_every_event(self):
        env = Environment()

        def proc():
            timeouts = [env.timeout(t, value=t) for t in (1.0, 4.0, 2.0)]
            yield env.all_of(timeouts)
            return env.now

        assert env.run(env.process(proc())) == 4.0

    def test_any_of_returns_at_first_event(self):
        env = Environment()

        def proc():
            timeouts = [env.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
            yield env.any_of(timeouts)
            return env.now

        assert env.run(env.process(proc())) == 1.0


    def test_steps_tell_whether_a_delegate_yielded(self):
        env = Environment()
        seen = []

        def ready():
            return "now"
            yield  # a generator that finishes on its first resume

        def waits():
            yield env.timeout(0)
            return "later"

        def proc():
            for delegate in (ready, waits):
                before = env.steps
                value = yield from delegate()
                seen.append((value, env.steps != before))

        env.run(env.process(proc()))
        assert seen == [("now", False), ("later", True)]


class TestInterrupts:
    def test_interrupt_preempts_timeout(self):
        env = Environment()

        def victim():
            try:
                yield env.timeout(100.0)
                return "finished"
            except Interrupt as interrupt:
                return f"interrupted:{interrupt.cause}@{env.now}"

        def killer(target):
            yield env.timeout(5.0)
            target.interrupt("failure")

        victim_proc = env.process(victim())
        env.process(killer(victim_proc))
        assert env.run(victim_proc) == "interrupted:failure@5.0"

    def test_interrupt_after_completion_is_noop(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)
            return "done"

        proc = env.process(quick())
        env.run(proc)
        proc.interrupt("late")  # must not raise
        assert proc.value == "done"

    def test_interrupted_process_can_continue(self):
        env = Environment()

        def resilient():
            try:
                yield env.timeout(50.0)
            except Interrupt:
                pass
            yield env.timeout(2.0)
            return env.now

        def killer(target):
            yield env.timeout(10.0)
            target.interrupt()

        proc = env.process(resilient())
        env.process(killer(proc))
        assert env.run(proc) == 12.0


class TestErrorHandling:
    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_run_until_untriggered_event_with_empty_queue(self):
        env = Environment()
        orphan = env.event()
        with pytest.raises(SimulationError):
            env.run(orphan)
