"""Tests for the discrete-event scheduling engine (repro.sched / simnet.events)."""

from __future__ import annotations

import pytest

from repro.sched.kernel import SimulationKernel
from repro.simnet.clock import SimClock
from repro.simnet.events import Event, EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            queue.push(t, lambda t=t: fired.append(t))
        while queue:
            queue.pop().action()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ties_break_by_priority_then_key_then_seq(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, priority=1, key="a")
        queue.push(1.0, lambda: None, priority=0, key="z")
        queue.push(1.0, lambda: None, priority=0, key="b")
        order = [queue.pop().key for _ in range(3)]
        assert order == ["b", "z", "a"]

    def test_equal_everything_preserves_insertion_order(self):
        queue = EventQueue()
        first = queue.push(2.0, lambda: None, key="x")
        second = queue.push(2.0, lambda: None, key="x")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        doomed = queue.push(1.0, lambda: None)
        kept = queue.push(2.0, lambda: None)
        doomed.cancel()
        assert len(queue) == 1
        assert queue.pop() is kept
        assert not queue

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        doomed = queue.push(1.0, lambda: None)
        queue.push(7.0, lambda: None)
        doomed.cancel()
        assert queue.peek_time() == 7.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, lambda: None)

    def test_stats_count_pushes_and_pops(self):
        queue = EventQueue()
        for t in range(4):
            queue.push(float(t), lambda: None)
        queue.pop()
        assert queue.stats == {"pushes": 4, "pops": 1}


class TestSimulationKernel:
    def test_clock_advances_to_event_times(self):
        kernel = SimulationKernel()
        seen = []
        kernel.schedule_at(3.0, lambda: seen.append(kernel.now()))
        kernel.schedule_at(1.0, lambda: seen.append(kernel.now()))
        kernel.run()
        assert seen == [1.0, 3.0]
        assert kernel.now() == 3.0

    def test_handlers_can_schedule_followups(self):
        kernel = SimulationKernel()
        fired = []

        def chain(n):
            fired.append((n, kernel.now()))
            if n < 3:
                kernel.schedule_after(2.0, lambda: chain(n + 1))

        kernel.schedule_at(1.0, lambda: chain(1))
        processed = kernel.run()
        assert processed == 3
        assert fired == [(1, 1.0), (2, 3.0), (3, 5.0)]

    def test_schedule_at_clamps_to_now(self):
        kernel = SimulationKernel(SimClock(start=10.0))
        event = kernel.schedule_at(4.0, lambda: None)
        assert event.time == 10.0

    def test_schedule_after_rejects_negative_delay(self):
        kernel = SimulationKernel()
        with pytest.raises(ValueError):
            kernel.schedule_after(-1.0, lambda: None)

    def test_run_until_leaves_future_events_queued(self):
        kernel = SimulationKernel()
        fired = []
        kernel.schedule_at(1.0, lambda: fired.append(1))
        kernel.schedule_at(9.0, lambda: fired.append(9))
        kernel.run(until=5.0)
        assert fired == [1]
        assert len(kernel.queue) == 1
        kernel.run()
        assert fired == [1, 9]

    def test_stop_halts_processing(self):
        kernel = SimulationKernel()
        fired = []
        kernel.schedule_at(1.0, lambda: (fired.append(1), kernel.stop()))
        kernel.schedule_at(2.0, lambda: fired.append(2))
        kernel.run()
        assert fired == [1]
        # A later run() resumes with whatever is still queued.
        kernel.run()
        assert fired == [1, 2]

    def test_actor_style_scheduling_is_deterministic(self):
        """The async-orchestration pattern: one event stream per actor."""

        def simulate():
            kernel = SimulationKernel()
            clocks = {name: SimClock() for name in ("c", "a", "b")}
            trace = []

            def act(name, remaining):
                trace.append((name, kernel.now()))
                # Heterogeneous, deterministic per-actor work durations.
                clocks[name].advance(1.0 + (ord(name) - ord("a")) * 0.5)
                if remaining > 1:
                    kernel.schedule_at(
                        clocks[name].now(), lambda: act(name, remaining - 1), key=name
                    )

            for name, clock in clocks.items():
                kernel.schedule_at(clock.now(), lambda n=name: act(n, 3), key=name)
            kernel.run()
            return trace

        first, second = simulate(), simulate()
        assert first == second
        # Simultaneous start events resolve in key (actor-name) order.
        assert [name for name, _ in first[:3]] == ["a", "b", "c"]
        # The earliest-clock actor always acts next, as in the old O(n) scan.
        assert first[3] == ("a", 1.0)

    def test_events_processed_counter(self):
        kernel = SimulationKernel()
        for t in range(5):
            kernel.schedule_at(float(t), lambda: None)
        kernel.run()
        assert kernel.events_processed == 5

    def test_sched_package_imports_before_core(self):
        # Regression: repro.core.__init__ imports the runner, which
        # imports repro.sched.policies — importing repro.sched *first* used to
        # blow up on the resulting cycle in a fresh interpreter.
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.sched; import repro.core; print('ok')"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
