"""Unit tests for the discrete-event core."""

import pytest

from repro.errors import SimulationError
from repro.sim import events
from repro.sim.events import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        end = sim.run()
        assert log == ["a", "b", "c"]
        assert end == 3.0

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 3.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()

        def bad():
            sim.schedule_at(0.5, lambda: None)

        sim.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_runaway_guard(self, monkeypatch):
        monkeypatch.setattr(events, "MAX_EVENTS", 100)
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run()

    def test_clock_monotone(self):
        sim = Simulator()
        times = []
        for d in [5.0, 1.0, 3.0, 1.0]:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
