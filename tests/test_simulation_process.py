"""Tests for periodic processes and the simulation context/entity plumbing."""

import logging

import pytest

from repro.simulation.entity import Entity, SimulationContext
from repro.simulation.events import EventScheduler
from repro.simulation.process import PeriodicProcess


class TestPeriodicProcess:
    def test_ticks_at_period(self):
        scheduler = EventScheduler()
        ticks = []
        process = PeriodicProcess(scheduler, 1.0, ticks.append)
        process.start()
        scheduler.run_until(5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_initial_delay(self):
        scheduler = EventScheduler()
        ticks = []
        process = PeriodicProcess(scheduler, 2.0, ticks.append)
        process.start(initial_delay=0.5)
        scheduler.run_until(5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_stop_prevents_further_ticks(self):
        scheduler = EventScheduler()
        ticks = []
        process = PeriodicProcess(scheduler, 1.0, ticks.append)
        process.start()
        scheduler.run_until(2.0)
        process.stop()
        scheduler.run_until(5.0)
        assert ticks == [1.0, 2.0]
        assert not process.running

    def test_restart_resumes_relative_to_now(self):
        scheduler = EventScheduler()
        ticks = []
        process = PeriodicProcess(scheduler, 1.0, ticks.append)
        process.start()
        scheduler.run_until(2.0)
        process.stop()
        scheduler.run_until(10.0)
        process.start()
        scheduler.run_until(12.0)
        assert ticks == [1.0, 2.0, 11.0, 12.0]

    def test_invalid_period_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            PeriodicProcess(scheduler, 0.0, lambda t: None)

    def test_set_period_takes_effect_from_next_rescheduling(self):
        scheduler = EventScheduler()
        ticks = []
        process = PeriodicProcess(scheduler, 1.0, ticks.append)
        process.start()
        scheduler.run_until(1.0)
        # The tick at t=1 already re-scheduled itself with the old period, so
        # the new period only applies after the t=2 tick.
        process.set_period(2.0)
        scheduler.run_until(6.0)
        assert ticks == [1.0, 2.0, 4.0, 6.0]

    def test_tick_counter(self):
        scheduler = EventScheduler()
        process = PeriodicProcess(scheduler, 0.5, lambda t: None)
        process.start()
        scheduler.run_until(3.0)
        assert process.ticks == 6

    def test_double_start_is_idempotent(self):
        scheduler = EventScheduler()
        ticks = []
        process = PeriodicProcess(scheduler, 1.0, ticks.append)
        process.start()
        process.start()
        scheduler.run_until(2.0)
        assert ticks == [1.0, 2.0]


class TestSimulationContext:
    def test_run_for_advances_clock(self):
        context = SimulationContext(seed=1)
        context.run_for(3.0)
        assert context.now == 3.0

    def test_entities_register_by_name(self):
        context = SimulationContext(seed=1)
        entity = Entity(context, "thing")
        assert context.entity("thing") is entity
        assert entity in context.entities()

    def test_duplicate_entity_names_rejected(self):
        context = SimulationContext(seed=1)
        Entity(context, "thing")
        with pytest.raises(ValueError):
            Entity(context, "thing")

    def test_empty_entity_name_rejected(self):
        context = SimulationContext(seed=1)
        with pytest.raises(ValueError):
            Entity(context, "")

    def test_unknown_entity_lookup_raises(self):
        context = SimulationContext(seed=1)
        with pytest.raises(KeyError):
            context.entity("missing")

    def test_log_lines_go_to_the_stdlib_logger_stamped(self, caplog):
        context = SimulationContext(seed=1)
        entity = Entity(context, "logger")
        context.run_for(2.0)
        with caplog.at_level(logging.INFO, logger="repro.simulation"):
            entity.log("dropped: DEBUG is off")
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="repro.simulation"):
            entity.log("hello", value=3)
            context.log("elsewhere", "bare")
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("repro.simulation", logging.DEBUG)
        ] * 2
        assert caplog.messages == [
            "[t=2.000] logger: hello {'value': 3}",
            "[t=2.000] elsewhere: bare",
        ]

    def test_entity_random_streams_are_per_entity(self):
        context = SimulationContext(seed=1)
        a = Entity(context, "a")
        b = Entity(context, "b")
        assert a.random.uniform() != b.random.uniform()
