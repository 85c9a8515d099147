"""The scheduler heap: time order, FIFO among equals, the zero-delay
rule the open loop's same-nanosecond order rests on."""

import pytest

from repro.engine.sched import Scheduler
from repro.errors import EngineError


class TestOrdering:
    def test_time_order(self):
        scheduler = Scheduler()
        log = []
        scheduler.schedule(50, lambda: log.append("late"))
        scheduler.schedule(10, lambda: log.append("early"))
        scheduler.run()
        assert log == ["early", "late"]

    def test_same_timestamp_runs_in_scheduling_order(self):
        """Heap ties break on the insertion sequence number, never on
        the (unorderable) action — FIFO among equals."""
        scheduler = Scheduler()
        log = []
        for index in range(20):
            scheduler.schedule(100, lambda i=index: log.append(i))
        scheduler.run()
        assert log == list(range(20))

    def test_zero_delay_event_runs_now_but_after_queued_peers(self):
        """An event scheduled at delay 0 from inside an action runs at
        the same timestamp, after events already queued for that
        instant."""
        scheduler = Scheduler()
        log = []

        def first():
            log.append(("first", scheduler.now_ns))
            scheduler.schedule(0, lambda: log.append(
                ("spawned", scheduler.now_ns)))

        scheduler.schedule(5, first)
        scheduler.schedule(5, lambda: log.append(
            ("second", scheduler.now_ns)))
        scheduler.run()
        assert log == [("first", 5), ("second", 5), ("spawned", 5)]

    def test_negative_delay_rejected(self):
        with pytest.raises(EngineError):
            Scheduler().schedule(-1, lambda: None)

    def test_event_cap_catches_livelock(self):
        scheduler = Scheduler()

        def respawn():
            scheduler.schedule(0, respawn)

        scheduler.schedule(0, respawn)
        with pytest.raises(EngineError):
            scheduler.run(max_events=50)
