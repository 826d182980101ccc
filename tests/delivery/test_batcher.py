"""Unit tests for the per-sink delivery batcher (repro.delivery.batcher)."""

import pytest

from repro.delivery.batcher import DeliveryBatcher
from repro.delivery.policy import BatchingPolicy
from repro.transport.clock import ClockScheduler, VirtualClock


def _collect(flushed):
    return lambda key, entries: flushed.append((key, list(entries)))


def _batcher(clock, policy, flushed):
    """A batcher whose window timers nothing pumps (size/explicit flushes)."""
    return DeliveryBatcher(
        clock, policy, _collect(flushed), scheduler=ClockScheduler(clock)
    )


class TestPolicy:
    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            BatchingPolicy(window=-1.0)

    def test_rejects_zero_max_batch(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)


class TestSizeTrigger:
    def test_flushes_when_group_reaches_max_batch(self):
        flushed = []
        batcher = _batcher(
            VirtualClock(), BatchingPolicy(window=0.0, max_batch=3), flushed
        )
        for i in range(3):
            batcher.add("sink", i)
        assert flushed == [("sink", [0, 1, 2])]
        assert batcher.pending() == 0

    def test_groups_are_independent(self):
        flushed = []
        batcher = _batcher(
            VirtualClock(), BatchingPolicy(window=0.0, max_batch=2), flushed
        )
        batcher.add("a", 1)
        batcher.add("b", 2)
        assert flushed == []
        batcher.add("a", 3)
        assert flushed == [("a", [1, 3])]
        assert batcher.pending() == 1


class TestPublishBoundary:
    def test_zero_window_flush_publish_drains_everything(self):
        flushed = []
        batcher = _batcher(
            VirtualClock(), BatchingPolicy(window=0.0, max_batch=100), flushed
        )
        batcher.add("a", 1)
        batcher.add("b", 2)
        batcher.flush_publish()
        assert flushed == [("a", [1]), ("b", [2])]

    def test_positive_window_flush_publish_holds_groups(self):
        flushed = []
        clock = VirtualClock()
        batcher = _batcher(
            clock, BatchingPolicy(window=5.0, max_batch=100), flushed
        )
        batcher.add("a", 1)
        batcher.flush_publish()  # windowed mode: the deadline decides
        assert flushed == []
        assert batcher.pending() == 1


class TestWindowTrigger:
    def test_deadline_flushes_on_virtual_clock(self):
        flushed = []
        clock = VirtualClock()
        scheduler = ClockScheduler(clock)
        batcher = DeliveryBatcher(
            clock,
            BatchingPolicy(window=5.0, max_batch=100),
            _collect(flushed),
            scheduler=scheduler,
        )
        batcher.add("a", 1)
        batcher.add("a", 2)
        scheduler.run_due()
        assert flushed == []  # window not expired yet
        clock.advance(5.0)
        scheduler.run_due()
        assert flushed == [("a", [1, 2])]

    def test_stale_timer_after_size_flush_is_ignored(self):
        flushed = []
        clock = VirtualClock()
        scheduler = ClockScheduler(clock)
        batcher = DeliveryBatcher(
            clock,
            BatchingPolicy(window=5.0, max_batch=2),
            _collect(flushed),
            scheduler=scheduler,
        )
        batcher.add("a", 1)
        batcher.add("a", 2)  # size trigger flushes now; timer for t=5 is stale
        assert flushed == [("a", [1, 2])]
        # a new group forms before the old deadline fires: the stale timer
        # must not flush it early
        clock.advance(2.0)
        batcher.add("a", 3)  # its own window ends at t=7
        clock.advance(3.0)  # t=5: the stale timer fires and must do nothing
        scheduler.run_due()
        assert flushed == [("a", [1, 2])]
        clock.advance(2.0)  # t=7: the group's own deadline
        scheduler.run_due()
        assert flushed == [("a", [1, 2]), ("a", [3])]

    def test_flush_all_cancels_deadlines(self):
        flushed = []
        clock = VirtualClock()
        scheduler = ClockScheduler(clock)
        batcher = DeliveryBatcher(
            clock,
            BatchingPolicy(window=5.0, max_batch=100),
            _collect(flushed),
            scheduler=scheduler,
        )
        batcher.add("a", 1)
        batcher.flush_all()
        assert flushed == [("a", [1])]
        clock.advance(10.0)
        scheduler.run_due()  # expired deadline finds nothing to flush
        assert flushed == [("a", [1])]


class TestStats:
    def test_counts_flushes_and_largest_batch(self):
        flushed = []
        batcher = _batcher(
            VirtualClock(), BatchingPolicy(window=0.0, max_batch=3), flushed
        )
        for i in range(3):
            batcher.add("a", i)
        batcher.add("b", 0)
        batcher.flush_publish()
        assert batcher.stats.snapshot() == {
            "flushes": 2,
            "coalesced": 4,
            "largest_batch": 3,
        }
