"""The bounded trap log: a fixed ring of recent events plus exact counters.

``TrapStats.events`` holds only the last :data:`TRAP_LOG_CAPACITY`
events; ``logged`` counts every event recorded (net of rewinds) and
``dropped`` the ones the ring no longer holds.  These tests pin the ring
at and past its capacity, through the state protocol and the epoch
rewind, and bound a real runaway chaos cell's log without a timer.
"""

from collections import Counter

import pytest

from repro.core.miralis import Miralis
from repro.faults import chaos
from repro.hart.machine import Machine
from repro.hart import stats as stats_module
from repro.hart.stats import TRAP_LOG_CAPACITY, TrapStats
from repro.statecopy import copy_state


def _record(stats, mtime, hart=0):
    return stats.record_trap(hart=hart, cause=9, is_interrupt=False,
                             from_mode=None, mtime=mtime)


def _filled(count):
    stats = TrapStats()
    for mtime in range(count):
        _record(stats, mtime)
    return stats


def _mtimes(events):
    return [event.mtime for event in events]


def _annotation_counts(stats):
    """What ``handler_counts`` must equal for a log that dropped nothing."""
    return Counter(event.handler for event in stats.events
                   if event.handler != "unclassified")


def _machines(monkeypatch):
    """Collect every :class:`Machine` built from here on (``run_chaos``
    returns only its result)."""
    built = []
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Machine, "__init__", init)
    return built


class TestWrap:
    def test_below_capacity_nothing_is_dropped(self):
        stats = _filled(100)
        assert stats.logged == len(stats.events) == 100
        assert stats.dropped == 0
        assert _mtimes(stats.tail(3)) == [97, 98, 99]
        assert _mtimes(stats.tail(1_000)) == list(range(100))

    def test_capacity_plus_k(self):
        k = 37
        stats = _filled(TRAP_LOG_CAPACITY + k)
        assert len(stats.events) == TRAP_LOG_CAPACITY
        assert stats.logged == TRAP_LOG_CAPACITY + k
        assert stats.dropped == k
        assert stats.total_traps == TRAP_LOG_CAPACITY + k
        assert stats.events[0].mtime == k
        assert _mtimes(stats.tail(5)) == list(
            range(TRAP_LOG_CAPACITY + k - 5, TRAP_LOG_CAPACITY + k))
        assert _mtimes(stats.tail(TRAP_LOG_CAPACITY + k)) == list(
            range(k, TRAP_LOG_CAPACITY + k))
        assert stats.tail(0) == []

    def test_no_log_keeps_nothing(self):
        stats = TrapStats(keep_events=False)
        _record(stats, 1)
        assert stats.logged == stats.dropped == len(stats.events) == 0
        assert stats.total_traps == 1

    def test_whole_log_readers_refuse_a_wrapped_log(self):
        stats = _filled(TRAP_LOG_CAPACITY + 1)
        with pytest.raises(ValueError, match="dropped 1 of"):
            stats.detail_counts()

    def test_reset_empties_the_count(self):
        stats = _filled(TRAP_LOG_CAPACITY + 3)
        stats.reset()
        assert stats.logged == stats.dropped == len(stats.events) == 0


class TestStateProtocol:
    def test_unwrapped_document_has_no_count(self):
        assert "logged" not in _filled(10).snapshot_state()

    def test_wrapped_round_trip(self):
        stats = _filled(TRAP_LOG_CAPACITY + 50)
        state = stats.snapshot_state()
        assert state["logged"] == TRAP_LOG_CAPACITY + 50
        fresh = TrapStats()
        fresh.restore_state(state)
        assert fresh.logged == stats.logged
        assert fresh.dropped == 50
        assert list(fresh.events) == list(stats.events)
        assert fresh.events.maxlen == TRAP_LOG_CAPACITY
        assert fresh.snapshot_state() == state

    def test_restore_without_count_takes_the_document_length(self):
        state = _filled(10).snapshot_state()
        fresh = _filled(TRAP_LOG_CAPACITY + 5)
        fresh.restore_state(state)
        assert fresh.logged == 10
        assert fresh.dropped == 0


class TestRewind:
    def test_rewind_within_the_ring(self):
        stats = _filled(100)
        epoch = stats.mark_epoch()
        assert epoch["events_len"] == 100
        for mtime in range(100, 150):
            _record(stats, mtime)
        stats.rewind_to_epoch(epoch)
        assert stats.logged == stats.total_traps == 100
        assert _mtimes(stats.events) == list(range(100))

    def test_rewind_across_a_wrap(self):
        before = TRAP_LOG_CAPACITY - 10
        abandoned = 500
        stats = _filled(before)
        epoch = stats.mark_epoch()
        for mtime in range(before, before + abandoned):
            _record(stats, mtime)
        assert stats.dropped == abandoned - 10
        stats.rewind_to_epoch(epoch)
        # The abandoned events are gone; the pre-epoch events they pushed
        # out of the ring stay dropped, but the count is exact.
        assert stats.logged == stats.total_traps == before
        assert len(stats.events) == TRAP_LOG_CAPACITY - abandoned
        assert stats.dropped == abandoned - 10
        assert _mtimes(stats.events) == list(range(abandoned - 10, before))
        assert stats.last_event is stats.events[-1]
        _record(stats, 10**6)
        assert stats.logged == before + 1
        assert stats.tail(1)[0].mtime == 10**6

    def test_rewind_past_the_whole_ring(self):
        stats = _filled(20)
        epoch = stats.mark_epoch()
        for mtime in range(20, 20 + 2 * TRAP_LOG_CAPACITY):
            _record(stats, mtime)
        stats.rewind_to_epoch(epoch)
        assert stats.logged == 20
        assert len(stats.events) == 0
        assert stats.dropped == 20


class TestRewindRestoresAnnotations:
    """A rewind restores the last-trap pointers and the annotations of the
    events they point to, so ``handler_counts`` keeps matching the log."""

    def test_pre_epoch_annotation_is_rolled_back(self):
        stats = TrapStats()
        served = _record(stats, 1)
        stats.annotate_last("miralis-worldswitch", hart=0)
        epoch = stats.mark_epoch()
        stats.pin_injected(0)
        stats.annotate_last("firmware", detail="sbi:x", hart=0, injected=True)
        _record(stats, 2)
        stats.rewind_to_epoch(epoch)
        assert (served.handler, served.detail) == ("miralis-worldswitch", "")
        assert stats.handler_counts == Counter({"miralis-worldswitch": 1})
        stats.annotate_last("miralis-recovery", detail="retry", hart=0)
        assert stats.handler_counts == _annotation_counts(stats)

    def test_rewind_restores_the_injection_pin(self):
        stats = TrapStats()
        pinned = _record(stats, 1)
        stats.pin_injected(0)
        _record(stats, 2)
        epoch = stats.mark_epoch()
        _record(stats, 3)
        stats.rewind_to_epoch(epoch)
        stats.annotate_last("firmware", hart=0, injected=True)
        assert pinned.handler == "firmware"
        assert stats.handler_counts == _annotation_counts(stats)

    def test_pointers_survive_a_wrap(self):
        stats = TrapStats()
        _record(stats, 0, hart=1)
        stats.annotate_last("miralis", hart=1)
        last = _record(stats, 1, hart=0)
        epoch = stats.mark_epoch()
        for mtime in range(2, TRAP_LOG_CAPACITY + 7):
            _record(stats, mtime)
        stats.rewind_to_epoch(epoch)
        # Both pre-epoch events were pushed out of the ring, yet hart 1's
        # re-annotation still moves its count, as an unbounded log would.
        assert len(stats.events) == 0
        assert stats.last_event is last
        stats.annotate_last("miralis-worldswitch", hart=1)
        assert stats.handler_counts == Counter({"miralis-worldswitch": 1})

    def test_rewind_after_a_restore_lands_on_ring_events(self):
        """A checkpoint copies the epoch and the log separately; the
        rewind must still point at the restored log's own events."""
        stats = TrapStats()
        _record(stats, 1)
        stats.pin_injected(0)
        _record(stats, 2)
        epoch = copy_state(stats.mark_epoch())
        restored = TrapStats()
        restored.restore_state(stats.snapshot_state())
        _record(restored, 3)
        restored.rewind_to_epoch(epoch)
        restored.annotate_last("firmware", hart=0, injected=True)
        restored.annotate_last("miralis-emulate", hart=0)
        assert [event.handler for event in restored.events] == [
            "firmware", "miralis-emulate"]
        assert restored.handler_counts == _annotation_counts(restored)


@pytest.mark.parametrize("plan", ["csr-chaos", "decode-flip", "mtvec-smash",
                                  "stall-loop"])
@pytest.mark.parametrize("firmware", chaos.CHAOS_FIRMWARES)
def test_chaos_handler_counts_match_the_log(firmware, plan, monkeypatch):
    """Cells whose watchdog retries activations: after every rewind the
    counters and the event annotations still describe the same log."""
    built = _machines(monkeypatch)
    chaos.run_chaos(firmware, plan, 0)
    stats = built[-1].stats
    assert stats.dropped == 0
    assert stats.handler_counts == _annotation_counts(stats)


def test_runaway_chaos_cell_keeps_a_bounded_log(monkeypatch):
    """A cell that logs more traps than the ring holds (here, through a
    ring shrunk below its trap count): the ring stays at its capacity
    while ``logged`` stays equal to the exact trap count."""
    built = _machines(monkeypatch)
    capacity = 64
    monkeypatch.setattr(stats_module, "TRAP_LOG_CAPACITY", capacity)
    assert chaos.run_chaos("opensbi", "csr-chaos", 119).ok
    stats = built[-1].stats
    assert stats.dropped > 0
    assert len(stats.events) == capacity
    assert stats.logged == stats.total_traps
    assert sum(stats.trap_counts.values()) == stats.total_traps
    assert stats.tail(chaos.TRAP_LOG_LIMIT)[-1] is stats.last_event


@pytest.mark.parametrize("firmware,plan,seed", [
    ("opensbi", "csr-chaos", 1), ("opensbi", "decode-flip", 1),
    ("rustsbi", "decode-flip", 1), ("malicious", "decode-flip", 1)])
def test_retried_activation_annotates_the_retried_trap(firmware, plan, seed,
                                                       monkeypatch):
    """Every ``injected=True`` annotation lands on the trap the hart's
    latest injection delivered, a watchdog retry's re-injection included,
    never on a trap an earlier activation served."""
    built = _machines(monkeypatch)
    served = {}
    retries = []
    misses = []
    inject = Miralis._inject_firmware_trap
    reinject = Miralis.reinject_after_recovery
    annotate = TrapStats.annotate_last

    def noting_inject(self, hart, *args, **kwargs):
        served[hart.hartid] = self.machine.stats.last_event
        inject(self, hart, *args, **kwargs)

    def noting_reinject(self, hart, *args, **kwargs):
        retries.append(hart.hartid)
        reinject(self, hart, *args, **kwargs)

    def checked_annotate(self, handler, detail="", hart=None,
                         injected=False):
        annotate(self, handler, detail, hart, injected)
        if injected and hart in served and served[hart].handler != handler:
            misses.append((handler, detail))

    monkeypatch.setattr(Miralis, "_inject_firmware_trap", noting_inject)
    monkeypatch.setattr(Miralis, "reinject_after_recovery", noting_reinject)
    monkeypatch.setattr(TrapStats, "annotate_last", checked_annotate)
    chaos.run_chaos(firmware, plan, seed)
    assert retries, "the cell retried no activation"
    assert misses == []
    stats = built[-1].stats
    assert stats.handler_counts == _annotation_counts(stats)
