"""``Clint.tick`` drives ``set_mtip`` on level changes only.

``tick`` returns after one range test while the clock stays inside the
window where no comparator can change level, compares every ``mtimecmp``
against ``mtime`` in one pass otherwise, and calls back only for a hart
whose level changed.  It must behave exactly as re-evaluating each hart's
comparator in turn, whatever happens between ticks: time moving forward
or back, comparators written through the bus or set directly, a
checkpoint restore rewinding time, comparators and levels together, and
any hart count.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hart.clint import MTIMECMP_BASE, Clint
from repro.hart.cycles import TIMEBASE_FREQUENCY
from repro.hart.machine import Machine
from repro.snapshot import capture, restore
from repro.spec.platform import VISIONFIVE2

U64 = (1 << 64) - 1


class PerHartClint(Clint):
    """Reference: re-evaluate each hart's comparator on every tick."""

    def tick(self) -> None:
        now = self.mtime()
        for hart in range(self.num_harts):
            self._update_mtip(hart, now)


class Rig:
    def __init__(self, cls, num_harts: int):
        self.now = 0
        self.log: list[tuple[int, bool]] = []
        # The rig is the clock, at the timebase frequency: ``cycles``
        # and ``mtime`` are both ``now``.
        self.clint = cls(
            0x200_0000, num_harts,
            clock=self, frequency_hz=TIMEBASE_FREQUENCY,
            set_msip=lambda hart, level: None,
            set_mtip=lambda hart, level: self.log.append((hart, level)),
        )
        #: (time, device state) after every action, for ``restore``.
        self.history: list[tuple[int, dict]] = []

    @property
    def cycles(self) -> int:
        return self.now


def _apply(rig: Rig, action: tuple) -> None:
    kind = action[0]
    if kind == "time":
        rig.now = action[1]
    elif kind == "write":
        _, hart, value = action
        hart %= rig.clint.num_harts
        rig.clint.write(MTIMECMP_BASE + 8 * hart, 8, value)
    elif kind == "poke":
        # A checkpoint restore rewrites the comparators in place.
        _, hart, value = action
        rig.clint.mtimecmp[hart % rig.clint.num_harts] = value
    elif kind == "restore":
        # A checkpoint restore: time, comparators and levels rewind
        # together to an earlier point of the script.
        if rig.history:
            rig.now, state = rig.history[action[1] % len(rig.history)]
            rig.clint.restore_state(state)
            # No callback fires: the levels are restored with the state.
            rig.log.append(("restore", tuple(state["mtip_level"])))
    else:
        rig.clint.tick()
    rig.history.append((rig.now, rig.clint.snapshot_state()))


# A small range, so time often lands exactly on a comparator.
times = st.integers(min_value=0, max_value=32)
deadlines = st.one_of(times, st.just(U64))
actions = st.lists(
    st.one_of(
        st.tuples(st.just("time"), times),
        st.tuples(st.just("write"), st.integers(0, 3), deadlines),
        st.tuples(st.just("poke"), st.integers(0, 3), deadlines),
        st.tuples(st.just("restore"), st.integers(0, 40)),
        st.tuples(st.just("tick")),
    ),
    max_size=40,
)


def _assert_edges_only(log: list[tuple]) -> None:
    last: dict[int, bool] = {}
    for hart, level in log:
        if hart == "restore":
            last = dict(enumerate(level))
            continue
        assert last.get(hart) != level, f"hart {hart}: repeated level {level}"
        last[hart] = level


class TestTickEdges:
    @settings(max_examples=300)
    @given(num_harts=st.sampled_from([1, 2, 4]), script=actions)
    def test_matches_per_hart_reference(self, num_harts, script):
        fast, reference = Rig(Clint, num_harts), Rig(PerHartClint, num_harts)
        for action in script + [("tick",)]:
            _apply(fast, action)
            _apply(reference, action)
            assert fast.log == reference.log
            assert fast.clint._mtip_level == reference.clint._mtip_level
        _assert_edges_only(fast.log)

    @pytest.mark.parametrize("num_harts", [1, 2, 4])
    def test_steady_level_fires_nothing(self, num_harts):
        rig = Rig(Clint, num_harts)
        rig.clint.tick()
        assert rig.log == [(hart, False) for hart in range(num_harts)]
        for now in range(0, 1000, 7):
            rig.now = now
            rig.clint.tick()
        assert len(rig.log) == num_harts

    @pytest.mark.parametrize("num_harts", [1, 2, 4])
    def test_level_rises_when_time_reaches_the_comparator(self, num_harts):
        rig = Rig(Clint, num_harts)
        rig.clint.mtimecmp[0] = 40
        rig.clint.tick()
        rig.log.clear()
        rig.now = 39
        rig.clint.tick()
        assert rig.log == []
        rig.now = 40
        rig.clint.tick()
        assert rig.log == [(0, True)]

    @pytest.mark.parametrize("num_harts", [1, 2, 4])
    def test_backwards_comparator_and_rewound_time(self, num_harts):
        rig = Rig(Clint, num_harts)
        last = num_harts - 1
        rig.clint.tick()
        rig.log.clear()
        rig.now = 100
        rig.clint.mtimecmp[last] = 500
        rig.clint.tick()
        assert rig.log == []
        rig.clint.mtimecmp[last] = 50  # moved backwards past now
        rig.clint.tick()
        assert rig.log == [(last, True)]
        rig.clint.tick()
        assert rig.log == [(last, True)]
        rig.now = 10  # time rewound below the comparator
        rig.clint.tick()
        assert rig.log == [(last, True), (last, False)]


class TestTickAcrossCheckpointRestore:
    @pytest.mark.parametrize("num_harts", [1, 2, 4])
    def test_restore_rewinds_time_and_levels(self, num_harts):
        machine = Machine(dataclasses.replace(VISIONFIVE2, num_harts=num_harts))
        edges: list[tuple[int, bool]] = []
        wired = machine.clint._set_mtip

        def record(hart, level):
            edges.append((hart, level))
            wired(hart, level)

        machine.clint._set_mtip = record
        last = num_harts - 1
        machine.clint.tick()
        deadline = machine.read_mtime() + 1000
        machine.clint.write(MTIMECMP_BASE + 8 * last, 8, deadline)
        checkpoint = capture(machine)
        edges.clear()

        machine.charge(machine.cycle_model.instruction * 1_000_000)
        assert machine.read_mtime() >= deadline
        machine.clint.tick()
        assert edges == [(last, True)]
        assert machine.harts[last].state.csr.mip_hw

        restore(machine, checkpoint)
        assert machine.read_mtime() < deadline
        machine.clint.tick()  # level restored: no edge
        assert edges == [(last, True)]
        assert not machine.harts[last].state.csr.mip_hw

        machine.charge(machine.cycle_model.instruction * 1_000_000)
        machine.clint.tick()
        assert edges == [(last, True), (last, True)]
        _assert_edges_only(edges[1:])
