"""Basic-block decoded-run engine for :class:`BinaryProgram` images.

The single-step engine pays fetch → decode → dispatch for every
instruction, which makes the interpreter the throughput ceiling of every
subsystem stacked on it (chaos campaigns, fuzzing, checkpoint sweeps).
This module recovers the paper's "stay off the guest's hot path" shape
for the one place this repo executes real machine code from simulated
RAM: at a block-entry pc it decodes forward to the next branch, jump,
system, or otherwise trap-capable instruction, caches the decoded run,
and executes cache hits as a straight-line loop that batches
cycle/instret charging.

Correctness rules (each one load-bearing):

* **Cacheable instructions are provably trap-free.** Only the pure ALU
  subset (``_ALU_MNEMONICS``) is admitted: no memory access, no CSR
  effect, no control transfer, no trap — so mid-block architectural
  state can only differ from the single-step engine in *when* cycles
  are charged, never in *what* happens.
* **Blocks are keyed on (pc, world) and carry the crc32 of their code
  bytes.** Every RAM mutation path (``Ram.write``, ``load_image``,
  ``restore_pages``) notifies the engine before bytes change; writes
  that alter code bytes drop every overlapping block, so a cached
  entry's hash always matches the bytes in RAM.
* **Timer exactness (single-hart).** The single-step engine refreshes
  timer lines and polls for interrupts before every instruction.  A
  block commits only when no mtimecmp/stimecmp deadline lies inside the
  block's cycle window, so deferring the refresh to the block boundary
  observes the exact same trap-path events (same cause, same mtime).
* **SMP exactness.** Under the deterministic scheduler the block path
  keeps full per-instruction fidelity — one ``scheduler.checkpoint``
  and one interrupt poll per retired instruction, cycles charged per
  op — so interleavings are byte-identical to the single-step engine.
* **Derived state.** The cache is rebuildable at any time: snapshot
  capture never sees it and restore invalidates it (via the
  ``restore_pages`` hook).  It lives and dies with its machine.
* **Fault injection falls back.** Any installed fault injector disables
  the engine (the decode fault site is consulted per fetch, so skipping
  fetches would shift decision streams).  The one off switch is
  :func:`blocks_disabled`, which builds machines without an engine.
"""

from __future__ import annotations

import weakref
import zlib
from contextlib import contextmanager
from typing import Optional

from repro.hart.memory import _PAGE_SHIFT
from repro.isa import constants as c
from repro.isa.decoder import decode
from repro.isa.instructions import IllegalInstructionError
from repro.perf.counters import register_stats_provider
from repro.hart.cycles import cycles_to_mtime
from repro.hart.program import MachineHalted
from repro.spec.interrupts import pending_interrupt
from repro.spec.step import _ALU_MNEMONICS, _alu, BusError

#: Runs shorter than this are not worth a cache entry: the per-visit
#: dispatch overhead dominates, so they stay on the single-step path
#: (recorded as a negative entry to skip re-probing).
MIN_BLOCK = 3
#: Upper bound on a single decoded run.
MAX_BLOCK = 256
#: Total entry cap (runaway guard for pathological images); hitting it
#: drops the whole cache rather than evicting piecemeal.
MAX_ENTRIES = 1 << 14

#: Process-wide default consulted by ``Machine.__init__``: when False,
#: new machines are built without a block engine (``machine.blocks is
#: None``), which is what the differential identity tests use to get a
#: pure single-step machine.
default_enabled = True


@contextmanager
def blocks_disabled():
    """Build machines without a block engine inside this context."""
    global default_enabled
    previous = default_enabled
    default_enabled = False
    try:
        yield
    finally:
        default_enabled = previous


class BlockEntry:
    """One decoded straight-line run (or a negative "too short" marker)."""

    __slots__ = ("key", "start", "end", "instrs", "length", "cost",
                 "code_hash", "pages", "valid")

    def __init__(self, key, start, end, instrs, cost, code_hash):
        self.key = key
        self.start = start
        #: One past the last byte whose content this entry depends on.
        self.end = end
        self.instrs = instrs
        self.length = len(instrs)
        self.cost = cost
        self.code_hash = code_hash
        self.pages = tuple(range(start >> _PAGE_SHIFT,
                                 ((end - 1) >> _PAGE_SHIFT) + 1))
        self.valid = True

    def __repr__(self) -> str:
        return (f"<BlockEntry {self.start:#x}+{self.length} "
                f"crc={self.code_hash:#010x} valid={self.valid}>")


class BlockEngine:
    """Per-machine cache of decoded straight-line runs.

    Installed by ``Machine.__init__`` as ``machine.blocks`` and invoked
    from ``BinaryProgram.run_image``; it is also the machine RAM's
    ``code_watcher``, so every write into a page holding cached code
    reaches :meth:`note_write` before the bytes change.
    """

    def __init__(self, machine):
        self.machine = machine
        self._blocks: dict[tuple, BlockEntry] = {}
        self._by_page: dict[int, set] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        machine.ram.code_watcher = self
        # The provider holds the engine weakly: the engine holds the
        # machine, and a strong path from the registry to the machine
        # would keep the provider's owner (the machine) alive forever.
        engine_ref = weakref.ref(self)

        def provider() -> dict:
            engine = engine_ref()
            if engine is None:
                return {}
            return {
                "hits": engine.hits,
                "misses": engine.misses,
                "invalidations": engine.invalidations,
                "blocks": len(engine._blocks),
            }

        register_stats_provider("hart.blocks", provider, owner=machine)

    # -- execution -------------------------------------------------------

    def run(self, program, hart) -> int:
        """Execute a cached run at the hart's pc; returns ops stepped.

        0 means "no block here, single-step this one" — the caller falls
        back to the fetch/decode/execute path for (at least) one
        instruction.  ``program.steps`` is advanced here, exactly as the
        single-step loop advances it: *before* each op's preemption
        point, so an op aborted by a halt mid-checkpoint still counts.
        """
        machine = self.machine
        if machine.fault_injector is not None:
            return 0
        state = hart.state
        pc = state.pc
        view = machine.world_view
        key = (pc, None if view is None else view[hart.hartid])
        entry = self._blocks.get(key)
        if entry is None:
            entry = self._build(program, key)
        if entry.length == 0:
            return 0
        if machine.scheduler is not None:
            return self._run_smp(program, hart, entry)
        return self._run_batched(program, hart, entry)

    def _run_batched(self, program, hart, entry) -> int:
        """Single-hart hit path: straight-line loop, one batched charge.

        Mirrors the reference engine's per-op prologue once, then proves
        the remaining per-op prologues are no-ops: with no scheduler,
        straight-line ALU execution only changes interrupt-pending state
        through the advance of mtime, so it suffices that no timer
        deadline falls inside the block's cycle window.
        """
        machine = self.machine
        state = hart.state
        machine.refresh_timer_lines()
        if machine.halted or pending_interrupt(state) is not None:
            return 0
        hz = machine.config.frequency_hz
        now = machine.read_mtime()
        end_mtime = cycles_to_mtime(machine.cycles + entry.cost, hz)
        for deadline in machine.clint.mtimecmp:
            if now < deadline <= end_mtime:
                return 0
        if machine.config.has_sstc and now < state.csr.stimecmp <= end_mtime:
            return 0
        pc = state.pc
        for instr in entry.instrs:
            _alu(state, instr)
            pc += 4
            state.pc = pc
        count = entry.length
        program.steps += count
        hart.cycles += entry.cost
        machine.cycles += entry.cost
        hart.instret += count
        csr = state.csr
        csr._simple[c.CSR_MINSTRET] = hart.instret
        csr._simple[c.CSR_MCYCLE] = int(hart.cycles)
        self.hits += 1
        return count

    def _run_smp(self, program, hart, entry) -> int:
        """Scheduled hit path: full per-op fidelity, decode amortized.

        Per retired instruction this performs exactly what
        ``GuestContext.exec`` + ``Hart.execute`` perform for an ALU op —
        one scheduler checkpoint, one interrupt poll (delivering through
        ``run_until`` like the reference), one cycle charge — so quantum
        accounting and interleavings are byte-identical.  The cached
        instruction stands in for the fetch; like the reference (which
        fetches before yielding the baton), an op pre-fetched before a
        slice switch executes even if a sibling rewrites its bytes
        during the switch, so validity is checked *before* each
        checkpoint, never after.
        """
        machine = self.machine
        scheduler = machine.scheduler
        state = hart.state
        csr = state.csr
        instrs = entry.instrs
        cost = hart.cycle_model.instruction
        executed = 0
        while executed < entry.length:
            if machine.halted or not entry.valid:
                break
            program.steps += 1
            scheduler.checkpoint(hart)
            while True:
                if machine.halted:
                    raise MachineHalted(machine.halt_reason or "halted")
                op_pc = state.pc
                if hart.check_interrupts():
                    machine.run_until(hart, {op_pc})
                    continue
                break
            _alu(state, instrs[executed])
            state.pc = op_pc + 4
            hart.charge(cost)
            hart.instret += 1
            csr._simple[c.CSR_MINSTRET] = hart.instret
            csr._simple[c.CSR_MCYCLE] = int(hart.cycles)
            executed += 1
        if executed:
            self.hits += 1
        return executed

    # -- block construction ----------------------------------------------

    def _build(self, program, key) -> BlockEntry:
        """Decode forward from ``key``'s pc to the next run boundary."""
        self.misses += 1
        if len(self._blocks) >= MAX_ENTRIES:
            self.invalidate_all()
        pc, _world = key
        machine = self.machine
        bus = machine.spec_bus
        ram = machine.ram
        # The exec pc-wrap margin: ops at or past it never reach
        # ``Hart.execute`` unchanged, so a run must stop short of it.
        limit = program.region.end - 16
        instruction_cost = machine.cycle_model.instruction
        instrs = []
        code = bytearray()
        cursor = pc
        in_ram = ram.base <= pc and pc + 4 <= ram.base + ram.size
        while in_ram and cursor + 4 <= limit and len(instrs) < MAX_BLOCK:
            try:
                word = bus.read(cursor, 4)
                instr = decode(word)
            except (BusError, IllegalInstructionError):
                cursor += 4
                break
            if instr.mnemonic not in _ALU_MNEMONICS or instr.word != word:
                # Boundary op (or a word the reference loop would rewrite
                # via ``_materialize``): always single-stepped, but its
                # bytes were examined, so the entry must cover them.
                cursor += 4
                break
            instrs.append(instr)
            code += word.to_bytes(4, "little")
            cursor += 4
        if len(instrs) < MIN_BLOCK:
            instrs = []
            code = bytearray()
        end = max(pc + 4 * len(instrs), min(cursor, program.region.end))
        end = max(end, pc + 4)
        entry = BlockEntry(
            key, pc, end, tuple(instrs),
            cost=len(instrs) * instruction_cost,
            code_hash=zlib.crc32(bytes(code)),
        )
        self._blocks[key] = entry
        for page in entry.pages:
            self._by_page.setdefault(page, set()).add(key)
            ram.code_pages.add(page)
        return entry

    # -- invalidation ----------------------------------------------------

    def note_write(self, address: int, size: int, value: int) -> None:
        """RAM write hook: drop blocks whose code bytes are changing.

        Called by ``Ram.write`` *before* mutation, only when the write
        touches a page holding cached code.  Writes that leave the bytes
        unchanged (e.g. ``_materialize`` re-encoding a fetched op) keep
        every block.
        """
        if self.machine.ram.read(address, size) == value:
            return
        end = address + size
        first = address >> _PAGE_SHIFT
        last = (end - 1) >> _PAGE_SHIFT
        pages = (first,) if first == last else (first, last)
        for page in pages:
            keys = self._by_page.get(page)
            if not keys:
                continue
            for key in list(keys):
                entry = self._blocks.get(key)
                if entry is not None and entry.start < end and address < entry.end:
                    self._drop(entry)

    def _drop(self, entry: BlockEntry) -> None:
        del self._blocks[entry.key]
        entry.valid = False
        self.invalidations += 1
        ram = self.machine.ram
        for page in entry.pages:
            keys = self._by_page.get(page)
            if keys is not None:
                keys.discard(entry.key)
                if not keys:
                    del self._by_page[page]
                    ram.code_pages.discard(page)

    def invalidate_all(self) -> None:
        """Drop every cached run (bulk image load, snapshot restore)."""
        if not self._blocks:
            return
        for entry in self._blocks.values():
            entry.valid = False
        self.invalidations += len(self._blocks)
        self._blocks.clear()
        self._by_page.clear()
        self.machine.ram.code_pages.clear()
