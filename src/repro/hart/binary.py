"""Execution of real machine-code images from simulated RAM.

Most guest software in this repo is modelled as Python programs issuing
architectural operations.  :class:`BinaryProgram` goes one step further
down: it owns a region containing a genuine RV64 code image (built with
:class:`repro.isa.asm.Assembler` or loaded from bytes — e.g. a "closed
vendor binary" in the spirit of the paper's Star64 experiment) and runs it
by fetch → decode → execute through the reference specification.  Real
control flow (branches, jumps, trap vectors, xRETs) is followed from the
image itself.

Because execution goes through the same specification path as everything
else, a binary image runs unmodified in M-mode natively *or* in vM-mode
under Miralis — each privileged instruction genuinely trapping to the
monitor in the latter case.
"""

from __future__ import annotations

from typing import Optional

from repro.hart.program import GuestContext, GuestProgram, Region
from repro.isa.decoder import decode
from repro.isa.instructions import IllegalInstructionError, Instruction
from repro.spec.step import BusError
from repro.spec.traps import Trap, take_trap
from repro.isa import constants as c


class BinaryProgram(GuestProgram):
    """A guest whose behaviour is entirely defined by a code image."""

    #: Upper bound on executed instructions per dispatch (runaway guard).
    MAX_STEPS = 200_000

    def __init__(self, name: str, region: Region, machine, image: bytes):
        super().__init__(name, region)
        self.machine = machine
        self.image = bytes(image)
        self.steps = 0
        self.ebreak_hit = False
        machine.ram.load_image(region.base, self.image)

    # The whole region is valid entry space: control may land anywhere in
    # the image (trap vectors, computed jumps).
    def dispatch(self, machine, hart) -> None:
        ctx = GuestContext(machine, hart, self)
        self.run_image(ctx)

    def boot(self, ctx: GuestContext) -> None:
        self.run_image(ctx)

    def handle_trap(self, ctx: GuestContext) -> None:
        self.run_image(ctx)

    # ------------------------------------------------------------------

    def _fetch(self, ctx: GuestContext) -> Optional[Instruction]:
        """Fetch and decode the instruction at pc, or deliver the trap."""
        hart = ctx.hart
        pc = hart.state.pc
        try:
            word = self.machine.spec_bus.read(pc, 4)
        except BusError:
            take_trap(hart.state,
                      Trap(c.TrapCause.INSTRUCTION_ACCESS_FAULT, tval=pc))
            return None
        # The decode fault site is consulted on the raw word, *before*
        # the lru-cached decoder sees it — a glitched fetch must fire
        # even when this word was decoded (and cached) long ago.
        injector = self.machine.fault_injector
        if injector is not None and injector.flip_instruction(
                hart.hartid, f"word:{word:#010x}"):
            take_trap(hart.state,
                      Trap(c.TrapCause.ILLEGAL_INSTRUCTION, tval=word))
            return None
        try:
            return decode(word)
        except IllegalInstructionError:
            take_trap(hart.state,
                      Trap(c.TrapCause.ILLEGAL_INSTRUCTION, tval=word))
            return None

    def run_image(self, ctx: GuestContext) -> None:
        """Fetch/decode/execute until control leaves the region or ebreak."""
        hart = ctx.hart
        budget = self.MAX_STEPS
        while budget > 0:
            if self.machine.halted:
                return
            if not self.region.contains(hart.state.pc):
                return  # an xRET or jump transferred control elsewhere
            instr = self._fetch(ctx)
            if instr is None:
                # Trap delivered; if the vector is ours, keep running.
                budget -= 1
                continue
            if instr.mnemonic == "ebreak" and hart.state.mode == c.M_MODE:
                # Semihosting-style exit for native M-mode images.
                self.ebreak_hit = True
                self.machine.halt(f"{self.name}: ebreak")
                return
            self.steps += 1
            budget -= 1
            ctx.exec(instr)
        raise RuntimeError(f"binary program {self.name} exceeded MAX_STEPS")
