"""Per-layer spans around each layer's public entry points.

The benchmark times layers from its own files: :func:`installed` wraps
every public call listed in :data:`LAYERS` at *every* binding site, i.e.
on the class, in the defining module, and in every ``repro`` module that
imported the function by value (``repro.hart.hart.execute_instruction``,
``repro.core.miralis.decode``, ...).  Leaving the context restores each
site to the original object.

A span records wall time, the simulated-cycle delta of the machine whose
clock it read, and its *self* time: its duration minus the part covered
by its child spans.  Spans are recorded only between
:meth:`SpanRecorder.begin_op` and :meth:`SpanRecorder.end_op`, so set-up
and shutdown do not count; the op itself is the root span, and its self
time is the work of no listed layer (guest-program glue, the benchmark's
own loop).
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import functools
import importlib
import pkgutil
import pstats
import sys
from time import perf_counter
from typing import Callable, Optional

#: Expands to every public function defined on the class.
PUBLIC = "*"


@dataclasses.dataclass(frozen=True)
class Layer:
    name: str
    module: str
    #: ``function`` or ``Class.method`` names; ``Class.*`` = all public
    #: methods the class itself defines.
    calls: tuple


LAYERS = (
    Layer("hart.machine", "repro.hart.machine",
          ("Machine.dispatch_current", "Machine.run_until")),
    Layer("hart.hart", "repro.hart.hart",
          ("Hart.execute", "Hart.check_interrupts")),
    Layer("spec.step", "repro.spec.step", ("execute_instruction",)),
    Layer("spec.traps", "repro.spec.traps", ("take_trap",)),
    Layer("spec.interrupts", "repro.spec.interrupts", ("pending_interrupt",)),
    Layer("isa.decoder", "repro.isa.decoder", ("decode",)),
    Layer("isa.encoding", "repro.isa.encoding", ("encode",)),
    Layer("hart.memory", "repro.hart.memory", ("Ram.read", "Ram.write")),
    Layer("hart.clint", "repro.hart.clint",
          ("Clint.read", "Clint.write", "Clint.tick")),
    Layer("hart.stats", "repro.hart.stats",
          ("TrapStats.record_trap", "TrapStats.annotate_last")),
    Layer("core.miralis", "repro.core.miralis", ("Miralis.handle",)),
    Layer("core.offload", "repro.core.offload",
          ("FastPath.try_handle_exception", "FastPath.try_handle_interrupt")),
    Layer("core.world_switch", "repro.core.world_switch",
          ("WorldSwitcher.enter_firmware", "WorldSwitcher.enter_os")),
    Layer("core.emulator", "repro.core.emulator",
          ("emulate_privileged", "inject_virtual_trap")),
    Layer("core.csr_emul", "repro.core.csr_emul", ("read_csr", "write_csr")),
    Layer("core.vpmp", "repro.core.vpmp", ("PmpVirtualizer.install",)),
    Layer("core.vclint", "repro.core.vclint",
          ("VirtualClint.emulate_access", "VirtualClint.emulate_os_access")),
    Layer("core.interrupts", "repro.core.interrupts",
          ("refresh_virtual_mip", "pending_virtual_interrupt")),
    Layer("core.watchdog", "repro.core.watchdog",
          ("FirmwareWatchdog." + PUBLIC,)),
    Layer("snapshot.activation", "repro.snapshot.activation",
          ("capture_activation", "restore_activation")),
    Layer("faults.injector", "repro.faults.injector",
          ("FaultInjector.corrupt_vcsr_write", "FaultInjector.mmio_error",
           "FaultInjector.flip_instruction", "FaultInjector.stall_firmware")),
    Layer("coverage.map", "repro.coverage.map", ("CoverageMap.record",)),
    Layer("firmware", "repro.firmware.base", ("BaseFirmware.dispatch",)),
    Layer("os_model.kernel", "repro.os_model.kernel",
          ("KernelProgram.handle_trap",)),
)

#: Layers whose first argument leads to the running machine: a span there
#: re-points the recorder's clock, so every cell of a workload, each with
#: its own machine, reads the right ``cycles``.
_CLOCK_OF = {
    "hart.machine": lambda machine, *_: machine,
    "hart.hart": lambda hart, *_: hart.machine,
}
#: Calls whose ``True`` result is a fast-path hit.
_HIT_CALLS = frozenset({"FastPath.try_handle_exception",
                        "FastPath.try_handle_interrupt"})
#: The monitor's trap entry, probed for traps taken in the OS world.
_TRAP_ENTRY = "Miralis.handle"


class _StoppedClock:
    cycles = 0.0


@dataclasses.dataclass
class Target:
    """One wrapped call: where it is defined and what it recorded."""

    layer: str
    qualname: str
    original: Callable
    calls: int = 0
    self_s: float = 0.0
    cycles: float = 0.0


class SpanRecorder:
    """Collects spans between :meth:`begin_op` and :meth:`end_op`."""

    def __init__(self):
        self.active = False
        self.clock = _StoppedClock()
        self.targets: list[Target] = []
        self.ops = 0
        self.op_s = 0.0
        #: Root-span self time: op time covered by no layer span.
        self.unattributed_s = 0.0
        self.fastpath_hits = 0
        self.os_world_traps = 0
        #: ``(owner, attribute, original, owned)`` per rebound site;
        #: ``owned`` is False where the class only inherited the call.
        self.patches: list[tuple[object, str, object, bool]] = []
        self._stack: list[list[float]] = []

    # -- op brackets ------------------------------------------------------

    def begin_op(self) -> None:
        self._stack = [[0.0]]
        self.active = True

    def end_op(self, wall_s: float) -> None:
        """Close the root span of an op that took ``wall_s`` seconds."""
        self.active = False
        self.ops += 1
        self.op_s += wall_s
        self.unattributed_s += wall_s - self._stack[0][0]

    # -- wrappers ---------------------------------------------------------

    def wrap(self, target: Target) -> Callable:
        fn = target.original
        clock_of = _CLOCK_OF.get(target.layer)
        counts_hits = target.qualname in _HIT_CALLS
        probes_world = target.qualname == _TRAP_ENTRY
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            if clock_of is not None:
                recorder.clock = clock_of(*args)
            if probes_world:
                recorder._probe_trap_entry(*args)
            clock = recorder.clock
            stack = recorder._stack
            frame = [0.0]
            stack.append(frame)
            cycles = clock.cycles
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                target.calls += 1
                target.self_s += elapsed - frame[0]
                target.cycles += clock.cycles - cycles
            if counts_hits and result:
                recorder.fastpath_hits += 1
            return result

        return span

    def _probe_trap_entry(self, miralis, machine, hart) -> None:
        hartid = hart.hartid
        if miralis._booted[hartid] and miralis.world[hartid].name == "OS":
            self.os_world_traps += 1

    # -- results ----------------------------------------------------------

    def layer_totals(self, layers=LAYERS) -> dict[str, dict]:
        """Per layer: calls, self seconds, and simulated cycles."""
        totals = {layer.name: {"calls": 0, "self_s": 0.0, "cycles": 0.0}
                  for layer in layers}
        for target in self.targets:
            total = totals[target.layer]
            total["calls"] += target.calls
            total["self_s"] += target.self_s
            total["cycles"] += target.cycles
        return totals

    def call_totals(self) -> dict[str, Target]:
        return {target.qualname: target for target in self.targets}

    def leftover_wrappers(self) -> list[str]:
        """Sites still not holding their original object."""
        leftovers = []
        for owner, name, original, owned in self.patches:
            restored = (getattr(owner, name, None) is original if owned
                        else name not in vars(owner))
            if not restored:
                leftovers.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return leftovers


def _resolve(layer: Layer):
    """Yield ``(owner, attribute, qualname)`` for each call of a layer."""
    module = importlib.import_module(layer.module)
    for call in layer.calls:
        if "." not in call:
            yield module, call, call
            continue
        class_name, method = call.split(".")
        cls = getattr(module, class_name)
        if method == PUBLIC:
            for name, value in vars(cls).items():
                if not name.startswith("_") and callable(value):
                    yield cls, name, f"{class_name}.{name}"
        else:
            yield cls, method, call


def import_package(package: str = "repro") -> None:
    """Import every module of ``package`` (its ``__main__`` excepted).

    Wrapping rebinds names imported by value; a module imported after
    the wrappers went in would keep a wrapper past their removal.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


@contextlib.contextmanager
def installed(recorder: SpanRecorder, layers=LAYERS):
    """Wrap every call of ``layers`` at every binding site, then restore."""
    patches = recorder.patches

    def patch(owner, name, value) -> None:
        patches.append((owner, name, getattr(owner, name),
                        name in vars(owner)))
        setattr(owner, name, value)

    try:
        for layer in layers:
            for owner, name, qualname in _resolve(layer):
                original = getattr(owner, name)
                target = Target(layer.name, qualname, original)
                recorder.targets.append(target)
                wrapper = recorder.wrap(target)
                patch(owner, name, wrapper)
                if isinstance(owner, type):
                    continue
                package = owner.__name__.split(".")[0] + "."
                for module_name, module in list(sys.modules.items()):
                    if (module is owner or module is None
                            or not module_name.startswith(package)):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch(module, attr, wrapper)
        yield recorder
    finally:
        for owner, name, original, own in reversed(patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


# ---------------------------------------------------------------------------
# cProfile cross-check
# ---------------------------------------------------------------------------


class ProfileHooks:
    """Op brackets that run :mod:`cProfile` over the timed ops only."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def begin_op(self) -> None:
        self.profile.enable()

    def end_op(self, wall_s: float) -> None:
        self.profile.disable()


def _code_key(fn) -> tuple:
    code = getattr(fn, "__code__", None)
    if code is None:
        return ()
    return (code.co_filename, code.co_firstlineno, code.co_name)


def cprofile_layer_self(profile: cProfile.Profile, layers=LAYERS
                        ) -> tuple[dict[str, float], float]:
    """Roll a profile up into per-layer self seconds, span-style.

    A boundary call's own ``tottime`` belongs to its layer.  Any other
    function's ``tottime`` is shared among its callers in proportion to
    the time each call edge took, and passed up until it reaches a
    boundary call, as a span's self time would include it.  Time that
    reaches no boundary call is unattributed.  Returns
    ``(self seconds per layer, total seconds)``.
    """
    boundary: dict[tuple, str] = {}
    for layer in layers:
        for owner, name, _qualname in _resolve(layer):
            key = _code_key(getattr(owner, name))
            if key:
                boundary[key] = layer.name
    stats = pstats.Stats(profile).stats
    shares: dict[tuple, dict[str, float]] = {}

    def attribution(func: tuple, visiting: frozenset) -> dict[str, float]:
        if func in boundary:
            return {boundary[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weight = sum(edge[3] for edge in callers.values())
        result: dict[str, float] = {}
        if weight > 0 and func not in visiting:
            for caller, edge in callers.items():
                for layer, part in attribution(
                        caller, visiting | {func}).items():
                    result[layer] = result.get(layer, 0.0) + (
                        part * edge[3] / weight)
        shares[func] = result
        return result

    per_layer = {layer.name: 0.0 for layer in layers}
    total = 0.0
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        total += tottime
        for layer, part in attribution(func, frozenset()).items():
            per_layer[layer] += tottime * part
    return per_layer, total


def share_error(span_self: dict[str, float], span_total: float,
                profile_self: dict[str, float], profile_total: float
                ) -> tuple[float, Optional[str]]:
    """Largest per-layer difference in share of op time, and its layer."""
    worst, worst_layer = 0.0, None
    if span_total <= 0 or profile_total <= 0:
        return worst, worst_layer
    for layer, seconds in span_self.items():
        error = abs(seconds / span_total
                    - profile_self.get(layer, 0.0) / profile_total)
        if error > worst:
            worst, worst_layer = error, layer
    return worst, worst_layer
