"""Golden checkpoint digests: literal sha256 values, not run-vs-run.

``test_checkpoint.py`` compares two captures of the same tree, so a
change that moves every digest consistently (a renamed state key, a
reordered field, a value copied differently) passes it.  These digests
were recorded before the components took ownership of their own
``snapshot_state``/``restore_state`` pairs, and pin the checkpoint
document byte for byte across any refactor of how state is gathered:

* opensbi and rustsbi at ``kernel-entry`` on VISIONFIVE2 at 1, 2 and 4
  harts (sandbox policy, watchdog armed);
* a pre-boot capture (default policy, no watchdog);
* post-halt captures of finished boots: virtualized, native (no
  monitor), and two faulted boots with a tracer attached, one of which
  quarantines the firmware;
* restore→capture round-trips through fresh machines.

A digest here changes only when the checkpoint *format* changes on
purpose; then re-record it and say so.  ``transient-mmio`` x 3 was
re-recorded when the watchdog gained its trap-storm lists: that boot
halts inside a firmware activation, so its capture carries them.  The two
faulted digests and the untraced quarantine were re-recorded when
trap-stats epochs began keeping their annotation targets (those captures
hold a live activation snapshot); ``UNANNOTATED`` shows nothing else moved.

Every digest here, ``UNANNOTATED`` included, was re-recorded when each
monitor decision got one store and five copies left the document: the
trap stats' ``recovery_counts`` and ``recovery_counts_by_hart``, the
watchdog's ``counters`` and ``events``, and Miralis's ``emulation_count``.
Each new value is the digest of the previous document with exactly those
keys removed.  Documents that still carry them restore unchanged
(:func:`test_document_with_the_removed_copies_still_restores`).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.faults.chaos import _build_sbi_system
from repro.faults.injector import FaultInjector
from repro.faults.plans import resolve_plan
from repro.hart.machine import CASE_DISPATCH_LIMIT
from repro.snapshot import Checkpoint, capture, restore
from repro.spec.platform import VISIONFIVE2
from repro.system import build_native, build_virtualized
from repro.trace.tracer import Tracer

KERNEL_ENTRY = {
    ("opensbi", 1):
        "bd78c6b16d07dae8c946b4b2877b676a7eb9d932ff6ab366da8caa1d0850cff3",
    ("opensbi", 2):
        "d2453aa91902c927df2cdb2ea1dd080a76da21ddd805b7dd30482ee0ec1fa0bc",
    ("opensbi", 4):
        "d37ea84e187f97bbe6a330bc2afb415dc5c0742b961615cfe17a3d76f99f87f1",
    ("rustsbi", 1):
        "3a83f7053e9c7440206efc2b474105f3348ec2d5062244f885c9e05dc183433b",
    ("rustsbi", 2):
        "f1ead685afa8a5938490a77a872f5a26b6d41a1476285111434f5d002301305a",
    ("rustsbi", 4):
        "aa7d8f2c6783ec1d48ddfbc05cda9fc125472e4d9c76f2d18743a75982e83b6a",
}

PRE_BOOT = "d7506fcba1a5dd3e757c72fc42e9a1543672bd22363e48acf14aa64d75e75817"
POST_HALT = "bacf9985ce27b16788f867f094a950f646a05a3a907a385fe3a5269c3383a652"
NATIVE_POST_HALT = (
    "efb877e10514ff36d6034b2274277ddf8cb7491c559051ad09a050b6a67ab485")
FAULTED_POST_HALT = {
    ("mtvec-smash", 1):
        "0e9695332af87720a22cec7e5dcf6c642d255911fa6fccebc230c33717d5c9ae",
    ("transient-mmio", 3):
        "a734537a94ecf77d10ea7ce7fafe2b3c65da71a06a33a46160e0360f7e7003c2",
}
QUARANTINED_UNTRACED = (
    "7ea59c75ce08edc14c63e289e2e56d8539feb1be55129d9250cb0ad4f6f30967")

#: The digests above re-recorded when trap-stats epochs began keeping the
#: annotation targets, keyed like ``FAULTED_POST_HALT`` (the untraced
#: quarantine under ``"quarantined"``) and mapped to the digest of the
#: document without those targets, handler counts, or any trap event's
#: handler and detail, recorded before that change.  These still match,
#: so the change moved the epochs' targets and annotations and nothing else.
#: (Re-recorded with the other digests when the five copies left the
#: document.)
UNANNOTATED = {
    ("mtvec-smash", 1):
        "b8e434a933fa564f599d9d395051649d014f45ea655f422de0aba86b47df2309",
    ("transient-mmio", 3):
        "6afb924863f1a9820cf01925525a09885a5556dbcf41c4f41d55cf069e8e0eba",
    "quarantined":
        "2ca481ee3138e365f3ec6fcf501215aa430a64bf5d7e49ddfb96a9bbd303b3e7",
}

#: Epoch keys naming annotation targets.
_TARGET_KEYS = ("last_hart", "last_by_hart", "injected_by_hart")


def _unannotated(value):
    """A checkpoint document without annotation targets or annotations."""
    if isinstance(value, list):
        return [_unannotated(item) for item in value]
    if not isinstance(value, dict):
        return value
    if set(value) == {"~trap"}:
        return {"~trap": value["~trap"][:5]}
    return {key: _unannotated(item) for key, item in value.items()
            if key not in _TARGET_KEYS and key != "handler_counts"}


def _unannotated_digest(checkpoint) -> str:
    encoded = json.dumps(_unannotated(checkpoint.doc()), sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def _kernel_entry_checkpoint(firmware, harts):
    platform = dataclasses.replace(VISIONFIVE2, num_harts=harts)
    system, _ = _build_sbi_system(platform, firmware)
    machine = system.machine
    machine.max_dispatches = CASE_DISPATCH_LIMIT
    assert machine.boot_to(system.kernel.entry_point,
                           entry=system.miralis.region.base)
    return capture(machine, phase="kernel-entry")


def _faulted_boot(plan, seed, tracer=None):
    system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
    machine = system.machine
    machine.max_dispatches = CASE_DISPATCH_LIMIT
    machine.tracer = tracer
    machine.install_fault_injector(
        FaultInjector(resolve_plan(plan, seed=seed), seed=seed))
    machine.boot(entry=system.miralis.region.base)
    return system


@pytest.mark.parametrize("firmware,harts", sorted(KERNEL_ENTRY))
def test_kernel_entry_digest(firmware, harts):
    checkpoint = _kernel_entry_checkpoint(firmware, harts)
    assert checkpoint.digest() == KERNEL_ENTRY[firmware, harts]


def test_pre_boot_digest():
    system = build_virtualized(VISIONFIVE2)
    assert capture(system.machine, phase="pre-boot").digest() == PRE_BOOT


def test_post_halt_digest():
    system = build_virtualized(VISIONFIVE2)
    system.run()
    assert system.machine.halted
    assert capture(system.machine, phase="halted").digest() == POST_HALT


def test_native_post_halt_digest():
    system = build_native(VISIONFIVE2)
    system.run()
    assert capture(system.machine,
                   phase="halted").digest() == NATIVE_POST_HALT


@pytest.mark.parametrize("plan,seed", sorted(FAULTED_POST_HALT))
def test_faulted_post_halt_digest(plan, seed):
    system = _faulted_boot(plan, seed, tracer=Tracer())
    assert system.miralis.watchdog.counters["recoveries"] > 0
    checkpoint = capture(system.machine, phase="halted")
    assert checkpoint.digest() == FAULTED_POST_HALT[plan, seed]


def test_kernel_entry_round_trip_through_a_fresh_machine():
    checkpoint = _kernel_entry_checkpoint("opensbi", 2)
    platform = dataclasses.replace(VISIONFIVE2, num_harts=2)
    system, _ = _build_sbi_system(platform, "opensbi")
    restore(system.machine, checkpoint)
    recaptured = capture(system.machine, phase=checkpoint.phase)
    assert recaptured.digest() == KERNEL_ENTRY["opensbi", 2]


def test_document_with_the_removed_copies_still_restores():
    """A document written while decisions were still counted in copies
    (five keys no longer captured) restores to the same machine."""
    checkpoint = _kernel_entry_checkpoint("opensbi", 1)
    doc = checkpoint.doc()
    state = doc["state"]
    counts = {"recoveries": 1, "retries": 1}
    state["stats"]["recovery_counts"] = dict(counts)
    state["stats"]["recovery_counts_by_hart"] = {"~dmap": [[0, dict(counts)]]}
    monitor = state["monitor"]
    monitor["emulation_count"] = state["stats"]["firmware_emulations"]
    monitor["watchdog"]["counters"] = dict(counts)
    monitor["watchdog"]["events"] = [{"~tuple": [0, "recover", "old"]}]
    platform = dataclasses.replace(VISIONFIVE2, num_harts=1)
    system, _ = _build_sbi_system(platform, "opensbi")
    restore(system.machine, Checkpoint.from_doc(doc))
    recaptured = capture(system.machine, phase=checkpoint.phase)
    assert recaptured.digest() == checkpoint.digest()


def test_quarantined_round_trip_through_a_fresh_machine():
    checkpoint = capture(_faulted_boot("mtvec-smash", 1).machine,
                         phase="halted")
    assert checkpoint.digest() == QUARANTINED_UNTRACED
    system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
    restore(system.machine, checkpoint)
    assert system.miralis.watchdog.quarantined[0]
    recaptured = capture(system.machine, phase=checkpoint.phase)
    assert recaptured.digest() == QUARANTINED_UNTRACED


@pytest.mark.parametrize("case", sorted(UNANNOTATED, key=str))
def test_rerecorded_digest_moved_only_annotations(case):
    if case == "quarantined":
        system = _faulted_boot("mtvec-smash", 1)
    else:
        system = _faulted_boot(*case, tracer=Tracer())
    checkpoint = capture(system.machine, phase="halted")
    assert _unannotated_digest(checkpoint) == UNANNOTATED[case]
