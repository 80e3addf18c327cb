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
purpose; then re-record it and say so.
"""

import dataclasses

import pytest

from repro.faults.chaos import MAX_DISPATCHES, _build_sbi_system
from repro.faults.injector import FaultInjector
from repro.faults.plans import resolve_plan
from repro.snapshot import capture, restore
from repro.spec.platform import VISIONFIVE2
from repro.system import build_native, build_virtualized
from repro.trace.tracer import Tracer

KERNEL_ENTRY = {
    ("opensbi", 1):
        "138c9e6c2a8097713e7fe72d96177d9f0aaed8fcbee65c8a63862ed91e9676b2",
    ("opensbi", 2):
        "42a8ad19fdf95b3b7bf00621dfa2cef0a319a3c7fa1f3aa3275f19b02106a5e0",
    ("opensbi", 4):
        "59962a85a5efa116cc6c2648d8f47771307cb0e8f064d30c5c2c29ca1cbfcd80",
    ("rustsbi", 1):
        "08ea508db15ec7daf93c21647796dbe2b0cf6dfe58e7e34cc9748b90ce5ede36",
    ("rustsbi", 2):
        "1b97e8f3e006a8db0127abec3c0d7530f982be872725ba52ce1935a9b4e7e61c",
    ("rustsbi", 4):
        "97e7049d2adadcab23c9f78c2f0bc22e79c8f6ca8924773f963315a883a5e59b",
}

PRE_BOOT = "a5162b22d3f7173204a7a05295be67c5bf9418625f0e4acd3bf252a356b18ba2"
POST_HALT = "d9e28147032a385e0c35763f91b8f41a2857b4b60c739288274d3df2e4b9d2eb"
NATIVE_POST_HALT = (
    "df8d7f83015b0d3903cd80e0974abe5ff9c532c4befac25a04ebb8060a27b795")
FAULTED_POST_HALT = {
    ("mtvec-smash", 1):
        "f9527158342896327db47e68b7aed70527b2212dbe54a373a367e7bd8e43296c",
    ("transient-mmio", 3):
        "76736bd30b2dee428f3461c07487546b59a790c9d40b067890633a183d059b60",
}
QUARANTINED_UNTRACED = (
    "ccecfa5861dffbe2f6a798772fa589c774718f2161093aedc2c899b243ea0bec")


def _kernel_entry_checkpoint(firmware, harts):
    platform = dataclasses.replace(VISIONFIVE2, num_harts=harts)
    system, _ = _build_sbi_system(platform, firmware)
    machine = system.machine
    machine.max_dispatches = MAX_DISPATCHES
    assert machine.boot_to(system.kernel.entry_point,
                           entry=system.miralis.region.base)
    return capture(machine, phase="kernel-entry")


def _faulted_boot(plan, seed, tracer=None):
    system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
    machine = system.machine
    machine.max_dispatches = MAX_DISPATCHES
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


def test_quarantined_round_trip_through_a_fresh_machine():
    checkpoint = capture(_faulted_boot("mtvec-smash", 1).machine,
                         phase="halted")
    assert checkpoint.digest() == QUARANTINED_UNTRACED
    system, _ = _build_sbi_system(VISIONFIVE2, "opensbi")
    restore(system.machine, checkpoint)
    assert system.miralis.watchdog.quarantined[0]
    recaptured = capture(system.machine, phase=checkpoint.phase)
    assert recaptured.digest() == QUARANTINED_UNTRACED
