"""Canned fault plans for the chaos suite.

Each plan exercises one recovery path in the monitor's watchdog; the
``random_plan`` generator composes specs pseudo-randomly for broader
chaos campaigns.  Plans are data — the injector interprets them — so
adding a scenario means adding an entry here, not new hook code.
"""

from __future__ import annotations

import json
import random

from repro.faults.injector import FaultPlan, FaultSpec
from repro.isa import constants as c

#: CSRs worth corrupting: trap vector, status, delegation, interrupts.
_INTERESTING_CSRS = (
    c.CSR_MTVEC, c.CSR_MSTATUS, c.CSR_MEDELEG,
    c.CSR_MIDELEG, c.CSR_MIE, c.CSR_MEPC, c.CSR_MSCRATCH,
)

#: Control plan: no faults at all.  Chaos runs under it must behave
#: exactly like a plain virtualized boot.
NONE = FaultPlan("none", (), "control plan — no faults")

#: Low-probability random bit flips on all virtual CSR writes.
CSR_CHAOS = FaultPlan(
    "csr-chaos",
    (FaultSpec("vcsr-write", probability=0.02, limit=4),),
    "random single-bit corruption of virtual CSR writes",
)

#: Deterministically smash the firmware's trap vector at the moment boot
#: installs it.  The next virtual trap lands at a garbage address,
#: forcing the watchdog's bad-vector recovery.
MTVEC_SMASH = FaultPlan(
    "mtvec-smash",
    (FaultSpec("vcsr-write", csr=c.CSR_MTVEC, limit=1,
               xor_mask=0x7F00_0000_0000),),
    "corrupt the virtual mtvec so trap delivery targets unmapped memory",
)

#: Sporadic transient bus errors on every modelled device.
TRANSIENT_MMIO = FaultPlan(
    "transient-mmio",
    (FaultSpec("mmio", probability=0.04, limit=6),),
    "transient bus errors on CLINT/PLIC/UART/vCLINT accesses",
)

#: A badly seated UART: a quarter of accesses fail.
FLAKY_UART = FaultPlan(
    "flaky-uart",
    (FaultSpec("mmio", device="uart", probability=0.25, limit=24),),
    "high-rate transient bus errors on the UART only",
)

#: Occasionally flip a decoded firmware instruction to an illegal one.
DECODE_FLIP = FaultPlan(
    "decode-flip",
    (FaultSpec("decode", probability=0.02, limit=4),),
    "flip decoded firmware instructions to illegal encodings",
)

#: After the firmware has handled a few dozen traps, stop emulating:
#: every subsequent trap re-executes the same instruction forever.  The
#: watchdog's no-progress storm detector ends each stalled activation
#: after ``max_fault_repeats`` repeats.
STALL_LOOP = FaultPlan(
    "stall-loop",
    (FaultSpec("stall", after=30),),
    "wedge the firmware in a runaway trap loop (tests the storm detector)",
)

#: A decision index no real run reaches: pads below arm a site without
#: ever firing (and, with probability 1.0, without consuming RNG draws).
_NEVER = 1_000_000_000

#: The mtvec-smash core buried under seven dead fault specs spanning
#: every injection site.  Exists for the triage shrinker: delta
#: debugging must reduce this 8-spec plan back to its 1-minimal core
#: while reproducing the byte-identical failure signature.
PADDED_MTVEC = FaultPlan(
    "padded-mtvec",
    (
        FaultSpec("mmio", device="clint", after=_NEVER),
        FaultSpec("mmio", device="plic", after=_NEVER),
        FaultSpec("vcsr-write", csr=c.CSR_MSCRATCH, after=_NEVER),
        FaultSpec("vcsr-write", csr=c.CSR_MTVEC, limit=1,
                  xor_mask=0x7F00_0000_0000),
        FaultSpec("decode", after=_NEVER),
        FaultSpec("mmio", device="uart", after=_NEVER),
        FaultSpec("stall", after=_NEVER),
        FaultSpec("mmio", device="vclint", after=_NEVER),
    ),
    "mtvec-smash padded with seven inert specs (shrinker exercise)",
)

PLANS: dict[str, FaultPlan] = {
    plan.name: plan
    for plan in (NONE, CSR_CHAOS, MTVEC_SMASH, TRANSIENT_MMIO,
                 FLAKY_UART, DECODE_FLIP, STALL_LOOP, PADDED_MTVEC)
}

#: The fixed set the chaos suite runs per firmware (≥ 5 plans).
CHAOS_SUITE = ("csr-chaos", "mtvec-smash", "transient-mmio",
               "flaky-uart", "decode-flip", "stall-loop")


def random_plan(seed: int) -> FaultPlan:
    """Compose 1–3 random fault specs, deterministically from ``seed``."""
    rng = random.Random(seed)
    specs = []
    for _ in range(rng.randint(1, 3)):
        site = rng.choice(("vcsr-write", "mmio", "decode", "stall"))
        if site == "vcsr-write":
            specs.append(FaultSpec(
                site,
                probability=rng.choice((0.01, 0.05, 1.0)),
                after=rng.randint(0, 8),
                limit=rng.randint(1, 4),
                csr=rng.choice((None,) + _INTERESTING_CSRS),
            ))
        elif site == "mmio":
            specs.append(FaultSpec(
                site,
                probability=rng.choice((0.02, 0.1, 0.5)),
                after=rng.randint(0, 16),
                limit=rng.randint(1, 12),
                device=rng.choice((None, "clint", "plic", "uart", "vclint")),
                kind=rng.choice((None, "read", "write")),
            ))
        elif site == "decode":
            specs.append(FaultSpec(
                site,
                probability=rng.choice((0.01, 0.05)),
                after=rng.randint(0, 32),
                limit=rng.randint(1, 3),
            ))
        else:  # stall
            specs.append(FaultSpec(site, after=rng.randint(20, 200)))
    return FaultPlan(
        f"random-{seed}", tuple(specs),
        f"randomly composed plan (seed={seed})",
    )


def resolve_plan(name_or_plan, seed: int = 0) -> FaultPlan:
    """Resolve a plan from any serializable form.

    Accepts a :class:`FaultPlan`, a canned-plan name, ``"random"``
    (composed from ``seed``), a plan dict (:meth:`FaultPlan.to_dict`
    output, as carried by repro bundles), or that dict as a JSON string
    (how shrink candidates cross the campaign-pool process boundary).
    """
    if isinstance(name_or_plan, FaultPlan):
        return name_or_plan
    if isinstance(name_or_plan, dict):
        return FaultPlan.from_dict(name_or_plan)
    if isinstance(name_or_plan, str) and name_or_plan.lstrip().startswith("{"):
        return FaultPlan.from_dict(json.loads(name_or_plan))
    if name_or_plan == "random":
        return random_plan(seed)
    try:
        return PLANS[name_or_plan]
    except (KeyError, TypeError):
        known = ", ".join(sorted(PLANS) + ["random"])
        raise ValueError(
            f"unknown fault plan {name_or_plan!r} (known: {known})"
        ) from None
