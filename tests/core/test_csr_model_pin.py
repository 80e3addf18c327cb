"""Pin of the virtual CSR model: every address, every shipped platform.

``read_csr``/``write_csr`` are the whole interface of Miralis's virtual
CSR emulation.  This test drives them over every platform x CSR address
0x000-0xFFF x a fixed value sequence and hashes what they do: each read's
value or exception type, each write's ``CsrEffect`` or exception type,
and the shadow state the sequence leaves behind.  The digest was recorded
before the emulation moved from if-chains to a per-platform table, so a
change of behaviour at any address shows here even where no unit test
looks.  Existence is checked outright: a virtual CSR exists exactly when
the reference platform implements it (``csr_table``).
"""

from __future__ import annotations

import hashlib

from repro.core.csr_emul import VirtCsrError, read_csr, write_csr
from repro.core.vcpu import VirtContext
from repro.spec.csrs import csr_table
from repro.spec.platform import PLATFORMS

U64 = (1 << 64) - 1

#: Written in order to each CSR on one fresh context: zero, the reserved
#: W-without-R PMP byte, the reserved MPP value 2, alternating bits, a
#: cause-like value, RWX TOR PMP bytes, and all ones (which locks PMP
#: entries, so the order matters and is part of the pin).
VALUES = (
    0,
    0x0202_0202_0202_0202,
    0x1000,
    0x5555_5555_5555_5555,
    0x8000_0000_0000_0003,
    0x0F0F_0F0F_0F0F_0F0F,
    0xAAAA_AAAA_AAAA_AAAA,
    U64,
)
#: The mtime a ``time`` read sees.
MTIME = 0x1234_5678_9ABC

#: sha256 of the transcript below, recorded from the if-chain emulation.
DIGEST = "c95812e2d52e3199936b6d91892ee0ce9b38f9598fd710287cee1472270dbde8"


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except VirtCsrError as exc:
        return type(exc).__name__


def _context(config) -> VirtContext:
    ctx = VirtContext(config)
    # The monitor shrinks the virtual PMP below the physical one (§4.2).
    ctx.virtual_pmp_count = config.pmp_count // 2
    return ctx


def transcript(config, csr: int) -> str:
    ctx = _context(config)
    parts = []
    for value in VALUES:
        parts.append(_outcome(read_csr, ctx, csr, MTIME))
        parts.append(_outcome(write_csr, ctx, csr, value))
    parts.append(_outcome(read_csr, ctx, csr, MTIME))
    parts.append(repr(sorted(ctx.snapshot_state().items())))
    return " ".join(parts)


def model_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(PLATFORMS):
        config = PLATFORMS[name]
        for csr in range(0x1000):
            digest.update(f"{name} {csr:#05x} ".encode())
            digest.update(transcript(config, csr).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_virtual_csr_exists_iff_the_platform_implements_it():
    for config in PLATFORMS.values():
        table = csr_table(config)
        for csr in range(0x1000):
            exists = _outcome(read_csr, _context(config), csr, MTIME) != \
                VirtCsrError.__name__
            assert exists == (csr in table), (config.name, hex(csr))


def test_virtual_csr_model_digest():
    assert model_digest() == DIGEST
