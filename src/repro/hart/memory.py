"""Physical memory and the system bus.

The bus routes physical accesses to RAM (sparse, page-allocated) or to MMIO
devices.  Permission enforcement is *not* done here — it happens in the
specification's PMP check before the access reaches the bus, exactly as on
real hardware — but the bus does fault on unmapped addresses.
"""

from __future__ import annotations

from typing import Protocol

from repro.spec.step import BusError

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1

#: Sentinel so the device cache can remember "no device here" distinctly
#: from a cold entry.
_NO_DEVICE = object()
_DEVICE_CACHE_CAP = 1 << 16


class Device(Protocol):
    """An MMIO device occupying a physical address window."""

    base: int
    size: int

    def read(self, offset: int, size: int) -> int: ...

    def write(self, offset: int, size: int, value: int) -> None: ...


class Ram:
    """Sparse byte-addressable RAM; pages are allocated on first touch.

    Pages participate in copy-on-write snapshots: :meth:`snapshot_pages`
    freezes the current pages and hands out *references* (no copying), and
    the first write to a frozen page clones it.  A snapshot therefore costs
    O(pages touched) bookkeeping at capture time and O(pages written)
    copies afterwards — cheap enough for the watchdog to take one per
    firmware activation.  The sparse page dict doubles as the delta
    encoding: a page absent from the dict (or all zero) equals the
    all-zeros base image, so a snapshot *is* the set of page deltas.
    """

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        self._pages: dict[int, bytearray] = {}
        #: Page numbers shared with at least one live snapshot; writes
        #: clone these before mutating (copy-on-write).
        self._frozen: set[int] = set()

    def _page(self, address: int) -> tuple[bytearray, int]:
        """Read path: allocate on first touch, never clone."""
        page_number = address >> _PAGE_SHIFT
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_number] = page
        return page, address & _PAGE_MASK

    def _writable_page(self, address: int) -> tuple[bytearray, int]:
        """Write path: clone a frozen page before handing it out."""
        page_number = address >> _PAGE_SHIFT
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_number] = page
        elif page_number in self._frozen:
            page = bytearray(page)
            self._pages[page_number] = page
            self._frozen.discard(page_number)
        return page, address & _PAGE_MASK

    def read(self, address: int, size: int) -> int:
        end = address + size
        if (address >> _PAGE_SHIFT) == ((end - 1) >> _PAGE_SHIFT):
            page, offset = self._page(address)
            return int.from_bytes(page[offset:offset + size], "little")
        return int.from_bytes(
            bytes(self.read(address + i, 1) for i in range(size)), "little"
        )

    def read_bytes(self, address: int, length: int) -> bytes:
        """``length`` bytes from ``address``: one slice per page spanned.

        Touches (allocates) the same pages per-byte :meth:`read` calls
        would, so a bulk read leaves the page dict as they leave it.
        """
        chunks = []
        end = address + length
        while address < end:
            page, offset = self._page(address)
            stop = min(_PAGE_SIZE, offset + end - address)
            chunks.append(page[offset:stop])
            address += stop - offset
        return b"".join(chunks)

    def write(self, address: int, size: int, value: int) -> None:
        offset = address & _PAGE_MASK
        if offset + size <= _PAGE_SIZE:
            # One page: a live, unfrozen page is written in place without
            # the allocate-or-clone call.
            page_number = address >> _PAGE_SHIFT
            page = self._pages.get(page_number)
            if page is None or page_number in self._frozen:
                page, _ = self._writable_page(address)
            page[offset:offset + size] = value.to_bytes(size, "little")
            return
        for i, byte in enumerate(value.to_bytes(size, "little")):
            page, offset = self._writable_page(address + i)
            page[offset] = byte

    def load_image(self, address: int, image: bytes) -> None:
        """Copy a binary image into RAM."""
        for i, byte in enumerate(image):
            page, offset = self._writable_page(address + i)
            page[offset] = byte

    # -- copy-on-write snapshots ----------------------------------------

    def _page_span(self, start: int | None, stop: int | None) -> tuple[int, int]:
        lo = self.base if start is None else start
        hi = self.base + self.size if stop is None else stop
        return lo >> _PAGE_SHIFT, (hi - 1) >> _PAGE_SHIFT

    def snapshot_pages(self, start: int | None = None,
                       stop: int | None = None) -> dict[int, bytearray]:
        """Freeze and return the page deltas in ``[start, stop)``.

        Pages that are all zero are dropped (from the snapshot *and* the
        live dict): a touched-but-unwritten page equals the base image,
        so keeping it would make snapshot digests depend on read access
        patterns.  The returned dict shares page storage with the Ram —
        both sides clone on their next write, so the snapshot is immune
        to later mutation.
        """
        first, last = self._page_span(start, stop)
        zero = [number for number, page in self._pages.items()
                if first <= number <= last and not any(page)]
        for number in zero:
            del self._pages[number]
            self._frozen.discard(number)
        taken: dict[int, bytearray] = {}
        for number, page in self._pages.items():
            if first <= number <= last:
                taken[number] = page
                self._frozen.add(number)
        return taken

    def restore_pages(self, pages: dict[int, bytearray],
                      start: int | None = None,
                      stop: int | None = None) -> None:
        """Replace the pages in ``[start, stop)`` with a snapshot's.

        Pages created after the snapshot vanish; restored pages are
        re-frozen so the same snapshot can be restored again later.
        """
        first, last = self._page_span(start, stop)
        stale = [number for number in self._pages if first <= number <= last]
        for number in stale:
            del self._pages[number]
            self._frozen.discard(number)
        for number, page in pages.items():
            self._pages[number] = page
            self._frozen.add(number)


class SystemBus:
    """Routes physical accesses to RAM or MMIO devices."""

    def __init__(self, ram: Ram):
        self.ram = ram
        self._devices: list[Device] = []
        # Per-address memo of ``device_at`` results.  Keyed per bus instance
        # (not module-wide) so two machines never share lookups; ``attach``
        # clears it, the only change to the device map.
        self._device_cache: dict[int, object] = {}
        self.device_lookup_hits = 0
        self.device_lookup_misses = 0

    def attach(self, device: Device) -> None:
        for existing in self._devices:
            if device.base < existing.base + existing.size and existing.base < device.base + device.size:
                raise ValueError(
                    f"device at {device.base:#x} overlaps device at {existing.base:#x}"
                )
        self._devices.append(device)
        self._device_cache.clear()

    def device_at(self, address: int) -> Device | None:
        cache = self._device_cache
        found = cache.get(address)
        if found is not None:
            self.device_lookup_hits += 1
            return None if found is _NO_DEVICE else found  # type: ignore[return-value]
        self.device_lookup_misses += 1
        device = self._device_at_uncached(address)
        if len(cache) < _DEVICE_CACHE_CAP:
            cache[address] = _NO_DEVICE if device is None else device
        return device

    def _device_at_uncached(self, address: int) -> Device | None:
        for device in self._devices:
            if device.base <= address < device.base + device.size:
                return device
        return None

    def read(self, address: int, size: int) -> int:
        if self.ram.base <= address and address + size <= self.ram.base + self.ram.size:
            return self.ram.read(address, size)
        device = self.device_at(address)
        if device is not None and address + size <= device.base + device.size:
            return device.read(address - device.base, size)
        raise BusError(f"read of {size}B at unmapped address {address:#x}")

    def write(self, address: int, size: int, value: int) -> None:
        if self.ram.base <= address and address + size <= self.ram.base + self.ram.size:
            self.ram.write(address, size, value)
            return
        device = self.device_at(address)
        if device is not None and address + size <= device.base + device.size:
            device.write(address - device.base, size, value)
            return
        raise BusError(f"write of {size}B at unmapped address {address:#x}")
