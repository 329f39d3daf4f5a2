"""Byte-addressable data memory (big-endian, like PowerPC)."""

from __future__ import annotations

import mmap
import struct

from repro.errors import SimulationError
from repro.linker.program import DATA_BASE, STACK_TOP

# Big-endian accessors and value masks by access size.
_STRUCTS = {1: struct.Struct(">B"), 2: struct.Struct(">H"), 4: struct.Struct(">I")}
_UNPACK = {size: layout.unpack_from for size, layout in _STRUCTS.items()}
_PACK = {size: layout.pack_into for size, layout in _STRUCTS.items()}
_MASK = {size: (1 << (8 * size)) - 1 for size in _STRUCTS}


def _out_of_range(address: int, size: int) -> SimulationError:
    return SimulationError(f"memory access at {address:#x} (size {size}) out of range")


class Memory:
    """Flat memory covering [DATA_BASE, STACK_TOP).

    .text is not mapped: the programs this toolchain produces never
    load from the text section (jump tables live in .data), which is
    exactly the property that lets the compressed-program processor
    keep only compressed bytes in instruction memory.

    Each access is one range test on the offset and one ``struct``
    call.  The test comes first: ``unpack_from`` reads a negative
    offset from the end of the buffer, so an address below
    ``DATA_BASE`` would otherwise read stack bytes.

    The extent is a private anonymous ``mmap``, so the kernel zeroes
    its pages on first touch: a run pays for the data image and the
    stack it uses, not for a 4 MB fill.
    """

    def __init__(self, data_image: bytes | bytearray = b"") -> None:
        self.base = DATA_BASE
        self.limit = STACK_TOP
        self._extent = self.limit - self.base
        self._bytes = mmap.mmap(-1, self._extent, flags=mmap.MAP_PRIVATE)
        # No access reaches past the extent, so neither does the image.
        image = data_image[: self._extent]
        self._bytes[: len(image)] = image

    def load(self, address: int, size: int) -> int:
        """Zero-extended load of 1, 2, or 4 bytes."""
        offset = address - self.base
        if not 0 <= offset <= self._extent - size:
            raise _out_of_range(address, size)
        return _UNPACK[size](self._bytes, offset)[0]

    def store(self, address: int, size: int, value: int) -> None:
        offset = address - self.base
        if not 0 <= offset <= self._extent - size:
            raise _out_of_range(address, size)
        _PACK[size](self._bytes, offset, value & _MASK[size])

    def snapshot_data(self, length: int) -> bytes:
        """Copy of the first ``length`` bytes of the data segment."""
        return self._bytes[:length]
