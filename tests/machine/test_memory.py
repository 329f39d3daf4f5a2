"""Data-memory tests."""

import re

import pytest

from repro.errors import SimulationError
from repro.linker.program import DATA_BASE, STACK_TOP
from repro.machine.memory import Memory


class TestMemory:
    def test_initial_image_loaded(self):
        memory = Memory(b"\x01\x02\x03\x04")
        assert memory.load(DATA_BASE, 4) == 0x01020304

    def test_uninitialized_reads_zero(self):
        memory = Memory()
        assert memory.load(DATA_BASE + 100, 4) == 0

    def test_image_past_the_extent_is_cut_at_it(self):
        # A program may declare more data than the extent holds: the
        # part in range loads as usual, and nothing past it is reachable.
        memory = Memory(b"\x01" * (STACK_TOP - DATA_BASE + 8))
        assert memory.load(DATA_BASE, 4) == 0x01010101
        assert memory.load(STACK_TOP - 4, 4) == 0x01010101
        with pytest.raises(SimulationError):
            memory.load(STACK_TOP, 4)

    def test_store_load_roundtrip_sizes(self):
        memory = Memory()
        memory.store(DATA_BASE, 4, 0xDEADBEEF)
        assert memory.load(DATA_BASE, 4) == 0xDEADBEEF
        memory.store(DATA_BASE + 8, 1, 0x1FF)  # truncates to a byte
        assert memory.load(DATA_BASE + 8, 1) == 0xFF
        memory.store(DATA_BASE + 12, 2, 0xABCD)
        assert memory.load(DATA_BASE + 12, 2) == 0xABCD

    def test_big_endian_byte_order(self):
        memory = Memory()
        memory.store(DATA_BASE, 4, 0x11223344)
        assert memory.load(DATA_BASE, 1) == 0x11
        assert memory.load(DATA_BASE + 3, 1) == 0x44

    def test_out_of_range_below(self):
        memory = Memory()
        with pytest.raises(SimulationError):
            memory.load(DATA_BASE - 4, 4)

    def test_out_of_range_above(self):
        memory = Memory()
        with pytest.raises(SimulationError):
            memory.load(STACK_TOP - 2, 4)

    def test_stack_region_usable(self):
        memory = Memory()
        memory.store(STACK_TOP - 64, 4, 7)
        assert memory.load(STACK_TOP - 64, 4) == 7


# Boundary table, independent of the executor: both lockstep sides share
# Memory, so only a direct test can catch a bug in it.  The image has no
# zero byte, so a load that silently read the wrong place would show.
EXTENT = STACK_TOP - DATA_BASE
IMAGE = (bytes(range(1, 252)) * (EXTENT // 251 + 1))[:EXTENT]
BOUNDARY_CASES = sorted({
    (size, address)
    for size in (1, 2, 4)
    for address in (
        0, DATA_BASE - size, DATA_BASE - 1, DATA_BASE,
        STACK_TOP - size, STACK_TOP - size + 1, STACK_TOP, 0xFFFFFFFF,
    )
})


def _in_range(size, address):
    return DATA_BASE <= address and address + size <= STACK_TOP


def _refusal(size, address):
    return re.escape(f"memory access at {address:#x} (size {size}) out of range")


@pytest.mark.parametrize("size,address", BOUNDARY_CASES)
def test_boundary_load(size, address):
    memory = Memory(IMAGE)
    if _in_range(size, address):
        offset = address - DATA_BASE
        expected = int.from_bytes(IMAGE[offset : offset + size], "big")
        assert memory.load(address, size) == expected
    else:
        with pytest.raises(SimulationError, match=_refusal(size, address)):
            memory.load(address, size)


@pytest.mark.parametrize("size,address", BOUNDARY_CASES)
def test_boundary_store(size, address):
    memory = Memory(IMAGE)
    value = 0x89ABCDEF
    expected = bytearray(IMAGE)
    if _in_range(size, address):
        offset = address - DATA_BASE
        expected[offset : offset + size] = value.to_bytes(4, "big")[4 - size :]
        memory.store(address, size, value)
    else:
        with pytest.raises(SimulationError, match=_refusal(size, address)):
            memory.store(address, size, value)
    assert memory.snapshot_data(EXTENT) == expected
