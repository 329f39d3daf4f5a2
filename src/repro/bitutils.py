"""Bit-level helpers shared by the ISA, compressor, and simulator.

PowerPC documentation numbers bits big-endian: bit 0 is the most
significant bit of the 32-bit word.  All helpers here follow that
convention so field definitions can be copied straight from the
architecture manual.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

WORD_BITS = 32
WORD_MASK = 0xFFFF_FFFF


def mask(width: int) -> int:
    """Return a mask of ``width`` one-bits."""
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def extract(word: int, start: int, width: int) -> int:
    """Extract ``width`` bits from ``word`` starting at big-endian bit ``start``.

    ``extract(w, 0, 6)`` returns the primary opcode of a PowerPC word.
    """
    if start < 0 or width <= 0 or start + width > WORD_BITS:
        raise ValueError(f"bad field [{start}:{start + width}) in 32-bit word")
    shift = WORD_BITS - start - width
    return (word >> shift) & mask(width)


def deposit(word: int, start: int, width: int, value: int) -> int:
    """Return ``word`` with ``value`` placed in the big-endian field."""
    if start < 0 or width <= 0 or start + width > WORD_BITS:
        raise ValueError(f"bad field [{start}:{start + width}) in 32-bit word")
    if value < 0 or value > mask(width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    shift = WORD_BITS - start - width
    return (word & ~(mask(width) << shift) & WORD_MASK) | (value << shift)


def sign_extend(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    value &= mask(width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def to_twos_complement(value: int, width: int) -> int:
    """Encode a signed ``value`` into ``width`` bits, validating range."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"{value} out of range for signed {width}-bit field")
    return value & mask(width)


def fits_signed(value: int, width: int) -> bool:
    """True if ``value`` is representable as a signed ``width``-bit integer."""
    return -(1 << (width - 1)) <= value <= (1 << (width - 1)) - 1


def fits_unsigned(value: int, width: int) -> bool:
    """True if ``value`` is representable as an unsigned ``width``-bit integer."""
    return 0 <= value <= mask(width)


def u32(value: int) -> int:
    """Wrap ``value`` to an unsigned 32-bit integer."""
    return value & WORD_MASK


def s32(value: int) -> int:
    """Wrap ``value`` to a signed 32-bit integer."""
    return sign_extend(value & WORD_MASK, 32)


def cdiv(a: int, b: int) -> int:
    """C-style (truncating toward zero) signed division, like ``divw``."""
    if b == 0:
        raise ZeroDivisionError("division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def cmod(a: int, b: int) -> int:
    """C-style remainder: ``a - cdiv(a, b) * b``."""
    return a - cdiv(a, b) * b


def rotl32(value: int, amount: int) -> int:
    """Rotate a 32-bit value left by ``amount`` bits."""
    amount &= 31
    value &= WORD_MASK
    return ((value << amount) | (value >> (32 - amount))) & WORD_MASK


def words_to_bytes(words: Iterable[int]) -> bytes:
    """Serialize 32-bit words big-endian (PowerPC memory order)."""
    out = bytearray()
    for word in words:
        out += u32(word).to_bytes(4, "big")
    return bytes(out)


def bytes_to_words(data: bytes) -> list[int]:
    """Deserialize big-endian bytes into 32-bit words."""
    if len(data) % 4:
        raise ValueError(f"byte length {len(data)} is not a multiple of 4")
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)]


class BitWriter:
    """Accumulates values most-significant-bit first into a byte stream.

    Used by the Huffman-coded baselines: variable-length codes are
    appended in order, and the final stream is padded to a whole byte.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._acc: int = 0  # partial byte accumulator (< 8 bits)
        self._acc_bits: int = 0
        self._nbits: int = 0

    def write(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value``."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or value > mask(width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._nbits += width
        acc = (self._acc << width) | value
        acc_bits = self._acc_bits + width
        while acc_bits >= 8:
            acc_bits -= 8
            self._buffer.append((acc >> acc_bits) & 0xFF)
        self._acc = acc & mask(acc_bits)
        self._acc_bits = acc_bits

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a byte boundary."""
        out = bytes(self._buffer)
        if self._acc_bits:
            out += bytes([(self._acc << (8 - self._acc_bits)) & 0xFF])
        return out


class BitReader:
    """Reads values most-significant-bit first from a byte stream."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    @property
    def bit_position(self) -> int:
        """Current read position in bits from the start of the stream."""
        return self._pos

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits left in the stream."""
        return len(self._data) * 8 - self._pos

    def seek_bit(self, bit_position: int) -> None:
        """Jump to an absolute bit position (used for branch targets)."""
        if bit_position < 0 or bit_position > len(self._data) * 8:
            raise ValueError(f"bit position {bit_position} out of range")
        self._pos = bit_position

    def read(self, width: int) -> int:
        """Read ``width`` bits; raises ``EOFError`` past end of stream."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if self._pos + width > len(self._data) * 8:
            raise EOFError("bit stream exhausted")
        value = 0
        pos = self._pos
        remaining = width
        while remaining:
            byte = self._data[pos // 8]
            offset = pos % 8
            take = min(8 - offset, remaining)
            chunk = (byte >> (8 - offset - take)) & mask(take)
            value = (value << take) | chunk
            pos += take
            remaining -= take
        self._pos = pos
        return value

    def peek(self, width: int) -> int:
        """Read ``width`` bits without advancing."""
        saved = self._pos
        try:
            return self.read(width)
        finally:
            self._pos = saved


def iter_nibbles(data: bytes) -> Iterator[int]:
    """Yield the 4-bit nibbles of ``data``, high nibble first."""
    for byte in data:
        yield byte >> 4
        yield byte & 0xF
