"""Codeword encodings (paper sections 4.1, 4.1.2, 4.1.3).

An :class:`Encoding` defines the codeword space:

* how many codewords exist and how many bits the *k*-th (rank-ordered)
  codeword occupies,
* the stream alignment unit ("all instructions, compressed and
  uncompressed, are aligned to the size of the smallest codeword"),
* how many bits an *uncompressed* instruction occupies in the stream
  (32, or 36 for the nibble scheme whose escape nibble precedes it),
* how items are written to and read back from the stream.

Three concrete encodings reproduce the paper:

=================  =========  ==========  ===========================
encoding           codeword   alignment   capacity
=================  =========  ==========  ===========================
Baseline           16 bits    16 bits     32 escapes x 256 = 8192
OneByte            8 bits     8 bits      the 32 escape bytes
Nibble             4/8/12/16  4 bits      8 + 64 + 512 + 4096 = 4680
=================  =========  ==========  ===========================

**Hex emit.**  Every item of all three encodings is a whole number of
nibbles (paper section 4.1), so streams are written as hex digits, not
bits.  A codeword is the digits :meth:`Encoding.codeword_hex` gives its
rank: 4 for baseline, 2 for one-byte, 1-4 for nibble.  An escaped
instruction is :attr:`Encoding.escape_hex` (``"f"``, the nibble escape;
empty for the byte encodings) followed by the word's 8 digits.  A
stream is then one ``"".join`` (with a ``%08x`` slot per instruction,
filled from the item columns' carried words by one ``%``), a ``"0"``
pad when the digit count is odd, and one ``bytes.fromhex``.

**Classification tables.**  Reading classifies items through prefix
tables, the table-driven decoding of Plaisance, Kurz and Lemire's
vectorized VByte.  The nibble family maps a 16-bit prefix to the item
length (9 nibbles for the escape) and codeword rank: the first nibble
picks the band, and the longest codeword fits in the prefix.  The byte
encodings map the first byte to its escape rank (-1 for an
instruction).  The tables are built from the band layout and escape
bytes, never from the emit digits, so a verify pass decodes
independently of the serializer.  They are built once per process per
:func:`encoding_token` and shared by :meth:`Encoding.matches_tokens`
(the compressor's stream verification) and the bulk decoder of
:mod:`repro.machine.bulkdecode`.  :meth:`Encoding.read_item` reads one
item at a time through a :class:`~repro.bitutils.BitReader`; it is the
error path of verification and the lenient decoder's reader.
"""

from __future__ import annotations

from array import array

from repro import bitutils
from repro.errors import CompressionError, DecompressionError
from repro.isa.opcodes import ILLEGAL_PRIMARY_OPCODES, escape_bytes


def encoding_token(encoding: "Encoding") -> tuple:
    """A hashable identity for an encoding's stream format."""
    token: tuple = (
        type(encoding).__name__,
        encoding.name,
        encoding.alignment_bits,
        encoding.instruction_bits,
        getattr(encoding, "max_codewords", None),
    )
    allocation = getattr(encoding, "allocation", None)
    if allocation is not None:
        token += (tuple(sorted(allocation.items())),)
    return token


class PrefixTables:
    """Item classification over a fixed-width stream prefix.

    ``ranks[prefix]`` is the codeword rank the prefix starts (byte
    encodings: the escape rank, -1 for an instruction).  ``lens`` is
    the nibble family's item length in nibbles per prefix, 9 for the
    escape, 0 for a first nibble no band owns; ``None`` for the byte
    encodings, whose item length follows from the rank's sign.
    """

    __slots__ = ("lens", "ranks")

    def __init__(self, lens: bytearray | None, ranks: array) -> None:
        self.lens = lens
        self.ranks = ranks


# Classification tables per encoding_token(), built once per process.
_PREFIX_TABLES: dict[tuple, PrefixTables] = {}


def clear_tables() -> None:
    """Drop the cached classification tables (tests, memory pressure)."""
    _PREFIX_TABLES.clear()


class Encoding:
    """Interface for codeword spaces."""

    name: str = "abstract"
    alignment_bits: int = 8
    instruction_bits: int = 32  # stream cost of one uncompressed instruction
    escape_hex: str = ""  # digits emitted before an uncompressed word

    @property
    def capacity(self) -> int:
        """Maximum number of codewords."""
        raise NotImplementedError

    def codeword_bits(self, rank: int) -> int:
        """Stream bits of the codeword with rank ``rank`` (0 = shortest)."""
        raise NotImplementedError

    def codeword_hex(self, rank: int) -> str:
        """The hex digits of the codeword with rank ``rank``."""
        raise NotImplementedError

    def codeword_unit_sizes(self) -> bytes:
        """Stream units of every codeword, indexed by rank."""
        raise NotImplementedError

    def read_item(self, reader: bitutils.BitReader) -> tuple[str, int]:
        """Read one stream item: ('cw', rank) or ('ins', word)."""
        raise NotImplementedError

    def matches_tokens(self, stream: bytes, columns) -> bool:
        """True iff ``stream`` is exactly the items of ``columns``.

        Each item's kind, rank or 32-bit word, and unit address (the
        :class:`~repro.core.replace.TokenColumns` ``kinds``, ``values``
        and ``addresses``) must match the item classified there, and the
        stream must end with the last item plus zero padding to a
        whole byte.  Only says whether; ``read_item`` walks find where.
        """
        raise NotImplementedError

    def _build_prefix_tables(self) -> PrefixTables:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def units(self, bits: int) -> int:
        """Convert a bit count to alignment units (must divide evenly)."""
        if bits % self.alignment_bits:
            raise CompressionError(
                f"{self.name}: {bits} bits not aligned to {self.alignment_bits}"
            )
        return bits // self.alignment_bits

    def instruction_units(self) -> int:
        return self.units(self.instruction_bits)

    def codeword_units(self, rank: int) -> int:
        return self.units(self.codeword_bits(rank))

    # Escape overhead of one codeword, in bits (paper Figure 9 splits
    # codeword bytes into escape bytes and index bytes).
    def escape_bits(self, rank: int) -> int:
        raise NotImplementedError

    def prefix_tables(self) -> PrefixTables:
        """This encoding's classification tables, built once per process."""
        token = encoding_token(self)
        tables = _PREFIX_TABLES.get(token)
        if tables is None:
            tables = _PREFIX_TABLES[token] = self._build_prefix_tables()
        return tables


class _ByteAlignedEncoding(Encoding):
    """The two escape-byte encodings: a first byte whose top 6 bits are
    an illegal primary opcode starts a codeword, any other byte a 4-byte
    uncompressed instruction.  ``_indexed`` codewords add an index byte
    to the escape byte (baseline); otherwise the escape byte is the
    whole codeword (one-byte)."""

    instruction_bits = 32
    _indexed: bool

    def __init__(self, max_codewords: int) -> None:
        self.max_codewords = max_codewords
        self._escapes = escape_bytes()

    @property
    def capacity(self) -> int:
        return self.max_codewords

    def codeword_bits(self, rank: int) -> int:
        if rank >= self.max_codewords:
            raise CompressionError(f"rank {rank} beyond capacity")
        return self.alignment_bits

    def codeword_unit_sizes(self) -> bytes:
        return b"\x01" * self.max_codewords

    def _build_prefix_tables(self) -> PrefixTables:
        ranks = array("i", [-1]) * 256
        for rank, byte in enumerate(self._escapes):
            ranks[byte] = rank
        return PrefixTables(None, ranks)

    def matches_tokens(self, stream: bytes, columns) -> bool:
        escape_ranks = self.prefix_tables().ranks
        indexed = self._indexed
        unit_bytes = self.alignment_bits // 8  # also a codeword's bytes
        position = 0  # byte cursor
        try:
            for is_codeword, value, address in zip(
                columns.kinds, columns.values, columns.addresses
            ):
                if address * unit_bytes != position:
                    return False
                rank = escape_ranks[stream[position]]
                if rank < 0:
                    word = int.from_bytes(stream[position : position + 4], "big")
                    if is_codeword or word != value:
                        return False
                    position += 4
                else:
                    if indexed:
                        rank = (rank << 8) | stream[position + 1]
                    if not is_codeword or rank != value:
                        return False
                    position += unit_bytes
        except IndexError:
            return False
        return position == len(stream)


class BaselineEncoding(_ByteAlignedEncoding):
    """2-byte codewords: illegal-opcode escape byte + index byte.

    PowerPC has 8 illegal 6-bit primary opcodes; with the remaining two
    bits of the byte free, 32 escape byte values exist, each followed
    by one index byte: up to 8192 codewords (paper section 4.1).
    Programs compressed this way remain supersets of valid PowerPC:
    a processor that knows the escapes can also run original binaries.
    """

    name = "baseline"
    alignment_bits = 16
    _indexed = True

    def __init__(self, max_codewords: int = 8192) -> None:
        if not 1 <= max_codewords <= 8192:
            raise CompressionError("baseline supports 1..8192 codewords")
        super().__init__(max_codewords)

    def escape_bits(self, rank: int) -> int:
        return 8

    def codeword_hex(self, rank: int) -> str:
        return "%02x%02x" % (self._escapes[rank >> 8], rank & 0xFF)

    def read_item(self, reader: bitutils.BitReader) -> tuple[str, int]:
        first = reader.peek(8)
        if (first >> 2) in ILLEGAL_PRIMARY_OPCODES:
            escape = reader.read(8)
            index = reader.read(8)
            try:
                escape_rank = self._escapes.index(escape)
            except ValueError as exc:  # pragma: no cover - peek guarantees
                raise DecompressionError(f"bad escape byte {escape:#x}") from exc
            return ("cw", (escape_rank << 8) | index)
        return ("ins", reader.read(32))


class OneByteEncoding(_ByteAlignedEncoding):
    """1-byte codewords for small dictionaries (paper section 4.1.2).

    The 32 escape byte values themselves are the codewords, so at most
    32 dictionary entries exist — the paper evaluates 8, 16, and 32
    (128/256/512-byte dictionaries at 16 bytes per entry).
    """

    name = "onebyte"
    alignment_bits = 8
    _indexed = False

    def __init__(self, max_codewords: int = 32) -> None:
        if not 1 <= max_codewords <= 32:
            raise CompressionError("one-byte encoding supports 1..32 codewords")
        super().__init__(max_codewords)

    def escape_bits(self, rank: int) -> int:
        # The whole byte both escapes and indexes; count it as escape
        # overhead zero so Figure 9 style accounting sums correctly.
        return 0

    def codeword_hex(self, rank: int) -> str:
        return "%02x" % self._escapes[rank]

    def read_item(self, reader: bitutils.BitReader) -> tuple[str, int]:
        first = reader.peek(8)
        if (first >> 2) in ILLEGAL_PRIMARY_OPCODES:
            return ("cw", self._escapes.index(reader.read(8)))
        return ("ins", reader.read(32))


class CustomNibbleEncoding(Encoding):
    """Nibble-aligned codewords with a configurable first-nibble split.

    ``allocation`` maps codeword length in nibbles (1..4) to how many of
    the 16 first-nibble values that band owns.  One value is always
    reserved as the escape prefix for uncompressed instructions, so the
    bands must sum to 15.  A band owning ``k`` first-nibble values of
    length ``n`` nibbles provides ``k * 16**(n-1)`` codewords.

    The paper presents one allocation ("the best encoding choice we
    have discovered") and notes other programs may prefer others; the
    ``ext_encoding_search`` experiment sweeps this space.
    """

    alignment_bits = 4
    instruction_bits = 36  # escape nibble + original word
    _escape_value = 15
    escape_hex = "f"

    def __init__(
        self,
        allocation: dict[int, int],
        max_codewords: int | None = None,
        name: str = "nibble-custom",
    ) -> None:
        self.name = name
        self.allocation = dict(allocation)
        total_values = sum(self.allocation.get(n, 0) for n in (1, 2, 3, 4))
        if total_values != 15:
            raise CompressionError(
                f"first-nibble bands must sum to 15 (escape takes the 16th), "
                f"got {total_values}"
            )
        # Bands in increasing codeword size: (nibbles, first_value, count).
        self._bands: list[tuple[int, int, int]] = []
        first_value = 0
        capacity = 0
        for nibbles in (1, 2, 3, 4):
            values = self.allocation.get(nibbles, 0)
            if values:
                self._bands.append((nibbles, first_value, values * 16 ** (nibbles - 1)))
                first_value += values
                capacity += values * 16 ** (nibbles - 1)
        self._full_capacity = capacity
        if max_codewords is None:
            max_codewords = capacity
        if not 1 <= max_codewords <= capacity:
            raise CompressionError(
                f"{name} supports 1..{capacity} codewords, got {max_codewords}"
            )
        self.max_codewords = max_codewords

    @property
    def capacity(self) -> int:
        return self.max_codewords

    def _band_of(self, rank: int) -> tuple[int, int, int, int]:
        """(nibbles, first_value, band_size, rank_base) for ``rank``."""
        base = 0
        for nibbles, first_value, size in self._bands:
            if rank < base + size:
                return nibbles, first_value, size, base
            base += size
        raise CompressionError(f"rank {rank} beyond capacity")

    def codeword_bits(self, rank: int) -> int:
        if rank >= self.max_codewords:
            raise CompressionError(f"rank {rank} beyond capacity")
        nibbles, _, _, _ = self._band_of(rank)
        return 4 * nibbles

    def codeword_unit_sizes(self) -> bytes:
        sizes = b"".join(bytes([nibbles]) * size for nibbles, _, size in self._bands)
        return sizes[: self.max_codewords]

    def escape_bits(self, rank: int) -> int:
        # The selector nibble is the escape overhead of each codeword.
        return 4

    def codeword_hex(self, rank: int) -> str:
        # The first nibble is first_value + (offset >> tail bits) and the
        # tail is the offset's low bits: together, one n-digit number.
        nibbles, first_value, _, base = self._band_of(rank)
        value = (first_value << 4 * (nibbles - 1)) + rank - base
        return "%0*x" % (nibbles, value)

    def read_item(self, reader: bitutils.BitReader) -> tuple[str, int]:
        first = reader.read(4)
        if first == self._escape_value:
            return ("ins", reader.read(32))
        base = 0
        for nibbles, first_value, size in self._bands:
            values = size // 16 ** (nibbles - 1)
            if first < first_value + values:
                tail_bits = 4 * (nibbles - 1)
                offset = (first - first_value) << tail_bits
                if tail_bits:
                    offset |= reader.read(tail_bits)
                return ("cw", base + offset)
            base += size
        raise DecompressionError(f"first nibble {first} maps to no band")

    def _build_prefix_tables(self) -> PrefixTables:
        """16-bit-prefix tables: prefix -> (length in nibbles, rank).

        For a band of ``nibbles``-nibble codewords starting at
        first-nibble ``first_value`` with rank base ``base``, a prefix
        ``p`` classifies as rank ``base + ((p >> 12) - first_value) <<
        tail | tail bits of p`` — the 12 prefix bits after the first
        nibble always contain the codeword tail because codewords are
        at most 4 nibbles.  Because bands own whole first-nibble
        values, ``lens`` is constant over each ``value << 12`` block.
        """
        lens = bytearray(65536)
        ranks = array("i", bytes(4 * 65536))
        base = 0
        for nibbles, first_value, size in self._bands:
            values = size // 16 ** (nibbles - 1)
            tail_bits = 4 * (nibbles - 1)
            repeats = 1 << (12 - tail_bits)
            lens_block = bytes([nibbles]) * 4096
            for value in range(first_value, first_value + values):
                start = value << 12
                lens[start : start + 4096] = lens_block
                rank_base = base + ((value - first_value) << tail_bits)
                ranks[start : start + 4096] = array(
                    "i",
                    [
                        rank_base + tail
                        for tail in range(1 << tail_bits)
                        for _ in range(repeats)
                    ],
                )
            base += size
        escape_start = self._escape_value << 12
        lens[escape_start : escape_start + 4096] = b"\x09" * 4096
        return PrefixTables(lens, ranks)

    def matches_tokens(self, stream: bytes, columns) -> bool:
        tables = self.prefix_tables()
        lens = tables.lens
        ranks = tables.ranks
        # Zero padding lets prefix and word reads run past the last
        # item; the length check below rejects a stream that needed it.
        data = stream + bytes(5)
        position = 0  # nibble cursor: one nibble is one unit
        try:
            for is_codeword, value, address in zip(
                columns.kinds, columns.values, columns.addresses
            ):
                if address != position:
                    return False
                i = position >> 1
                if position & 1:
                    prefix = ((data[i] & 15) << 12) | (data[i + 1] << 4) | (data[i + 2] >> 4)
                else:
                    prefix = (data[i] << 8) | data[i + 1]
                length = lens[prefix]
                if length == 9:
                    if position & 1:
                        word = int.from_bytes(data[i + 1 : i + 5], "big")
                    else:
                        word = (int.from_bytes(data[i : i + 5], "big") >> 4) & 0xFFFFFFFF
                    if is_codeword or word != value:
                        return False
                elif not length or not is_codeword or ranks[prefix] != value:
                    return False
                position += length
        except IndexError:  # items run past the padded stream
            return False
        if (position + 1) >> 1 != len(stream):
            return False
        return not (position & 1 and stream[-1] & 15)


# The paper's Figure 10 allocation: 8 one-nibble values, 4 two-nibble
# prefixes, 2 three-nibble, 1 four-nibble, 1 escape.
_FIGURE10_ALLOCATION = {1: 8, 2: 4, 3: 2, 4: 1}


class NibbleEncoding(CustomNibbleEncoding):
    """Nibble-aligned variable-length codewords (paper Figure 10).

    First-nibble dispatch:

    =========  ==================  ==========================
    nibble     item                codeword ranks
    =========  ==================  ==========================
    0-7        4-bit codeword      0..7
    8-11       8-bit codeword      8..71
    12-13      12-bit codeword     72..583
    14         16-bit codeword     584..4679
    15         escape + 32-bit     (uncompressed instruction)
    =========  ==================  ==========================

    Because the escape nibble redefines the whole encoding space, an
    unmodified PowerPC cannot run these programs (paper section 4.1.3)
    — the trade for the best compression ratio.
    """

    def __init__(self, max_codewords: int = 4680) -> None:
        super().__init__(
            _FIGURE10_ALLOCATION, max_codewords=max_codewords, name="nibble"
        )


def make_encoding(name: str, max_codewords: int | None = None) -> Encoding:
    """Factory by name: 'baseline', 'onebyte', or 'nibble'."""
    if name == "baseline":
        return BaselineEncoding(max_codewords or 8192)
    if name == "onebyte":
        return OneByteEncoding(max_codewords or 32)
    if name == "nibble":
        return NibbleEncoding(max_codewords or 4680)
    raise CompressionError(f"unknown encoding {name!r}")
