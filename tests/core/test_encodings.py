"""Codeword encoding tests, including the Figure 10 nibble layout."""

import pytest
from hypothesis import given, strategies as st

from repro import bitutils
from repro.core.encodings import (
    BaselineEncoding,
    CustomNibbleEncoding,
    NibbleEncoding,
    OneByteEncoding,
    clear_tables,
    make_encoding,
)
from repro.errors import CompressionError
from repro.isa.opcodes import escape_bytes


def _reader(digits: str) -> bitutils.BitReader:
    """``read_item``'s view of hex-emitted digits, zero-padded to a byte."""
    return bitutils.BitReader(bytes.fromhex(digits + "0" * (len(digits) % 2)))


def _instruction_hex(encoding, word: int) -> str:
    return encoding.escape_hex + "%08x" % word


class TestBaseline:
    def test_capacity_and_sizes(self):
        encoding = BaselineEncoding()
        assert encoding.capacity == 8192
        assert encoding.codeword_bits(0) == 16
        assert encoding.codeword_bits(8191) == 16
        assert encoding.alignment_bits == 16
        assert encoding.instruction_bits == 32

    def test_escape_byte_is_illegal_opcode(self):
        encoding = BaselineEncoding()
        first_byte = bytes.fromhex(encoding.codeword_hex(0))[0]
        assert first_byte in escape_bytes()

    def test_codeword_roundtrip_all_escape_groups(self):
        encoding = BaselineEncoding()
        for rank in (0, 255, 256, 511, 4095, 8191):
            digits = encoding.codeword_hex(rank)
            assert len(digits) == 4
            assert encoding.read_item(_reader(digits)) == ("cw", rank)

    def test_instruction_passthrough(self):
        encoding = BaselineEncoding()
        assert encoding.escape_hex == ""
        reader = _reader(_instruction_hex(encoding, 0x38610008))
        assert encoding.read_item(reader) == ("ins", 0x38610008)

    def test_capacity_validation(self):
        with pytest.raises(CompressionError):
            BaselineEncoding(8193)
        with pytest.raises(CompressionError):
            BaselineEncoding().codeword_bits(8192)


class TestOneByte:
    def test_codewords_are_escape_bytes(self):
        encoding = OneByteEncoding(32)
        for rank in range(32):
            assert bytes.fromhex(encoding.codeword_hex(rank)) == bytes(
                [escape_bytes()[rank]]
            )

    def test_roundtrip(self):
        encoding = OneByteEncoding(32)
        for rank in (0, 7, 15, 31):
            reader = _reader(encoding.codeword_hex(rank))
            assert encoding.read_item(reader) == ("cw", rank)

    def test_at_most_32_codewords(self):
        with pytest.raises(CompressionError):
            OneByteEncoding(33)


class TestNibble:
    def test_figure10_band_sizes(self):
        encoding = NibbleEncoding()
        assert encoding.capacity == 8 + 64 + 512 + 4096 == 4680
        assert encoding.codeword_bits(0) == 4
        assert encoding.codeword_bits(7) == 4
        assert encoding.codeword_bits(8) == 8
        assert encoding.codeword_bits(71) == 8
        assert encoding.codeword_bits(72) == 12
        assert encoding.codeword_bits(583) == 12
        assert encoding.codeword_bits(584) == 16
        assert encoding.codeword_bits(4679) == 16

    def test_uncompressed_instruction_costs_36_bits(self):
        encoding = NibbleEncoding()
        assert encoding.instruction_bits == 36
        digits = _instruction_hex(encoding, 0x38610008)
        assert 4 * len(digits) == 36
        # First nibble is the escape value 15.
        assert int(digits[0], 16) == 15
        assert encoding.read_item(_reader(digits)) == ("ins", 0x38610008)

    @pytest.mark.parametrize("rank", [0, 7, 8, 42, 71, 72, 300, 583, 584, 2000, 4679])
    def test_codeword_roundtrip(self, rank):
        encoding = NibbleEncoding()
        digits = encoding.codeword_hex(rank)
        assert 4 * len(digits) == encoding.codeword_bits(rank)
        assert encoding.read_item(_reader(digits)) == ("cw", rank)

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("cw"), st.integers(0, 4679)),
            st.tuples(st.just("ins"), st.integers(0, 0xFFFFFFFF)),
        ),
        min_size=1, max_size=40,
    ))
    def test_mixed_stream_roundtrip(self, items):
        encoding = NibbleEncoding()
        reader = _reader("".join(
            encoding.codeword_hex(payload) if kind == "cw"
            else _instruction_hex(encoding, payload)
            for kind, payload in items
        ))
        for kind, payload in items:
            assert encoding.read_item(reader) == (kind, payload)


class TestUnits:
    def test_units_conversion(self):
        encoding = NibbleEncoding()
        assert encoding.instruction_units() == 9
        assert encoding.codeword_units(0) == 1
        assert encoding.codeword_units(584) == 4
        baseline = BaselineEncoding()
        assert baseline.instruction_units() == 2
        assert baseline.codeword_units(0) == 1

    def test_misaligned_bits_rejected(self):
        with pytest.raises(CompressionError):
            BaselineEncoding().units(24)


class TestFactory:
    def test_make_encoding(self):
        assert make_encoding("baseline").name == "baseline"
        assert make_encoding("onebyte", 8).capacity == 8
        assert make_encoding("nibble").capacity == 4680
        with pytest.raises(CompressionError):
            make_encoding("huffman")


_TABLE_ENCODINGS = {
    "baseline": lambda: BaselineEncoding(),
    "baseline16": lambda: BaselineEncoding(16),
    "onebyte": lambda: OneByteEncoding(32),
    "onebyte8": lambda: OneByteEncoding(8),
    "nibble": lambda: NibbleEncoding(),
    "custom": lambda: CustomNibbleEncoding({1: 5, 2: 10, 3: 0, 4: 0}),
}


@pytest.mark.parametrize("name", sorted(_TABLE_ENCODINGS))
class TestTables:
    """The per-rank and prefix tables agree with the per-item methods."""

    def test_unit_sizes_match_codeword_units(self, name):
        encoding = _TABLE_ENCODINGS[name]()
        assert list(encoding.codeword_unit_sizes()) == [
            encoding.codeword_units(rank) for rank in range(encoding.capacity)
        ]

    def test_prefix_tables_are_cached_per_encoding(self, name):
        tables = _TABLE_ENCODINGS[name]().prefix_tables()
        assert _TABLE_ENCODINGS[name]().prefix_tables() is tables
        clear_tables()
        assert _TABLE_ENCODINGS[name]().prefix_tables() is not tables

    def test_prefix_tables_classify_like_read_item(self, name):
        encoding = _TABLE_ENCODINGS[name]()
        tables = encoding.prefix_tables()
        if tables.lens is None:  # byte encodings: first-byte escape ranks
            for byte in range(256):
                reader = bitutils.BitReader(bytes([byte, 0, 0, 0]))
                kind, payload = encoding.read_item(reader)
                if kind == "ins":
                    assert tables.ranks[byte] == -1
                else:
                    assert tables.ranks[byte] == payload >> (reader.bit_position - 8)
            return
        for prefix in range(0, 65536, 7):
            reader = bitutils.BitReader(prefix.to_bytes(2, "big") + bytes(3))
            kind, payload = encoding.read_item(reader)
            length = reader.bit_position // 4
            assert tables.lens[prefix] == length
            if kind == "cw":
                assert tables.ranks[prefix] == payload
            else:
                assert length == 9
