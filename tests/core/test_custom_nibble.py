"""Generalized nibble-allocation encoding tests."""

import pytest
from hypothesis import given, strategies as st

from repro import bitutils
from repro.core import NibbleEncoding, compress
from repro.core.encodings import CustomNibbleEncoding
from repro.errors import CompressionError
from repro.machine.compressed_sim import run_compressed
from repro.machine.simulator import run_program


class TestAllocationValidation:
    def test_bands_must_sum_to_fifteen(self):
        with pytest.raises(CompressionError, match="sum to 15"):
            CustomNibbleEncoding({1: 8, 2: 8})
        with pytest.raises(CompressionError, match="sum to 15"):
            CustomNibbleEncoding({1: 15, 2: 1})

    def test_figure10_is_the_default_nibble(self):
        default = NibbleEncoding()
        assert default.allocation == {1: 8, 2: 4, 3: 2, 4: 1}
        assert default.capacity == 4680

    def test_capacity_formula(self):
        encoding = CustomNibbleEncoding({1: 5, 2: 10, 3: 0, 4: 0})
        assert encoding.capacity == 5 + 160

    def test_band_boundaries(self):
        encoding = CustomNibbleEncoding({1: 2, 2: 13, 3: 0, 4: 0})
        assert encoding.codeword_bits(0) == 4
        assert encoding.codeword_bits(1) == 4
        assert encoding.codeword_bits(2) == 8
        assert encoding.codeword_bits(2 + 13 * 16 - 1) == 8
        with pytest.raises(CompressionError):
            encoding.codeword_bits(2 + 13 * 16)


@st.composite
def _allocations(draw):
    n1 = draw(st.integers(0, 15))
    n2 = draw(st.integers(0, 15 - n1))
    n3 = draw(st.integers(0, 15 - n1 - n2))
    n4 = 15 - n1 - n2 - n3
    allocation = {1: n1, 2: n2, 3: n3, 4: n4}
    if sum(v * 16 ** (k - 1) for k, v in allocation.items()) == 0:
        allocation = {1: 1, 2: 14, 3: 0, 4: 0}
    return allocation


class TestRoundTrip:
    @given(_allocations(), st.data())
    def test_codewords_roundtrip_for_any_allocation(self, allocation, data):
        encoding = CustomNibbleEncoding(allocation)
        ranks = data.draw(
            st.lists(st.integers(0, encoding.capacity - 1), min_size=1,
                     max_size=20)
        )
        digits = "".join(encoding.codeword_hex(rank) for rank in ranks)
        reader = bitutils.BitReader(bytes.fromhex(digits + "0" * (len(digits) % 2)))
        for rank in ranks:
            assert encoding.read_item(reader) == ("cw", rank)

    @given(_allocations())
    def test_instruction_escape_roundtrips(self, allocation):
        encoding = CustomNibbleEncoding(allocation)
        digits = encoding.escape_hex + "%08x" % 0x38610008 + "0"
        reader = bitutils.BitReader(bytes.fromhex(digits))
        assert encoding.read_item(reader) == ("ins", 0x38610008)

    def test_sizes_match_band(self):
        encoding = CustomNibbleEncoding({1: 0, 2: 15, 3: 0, 4: 0})
        assert 4 * len(encoding.codeword_hex(0)) == 8
        assert encoding.codeword_unit_sizes()[0] == 2


class TestExecutionWithCustomAllocation:
    @pytest.mark.parametrize(
        "allocation",
        [
            {1: 15, 2: 0, 3: 0, 4: 0},
            {1: 0, 2: 15, 3: 0, 4: 0},
            {1: 5, 2: 10, 3: 0, 4: 0},
            {1: 1, 2: 1, 3: 1, 4: 12},
        ],
        ids=["all-4bit", "all-8bit", "search-winner", "wide"],
    )
    def test_equivalent_execution(self, tiny_program, allocation):
        reference = run_program(tiny_program)
        encoding = CustomNibbleEncoding(allocation)
        compressed = compress(tiny_program, encoding)
        compressed.verify_stream()
        result = run_compressed(compressed)
        assert result.output_text == reference.output_text
