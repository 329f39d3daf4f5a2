"""``CompressedProgram.verify_stream`` rejects every malformed stream.

Verification classifies items through the encoding's prefix tables and
re-walks with ``read_item`` only to name a failure, so these tests pin
both halves: the seeded single-bit flips in ``FLIPS`` carry the error
texts recorded from the item-by-item verifier the table walk replaced,
and truncated streams, trailing bytes, nonzero pad bits and misplaced
items each raise a typed ``CompressionError``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core import compress, make_encoding
from repro.core.compressor import _serialize
from repro.core.encodings import CustomNibbleEncoding
from repro.core.replace import CODEWORD, TokenColumns
from repro.errors import CompressionError
from repro.isa.instruction import Instruction

ENCODINGS = ("baseline", "onebyte", "nibble")

# Per encoding: 40 flips of ``li`` at scale 0.3, drawn from
# random.Random(f"flip:{encoding}").randrange(stream bits), as
# (bit, message after "stream mismatch at unit ").
FLIPS = {
    "baseline": [
        (12418, "776: expected codeword 0, read ins:536870936"),
        (17246, "1076: expected instruction 0x7c063800, read ins:2080782338"),
        (12635, "789: expected codeword 24, read cw:8"),
        (20134, "1258: expected codeword 0, read cw:512"),
        (15461, "965: expected instruction 0x396b2a50, read ins:963325520"),
        (2696, "168: expected instruction 0x7c7f00d0, read ins:2097086672"),
        (998, "62: expected instruction 0x4bffffd4, read ins:1241513940"),
        (18194, "1137: expected instruction 0x2c060035, read ins:201719861"),
        (838, "52: expected instruction 0x41820030, read ins:1132593200"),
        (2094, "130: expected codeword 1, read cw:3"),
        (5866, "366: expected instruction 0x396b281c, read ins:961226780"),
        (11980, "748: expected codeword 83, read cw:91"),
        (21667, "1353: expected instruction 0x4bfff54d, read ins:1275061581"),
        (6843, "426: expected instruction 0x3ba30001, read ins:1000538129"),
        (11411, "713: expected instruction 0x73a3001f, read ins:1671626783"),
        (20830, "1301: expected instruction 0x40800030, read ins:1082261552"),
        (17177, "1072: expected instruction 0x88cb0000, read ins:2295005248"),
        (6776, "423: expected instruction 0x39800005, read ins:956301317"),
        (8362, "522: expected instruction 0x48000070, read ins:1210056816"),
        (3316, "206: expected instruction 0x41820024, read ins:1099040804"),
        (4791, "299: expected instruction 0x408000b0, read ins:1098907824"),
        (18055, "1127: expected instruction 0x2c050040, read ins:738525504"),
        (7808, "488: expected codeword 0, read ins:2147483708"),
        (20333, "1269: expected instruction 0x1c830015, read ins:478347281"),
        (22890, "1430: expected instruction 0x38800006, read ins:950009862"),
        (11871, "740: expected instruction 0x73e30002, read ins:1944256515"),
        (13568, "848: expected instruction 0x396b2a34, read ins:3110808116"),
        (4746, "295: expected instruction 0x38a00001, read ins:950009889"),
        (18853, "1178: expected instruction 0x2c030062, read ins:671285346"),
        (8020, "500: expected instruction 0x808b0000, read ins:2156595200"),
        (13747, "858: expected instruction 0x90cb0014, read ins:2429227028"),
        (7920, "495: expected codeword 2, read ins:2147614733"),
        (19463, "1215: expected instruction 0x6be30015, read ins:1810039061"),
        (19040, "1190: expected instruction 0x2c030027, read ins:2885877799"),
        (14086, "879: expected instruction 0x70650005, read ins:1885667845"),
        (21926, "1370: expected instruction 0x38800005, read ins:981467141"),
        (11439, "713: expected instruction 0x73a3001f, read ins:1940062238"),
        (11470, "716: expected instruction 0x4bfffec1, read ins:1274937025"),
        (21109, "1319: expected codeword 79, read cw:1103"),
        (21315, "1331: expected instruction 0x4bffedb1, read ins:1275067825"),
    ],
    "onebyte": [
        (2180, "272: expected instruction 0x7c648670, read ins:1952745072"),
        (11360, "1418: expected instruction 0x2c1d002f, read ins:740130863"),
        (8053, "1004: expected instruction 0x808b0000, read ins:2156594176"),
        (23082, "2882: expected instruction 0x7fe3fb78, read ins:2145647448"),
        (17021, "2127: expected codeword 0, read cw:4"),
        (2078, "257: expected instruction 0x7c8361d6, read ins:2088985558"),
        (12505, "1563: expected instruction 0x93ab0004, read ins:3551199236"),
        (19655, "2456: expected instruction 0x396b1a1c, read ins:946543132"),
        (5835, "729: expected codeword 2, read cw:10"),
        (19779, "2472: expected instruction 0x2c060035, read ins:1007026229"),
        (6192, "774: expected instruction 0x908b0000, read cw:8"),
        (9151, "1141: expected instruction 0x7c7e1b78, read ins:2088639096"),
        (15202, "1898: expected instruction 0x73c3001f, read ins:1942167583"),
        (20924, "2612: expected instruction 0x7c7ff214, read ins:2088759836"),
        (8184, "1020: expected instruction 0x558c103a, read ins:1435242682"),
        (9136, "1141: expected instruction 0x7c7e1b78, read ins:2097027960"),
        (13272, "1659: expected codeword 7, read ins:2265257024"),
        (6104, "760: expected instruction 0x906b0000, read ins:2422931584"),
        (15550, "1942: expected instruction 0x7c651b78, read ins:2087132024"),
        (8811, "1101: expected codeword 1, read cw:9"),
        (815, "98: expected instruction 0x41820058, read ins:1099038809"),
        (15534, "1938: expected instruction 0x4bfff679, read ins:1275065979"),
        (9668, "1208: expected instruction 0x7fe3fb78, read ins:2011429752"),
        (1863, "230: expected instruction 0x7ce33b78, read ins:2095266424"),
        (9362, "1170: expected instruction 0x93a10014, read ins:3013672980"),
        (3517, "436: expected instruction 0x4bffffac, read ins:1275068328"),
        (9470, "1183: expected instruction 0x38600005, read ins:979369989"),
        (17276, "2157: expected instruction 0x7cc43378, read ins:2093235064"),
        (20710, "2586: expected instruction 0x7c7ff214, read ins:2088759316"),
        (5187, "647: expected instruction 0x912b0000, read ins:2436562944"),
        (17181, "2145: expected instruction 0x480000ac, read ins:1207960748"),
        (23654, "2955: expected instruction 0x7fdf1a78, read ins:2145196664"),
        (23531, "2939: expected instruction 0x7ffe1a78, read ins:2147355256"),
        (14210, "1775: expected instruction 0x7cc51a14, read ins:2095389204"),
        (8574, "1070: expected instruction 0x48000074, read ins:1208090740"),
        (19045, "2379: expected instruction 0x480000dc, read ins:1208221916"),
        (15267, "1908: expected instruction 0x7c7d2214, read ins:1820140052"),
        (494, "61: expected instruction 0x7c051800, read ins:2114263040"),
        (4286, "533: expected instruction 0x4080006c, read ins:1082131052"),
        (21069, "2632: expected instruction 0x2c1e0051, read ins:739901521"),
    ],
    "nibble": [
        (14726, "3674: expected instruction 0x7c7ef850, read ins:2088695920"),
        (8102, "2020: expected instruction 0x7c642850, read ins:2086930512"),
        (10361, "2588: expected codeword 75, read cw:79"),
        (12371, "3091: expected codeword 91, read cw:75"),
        (6977, "1744: expected codeword 54, read cw:4296"),
        (8538, "2127: expected instruction 0x4bffdfc9, read ins:1275060201"),
        (3877, "967: expected instruction 0x4bffff44, read ins:1342177092"),
        (10870, "2712: expected instruction 0x38640002, read ins:946085890"),
        (5080, "1270: expected codeword 123, read cw:4"),
        (17062, "4260: expected instruction 0x38600008, read ins:945823752"),
        (14435, "3603: expected instruction 0x48000308, read ins:1207964424"),
        (7154, "1788: expected codeword 61, read cw:29"),
        (11048, "2762: expected codeword 7, read ins:4106223529"),
        (506, "120: expected instruction 0x48000084, read ins:1207960196"),
        (8300, "2072: expected instruction 0x7cc41838, read ins:2084837432"),
        (1582, "392: expected instruction 0x7ce43b78, read ins:2093235064"),
        (7666, "1915: expected instruction 0x4bfff605, read ins:1811936773"),
        (141, "31: expected instruction 0x7c8300d0, read ins:2089222352"),
        (17739, "4433: expected codeword 23, read cw:22"),
        (11280, "2820: expected codeword 25, read cw:1"),
        (2884, "714: expected instruction 0x83e1000c, read ins:2212561036"),
        (2461, "615: expected codeword 100, read cw:9"),
        (6063, "1507: expected instruction 0x48000398, read ins:1207960473"),
        (17781, "4441: expected instruction 0x38a0001a, read ins:950272026"),
        (15436, "3859: expected codeword 12, read cw:0"),
        (5913, "1477: expected codeword 8, read cw:12"),
        (2678, "669: expected codeword 54, read cw:22"),
        (7180, "1793: expected instruction 0x4bffff35, read ins:1140850485"),
        (5936, "1484: expected codeword 3, read cw:64"),
        (12563, "3132: expected instruction 0x4080016c, read ins:1082130797"),
        (8158, "2038: expected instruction 0x7c0463d6, read ins:1543791574"),
        (7445, "1854: expected instruction 0x4bfff6f9, read ins:1275066041"),
        (3618, "904: expected instruction 0x4bffff70, read cw:403"),
        (16127, "4030: expected instruction 0x396b191c, read ins:694884636"),
        (6255, "1561: expected instruction 0x808b0000, read ins:2173370368"),
        (66, "11: expected instruction 0x44000002, read ins:1140858882"),
        (17578, "4387: expected instruction 0x38600002, read ins:945815586"),
        (1035, "253: expected instruction 0x7cc519d6, read ins:2093287894"),
        (4799, "1199: expected codeword 0, read cw:1"),
        (6485, "1613: expected instruction 0x7c9e1a14, read ins:2090736144"),
    ],
}


def _with_stream(compressed, stream: bytes):
    return dataclasses.replace(compressed, stream=stream)


def _verify_error(compressed) -> str:
    with pytest.raises(CompressionError) as info:
        compressed.verify_stream()
    return str(info.value)


@pytest.fixture(scope="module")
def li_compressed(small_suite):
    program = small_suite["li"]
    return {name: compress(program, make_encoding(name)) for name in ENCODINGS}


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_clean_stream_matches_through_the_tables(li_compressed, encoding):
    compressed = li_compressed[encoding]
    assert compressed.encoding.matches_tokens(compressed.stream, compressed.columns)
    compressed.verify_stream()


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_seeded_bit_flips_keep_their_error_text(li_compressed, encoding):
    compressed = li_compressed[encoding]
    rng = random.Random(f"flip:{encoding}")
    bits = 8 * len(compressed.stream)
    for expected_bit, expected in FLIPS[encoding]:
        bit = rng.randrange(bits)
        assert bit == expected_bit
        stream = bytearray(compressed.stream)
        stream[bit >> 3] ^= 0x80 >> (bit & 7)
        text = _verify_error(_with_stream(compressed, bytes(stream)))
        assert text == "stream mismatch at unit " + expected


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_truncated_stream_is_a_compression_error(li_compressed, encoding):
    compressed = li_compressed[encoding]
    half = compressed.stream[: len(compressed.stream) // 2]
    assert "stream truncated at unit" in _verify_error(_with_stream(compressed, half))
    last_byte_cut = compressed.stream[:-1]
    assert "stream truncated at unit" in _verify_error(
        _with_stream(compressed, last_byte_cut)
    )


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_tokens_past_the_end_of_an_empty_stream(encoding):
    # Zero bytes classify as rank-0 codewords in the nibble encoding, so
    # a run of rank-0 items walks the table past any read padding.
    tokens = TokenColumns(
        bytearray([CODEWORD]) * 40, [0] * 40, list(range(40)), list(range(41))
    )
    assert not make_encoding(encoding).matches_tokens(b"", tokens)
    assert not make_encoding(encoding).matches_tokens(bytes(3), tokens)


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("extra", [b"\x00\x00", b"\x01"])
def test_trailing_bytes_are_rejected(li_compressed, encoding, extra):
    compressed = li_compressed[encoding]
    text = _verify_error(_with_stream(compressed, compressed.stream + extra))
    assert text.startswith(f"{len(extra)} trailing byte(s) after the last item")


@pytest.mark.parametrize(
    "encoding",
    [lambda: make_encoding("nibble"),
     lambda: CustomNibbleEncoding({1: 5, 2: 10, 3: 0, 4: 0})],
    ids=["nibble", "custom-5-10"],
)
def test_nonzero_pad_bits_are_rejected(small_suite, encoding):
    compressed = compress(small_suite["compress"], encoding())
    assert compressed.total_units() % 2  # the last byte holds a pad nibble
    for pad_bit in range(4):
        stream = bytearray(compressed.stream)
        stream[-1] |= 1 << pad_bit
        text = _verify_error(_with_stream(compressed, bytes(stream)))
        assert text.startswith("nonzero pad bits after the last item")


@pytest.mark.parametrize("encoding", ["baseline", "onebyte"])
def test_byte_encodings_leave_no_pad_bits(li_compressed, encoding):
    compressed = li_compressed[encoding]
    used_bits = compressed.total_units() * compressed.encoding.alignment_bits
    assert used_bits == 8 * len(compressed.stream)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_items_at_wrong_unit_addresses_are_rejected(li_compressed, encoding):
    compressed = li_compressed[encoding]
    columns = compressed.columns
    addresses = list(columns.addresses)
    addresses[-2] += 1  # the last item's address
    tokens = TokenColumns(columns.kinds, columns.values, columns.origins, addresses)
    broken = dataclasses.replace(compressed, columns=tokens)
    assert _verify_error(broken) == (
        "stream items match the tokens but not their unit addresses"
    )


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_serialize_and_verify_never_encode(li_compressed, encoding, monkeypatch):
    compressed = li_compressed[encoding]

    def refuse(self):
        raise AssertionError("encode() called")

    monkeypatch.setattr(Instruction, "encode", refuse)
    assert _serialize(
        compressed.columns, compressed.encoding, len(compressed.dictionary)
    ) == compressed.stream
    compressed.verify_stream()
