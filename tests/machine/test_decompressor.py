"""Stream decoder tests: the compressed fetch engine."""

import dataclasses

import pytest

from repro.core import BaselineEncoding, CompressedImage, NibbleEncoding, compress
from repro.core.dictionary import Dictionary, DictionaryEntry
from repro.core.encodings import make_encoding
from repro.errors import DecompressionError
from repro.machine import bulkdecode
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.decompressor import StreamDecoder


def decode_items(compressed):
    decoder = StreamDecoder(
        compressed.stream,
        compressed.dictionary,
        compressed.encoding,
        compressed.total_units(),
    )
    return decoder.decode().items()


class TestStreamDecoding:
    @pytest.mark.parametrize("encoding_factory", [BaselineEncoding, NibbleEncoding])
    def test_items_match_tokens(self, tiny_program, encoding_factory):
        compressed = compress(tiny_program, encoding_factory())
        items = decode_items(compressed)
        assert len(items) == len(compressed.tokens)
        for item, token in zip(items, compressed.tokens):
            assert item.address == token.address
            assert item.size_units == token.size_units
            assert item.is_codeword == (token.kind == "cw")
            if token.kind == "cw":
                assert item.rank == token.rank

    def test_codeword_expansion_matches_original_words(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        words = tiny_program.words()
        for item, token in zip(decode_items(compressed), compressed.tokens):
            if item.is_codeword:
                expanded = tuple(ins.encode() for ins in item.instructions)
                original = tuple(
                    words[token.orig_index : token.orig_index + token.length]
                )
                assert expanded == original

    def test_escaped_instructions_decode(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        for item in decode_items(compressed):
            if not item.is_codeword:
                assert len(item.instructions) == 1

    def test_bad_codeword_rank_rejected(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        # Truncate the dictionary so stream codewords dangle.
        from repro.core.dictionary import Dictionary

        broken = Dictionary(compressed.dictionary.entries[:1])
        decoder = StreamDecoder(
            compressed.stream, broken, compressed.encoding, compressed.total_units()
        )
        if len(compressed.dictionary) > 1:
            with pytest.raises(DecompressionError):
                decoder.decode()

    def test_wrong_total_units_detected(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        decoder = StreamDecoder(
            compressed.stream,
            compressed.dictionary,
            compressed.encoding,
            compressed.total_units() + 1,
        )
        with pytest.raises((DecompressionError, EOFError)):
            decoder.decode()


class TestStrictErrors:
    """Strict-mode failures carry the failing unit address."""

    def test_dangling_rank_names_the_unit(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        from repro.core.dictionary import Dictionary

        if len(compressed.dictionary) < 2:
            pytest.skip("dictionary too small")
        broken = Dictionary(compressed.dictionary.entries[:1])
        decoder = StreamDecoder(
            compressed.stream, broken, compressed.encoding,
            compressed.total_units(),
        )
        with pytest.raises(DecompressionError) as excinfo:
            decoder.decode()
        assert excinfo.value.unit_address is not None
        assert f"unit {excinfo.value.unit_address}" in str(excinfo.value)

    def test_truncated_stream_names_the_unit(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        decoder = StreamDecoder(
            compressed.stream[: len(compressed.stream) // 2],
            compressed.dictionary,
            compressed.encoding,
            compressed.total_units(),
        )
        with pytest.raises(DecompressionError) as excinfo:
            decoder.decode()
        assert excinfo.value.unit_address is not None


class TestLenientMode:
    """Lenient decode collects diagnostics instead of raising."""

    def test_clean_stream_has_no_diagnostics(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        decoder = StreamDecoder(
            compressed.stream, compressed.dictionary, compressed.encoding,
            compressed.total_units(), strict=False,
        )
        items = decoder.decode_all_reference()
        assert decoder.diagnostics == []
        assert len(items) == len(compressed.tokens)

    def test_dangling_ranks_become_diagnostics(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        from repro.core.dictionary import Dictionary

        if len(compressed.dictionary) < 2:
            pytest.skip("dictionary too small")
        broken = Dictionary(compressed.dictionary.entries[:1])
        decoder = StreamDecoder(
            compressed.stream, broken, compressed.encoding,
            compressed.total_units(), strict=False,
        )
        decoder.decode_all_reference()  # must not raise
        assert decoder.diagnostics
        assert all(d.unit_address >= 0 for d in decoder.diagnostics)

    def test_diagnostics_are_bounded(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        from repro.core.dictionary import Dictionary

        decoder = StreamDecoder(
            compressed.stream, Dictionary([]), compressed.encoding,
            compressed.total_units(), strict=False, max_diagnostics=5,
        )
        decoder.decode_all_reference()
        assert len(decoder.diagnostics) <= 6  # budget + final marker
        assert decoder.diagnostics[-1].message == "diagnostic budget exhausted"

    def test_lenient_decode_always_uses_reference_walk(self, tiny_program):
        # Bulk decoding asserts nothing about malformed tails, so a
        # lenient decoder has no bulk decode at all: decode() refuses
        # it, and its walk never reaches the bulk walker.
        compressed = compress(tiny_program, NibbleEncoding())
        decoder = StreamDecoder(
            compressed.stream, compressed.dictionary, compressed.encoding,
            compressed.total_units(), strict=False,
        )
        with pytest.raises(ValueError):
            decoder.decode()
        before = bulkdecode.bulk_stats()
        assert len(decoder.decode_all_reference()) == len(compressed.tokens)
        after = bulkdecode.bulk_stats()
        assert (after["decodes"], after["fallbacks"]) == (
            before["decodes"], before["fallbacks"]
        )


class TestLenientTailResync:
    """Resynchronization endgames: budget exhaustion and stream tails."""

    def test_budget_exhausted_at_failing_unit(self, tiny_program):
        # A budget of one fills on the very first failure: the walk
        # must append the marker at that same unit address and stop
        # instead of resynchronizing onward.
        compressed = compress(tiny_program, BaselineEncoding())
        from repro.core.dictionary import Dictionary

        decoder = StreamDecoder(
            compressed.stream, Dictionary([]), compressed.encoding,
            compressed.total_units(), strict=False, max_diagnostics=1,
        )
        decoder.decode_all_reference()
        assert len(decoder.diagnostics) == 2
        failure, marker = decoder.diagnostics
        assert marker.message == "diagnostic budget exhausted"
        assert marker.unit_address == failure.unit_address

    def test_resync_past_stream_end_returns_early(self):
        # Two bytes of garbage cannot hold a 16-bit-aligned baseline
        # item chain four units long: the second resynchronization
        # point lands past ``len(stream) * 8`` and the walk must return
        # what it has — without the trailing unit-count diagnostic that
        # a normally-terminated short walk would emit.
        from repro.core.dictionary import Dictionary

        encoding = BaselineEncoding()
        decoder = StreamDecoder(
            b"\x00\x00", Dictionary([]), encoding, 4, strict=False,
        )
        items = decoder.decode_all_reference()
        assert items == []
        assert decoder.diagnostics
        assert decoder.diagnostics[-1].message != "diagnostic budget exhausted"
        assert not any(
            d.message.startswith("stream decoded to")
            for d in decoder.diagnostics
        )

    def test_resync_recovers_midstream_corruption(self, tiny_program):
        # Corrupting one interior byte must not take down the tail: the
        # walk resynchronizes and keeps decoding units after the damage.
        compressed = compress(tiny_program, BaselineEncoding())
        corrupt = bytearray(compressed.stream)
        corrupt[len(corrupt) // 2] ^= 0xFF
        decoder = StreamDecoder(
            bytes(corrupt), compressed.dictionary, compressed.encoding,
            compressed.total_units(), strict=False,
        )
        items = decoder.decode_all_reference()
        if decoder.diagnostics:
            first_bad = min(d.unit_address for d in decoder.diagnostics)
            assert any(item.address > first_bad for item in items)


def _empty_entry_image(program, encoding_name, rank=0):
    """A well-formed image of ``program`` whose entry ``rank`` is empty,
    after a round trip through bytes (the CRC is valid)."""
    image = CompressedImage.from_compressed(
        compress(program, make_encoding(encoding_name))
    )
    entries = list(image.dictionary.entries)
    entries[rank] = DictionaryEntry(words=(), uses=entries[rank].uses)
    image = dataclasses.replace(image, dictionary=Dictionary(entries))
    return CompressedImage.from_bytes(image.to_bytes())


class TestEmptyDictionaryEntry:
    """An empty dictionary entry is a typed error at decode."""

    @pytest.mark.parametrize("implementation", ["fast", "reference"])
    @pytest.mark.parametrize("encoding_name", ["baseline", "onebyte", "nibble"])
    def test_simulator_construction_raises(
        self, tiny_program, encoding_name, implementation
    ):
        image = _empty_entry_image(tiny_program, encoding_name)
        with pytest.raises(DecompressionError, match="dictionary entry 0 is empty"):
            CompressedSimulator(image=image, implementation=implementation)

    def test_lenient_decoder_records_a_diagnostic(self, tiny_program):
        image = _empty_entry_image(tiny_program, "nibble")
        decoder = StreamDecoder(
            image.stream, image.dictionary, image.encoding(),
            image.total_units, strict=False,
        )
        assert decoder._entries[0] is None
        assert decoder.diagnostics[0].message == "dictionary entry 0 is empty"
        decoder.decode_all_reference()
        assert any(
            "undecodable dictionary entry" in d.message
            for d in decoder.diagnostics
        )

    @pytest.mark.parametrize("encoding_name", ["baseline", "onebyte", "nibble"])
    def test_check_image_reports_stream_decode(self, tiny_program, encoding_name):
        from repro.verify import check_image

        report = check_image(_empty_entry_image(tiny_program, encoding_name))
        assert ("stream-decode", "dictionary entry 0 is empty") in {
            (finding.rule, finding.message) for finding in report.findings
        }
