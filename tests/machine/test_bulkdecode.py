"""The bulk decoder must be invisible except for speed.

Byte-identical items to the reference walk for every encoding and
backend, strict errors routed through the reference walk unchanged
(optimistic fallback), and honest stats.  The ``backend`` fixture pins
each walk: ``python`` hides numpy, ``numpy`` drops the stream-size
threshold so even tiny streams take the vectorized walk (skipped when
numpy is not installed, as in tier-1 CI).
"""

import pytest

from repro.core.compressor import compress
from repro.core.dictionary import Dictionary
from repro.core.encodings import make_encoding
from repro.errors import DecompressionError
from repro.machine import bulkdecode
from repro.machine.decompressor import StreamDecoder, clear_decode_cache
from repro.workloads import build_benchmark

ENCODINGS = ("baseline", "onebyte", "nibble")


@pytest.fixture(autouse=True)
def _fresh():
    clear_decode_cache()
    yield
    clear_decode_cache()


@pytest.fixture(params=("python", "numpy"))
def backend(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(bulkdecode, "_np", None)
    elif bulkdecode._np is None:
        pytest.skip("numpy is not installed")
    else:
        monkeypatch.setattr(bulkdecode, "_NUMPY_MIN_BYTES", 0)
    return request.param


def _decoder(compressed, **kwargs):
    return StreamDecoder(
        compressed.stream,
        compressed.dictionary,
        compressed.encoding,
        compressed.total_units(),
        **kwargs,
    )


class TestIdentity:
    @pytest.mark.parametrize("encoding_name", ENCODINGS)
    def test_items_identical_to_reference(
        self, tiny_program, encoding_name, backend
    ):
        compressed = compress(tiny_program, make_encoding(encoding_name))
        decoder = _decoder(compressed)
        bulk = bulkdecode.decode_columns(decoder).items()
        reference = _decoder(compressed).decode_all_reference()
        assert list(bulk) == reference
        assert all(type(item) is type(ref) for item, ref in zip(bulk, reference))

    @pytest.mark.parametrize("encoding_name", ENCODINGS)
    def test_suite_program_identity(self, small_suite, encoding_name, backend):
        program = small_suite["compress"]
        compressed = compress(program, make_encoding(encoding_name))
        decoder = _decoder(compressed)
        assert list(bulkdecode.decode_columns(decoder).items()) == _decoder(
            compressed
        ).decode_all_reference()

    def test_decode_all_reports_bulk_implementation(self, tiny_program, backend):
        # decode() runs the bulk walk, and bulk_stats() names the backend
        # that ran; a fallback would count instead of a decode.
        compressed = compress(tiny_program, make_encoding("nibble"))
        before = bulkdecode.bulk_stats()
        columns = _decoder(compressed).decode()
        after = bulkdecode.bulk_stats()
        assert after["backend"] == backend
        assert after["decodes"] == before["decodes"] + 1
        assert after["fallbacks"] == before["fallbacks"]
        assert list(columns.items()) == _decoder(compressed).decode_all_reference()

    def test_instructions_shared_with_dictionary(self, tiny_program, backend):
        # Codeword expansions alias the predecoded dictionary tuples —
        # the bulk path must not rebuild per-item instruction tuples.
        compressed = compress(tiny_program, make_encoding("nibble"))
        decoder = _decoder(compressed)
        items = bulkdecode.decode_columns(decoder).items()
        entries = decoder._entries
        for item in items:
            if item.is_codeword:
                assert item.instructions is entries[item.rank]


class TestFallback:
    @pytest.mark.parametrize("encoding_name", ENCODINGS)
    def test_truncated_stream_error_identical(
        self, tiny_program, encoding_name, backend
    ):
        compressed = compress(tiny_program, make_encoding(encoding_name))
        truncated = compressed.stream[: len(compressed.stream) // 2]

        def decoder():
            return StreamDecoder(
                truncated,
                compressed.dictionary,
                compressed.encoding,
                compressed.total_units(),
            )

        with pytest.raises(DecompressionError) as bulk_error:
            decoder().decode()
        with pytest.raises(DecompressionError) as reference_error:
            decoder().decode_all_reference()
        assert str(bulk_error.value) == str(reference_error.value)
        assert bulk_error.value.unit_address == reference_error.value.unit_address

    def test_corrupt_stream_error_identical(self, tiny_program, backend):
        compressed = compress(tiny_program, make_encoding("onebyte"))
        # Flip a codeword byte into the escape range mid-stream: the
        # tail no longer decodes to the expected unit count.
        corrupt = bytearray(compressed.stream)
        corrupt[len(corrupt) // 3] ^= 0xFF

        def attempt(method):
            decoder = StreamDecoder(
                bytes(corrupt),
                compressed.dictionary,
                compressed.encoding,
                compressed.total_units(),
            )
            try:
                getattr(decoder, method)()
            except DecompressionError as exc:
                return str(exc), exc.unit_address
            return None

        assert attempt("decode") == attempt("decode_all_reference")


# The first escaped word of a stream replaced by this one: primary
# opcode 31 with an extended opcode that names no instruction.
_BAD_WORD = 0x7C0007FE

_ANOMALIES = ("half", "three_bytes", "one_entry", "bad_escape", "extra_unit")


def _first_escape_offset(compressed):
    """Bit offset of the first escaped word: its item's last 32 bits."""
    for item in _decoder(compressed).decode_all_reference():
        if not item.is_codeword:
            end = item.address + item.size_units
            return end * compressed.encoding.alignment_bits - 32
    pytest.skip("stream has no escaped word")


def _with_word(stream: bytes, bit_offset: int, word: int) -> bytes:
    value = int.from_bytes(stream, "big")
    shift = len(stream) * 8 - bit_offset - 32
    value = (value & ~(0xFFFFFFFF << shift)) | (word << shift)
    return value.to_bytes(len(stream), "big")


def _anomalous(compressed, anomaly):
    """``(stream, dictionary, total_units)`` with one planted anomaly."""
    stream = compressed.stream
    dictionary = compressed.dictionary
    total_units = compressed.total_units()
    if anomaly == "half":
        stream = stream[: len(stream) // 2]
    elif anomaly == "three_bytes":
        stream = stream[:3]
    elif anomaly == "one_entry":
        dictionary = Dictionary(dictionary.entries[:1])
    elif anomaly == "bad_escape":
        stream = _with_word(stream, _first_escape_offset(compressed), _BAD_WORD)
    else:
        total_units += 1
    return stream, dictionary, total_units


@pytest.fixture(scope="module")
def compress_tenth():
    return build_benchmark("compress", 0.1)


class TestFallbackTable:
    """Every bulk fallback ends in the reference walk's own outcome."""

    @pytest.mark.parametrize("anomaly", _ANOMALIES)
    @pytest.mark.parametrize("encoding_name", ENCODINGS)
    @pytest.mark.parametrize("program_name", ("tiny", "compress"))
    def test_decode_agrees_with_reference(
        self, request, program_name, encoding_name, anomaly, backend
    ):
        program = request.getfixturevalue(
            "tiny_program" if program_name == "tiny" else "compress_tenth"
        )
        compressed = compress(program, make_encoding(encoding_name))
        stream, dictionary, total_units = _anomalous(compressed, anomaly)

        def decoder():
            return StreamDecoder(
                stream, dictionary, compressed.encoding, total_units
            )

        def outcome(decode):
            try:
                return "items", list(decode())
            except DecompressionError as exc:
                return type(exc), str(exc), exc.unit_address

        bulkdecode.reset_bulk_stats()
        decoded = outcome(lambda: decoder().decode().items())
        stats = bulkdecode.bulk_stats()
        assert decoded == outcome(decoder().decode_all_reference)
        if decoded[0] == "items":
            # A nibble stream ending in a pad nibble takes one more unit:
            # the pad reads as codeword 0 on both walks.
            assert stats["fallbacks"] == 0
        else:
            # One fallback, counted under one reason, in a snapshot that
            # neither later decodes nor edits to it share.
            assert stats["fallbacks"] == 1
            assert list(stats["fallback_reasons"].values()) == [1]
            stats["fallback_reasons"].clear()
            with pytest.raises(bulkdecode.BulkFallback):
                bulkdecode.decode_columns(decoder())
            after = bulkdecode.bulk_stats()
            assert after["fallbacks"] == 2
            assert list(after["fallback_reasons"].values()) == [2]


class TestBackends:
    def test_tables_survive_clear(self, tiny_program, backend):
        compressed = compress(tiny_program, make_encoding("nibble"))
        first = bulkdecode.decode_columns(_decoder(compressed)).items()
        bulkdecode.clear_tables()
        second = bulkdecode.decode_columns(_decoder(compressed)).items()
        assert first == second

    def test_empty_stream_decodes_empty(self, tiny_program, backend):
        compressed = compress(tiny_program, make_encoding("nibble"))
        decoder = StreamDecoder(
            b"", compressed.dictionary, compressed.encoding, 0
        )
        assert bulkdecode.decode_columns(decoder).items() == ()
