"""The compressor: orchestrates the full pipeline of section 3.1.

``compress(program, encoding)`` returns a :class:`CompressedProgram`
holding the dictionary, the patched item columns, the serialized
bit stream, the re-patched data image, and the address map — enough
both for size accounting (the paper's figures) and for execution on
the compressed-program processor model.

From the greedy pick to the verified stream the program travels as
parallel columns (:class:`~repro.core.replace.TokenColumns`): greedy
returns replacement columns, ``build_tokens`` item columns,
``patch_branches`` lays them out with one ``accumulate`` and patches
branch words in place, ``_serialize`` joins the columns into hex
digits, and ``verify_stream`` zips the classified stream against them.
No object is built per item; :attr:`CompressedProgram.tokens` is a
view built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress as select

from repro import bitutils, observe
from repro.core.branch_patch import patch_branches, patch_jump_tables, tokens_view
from repro.core.dictionary import Dictionary
from repro.core.encodings import BaselineEncoding, Encoding
from repro.core.greedy import GreedyResult, build_dictionary
from repro.core.replace import Token, TokenColumns, build_tokens
from repro.errors import CompressionError
from repro.linker.program import Program


@dataclass
class CompressedProgram:
    """A compressed executable image."""

    program: Program
    encoding: Encoding
    dictionary: Dictionary
    columns: TokenColumns
    index_to_unit: dict[int, int]
    stream: bytes
    data_image: bytearray
    relaxations: int
    greedy: GreedyResult = field(repr=False, default=None)  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Size accounting (paper equation 1: ratio = compressed / original)
    # ------------------------------------------------------------------
    @property
    def original_bytes(self) -> int:
        return self.program.text_size

    @property
    def tokens(self) -> list[Token]:
        """The stream as one :class:`Token` per item, built on each
        access (see :func:`~repro.core.branch_patch.tokens_view`)."""
        return tokens_view(self.columns, self.program)

    @property
    def stream_bits(self) -> int:
        return self.total_units() * self.encoding.alignment_bits

    @property
    def stream_bytes(self) -> int:
        """Compressed instruction stream, rounded up to whole bytes."""
        return (self.stream_bits + 7) // 8

    @property
    def dictionary_bytes(self) -> int:
        return self.dictionary.size_bytes

    @property
    def compressed_bytes(self) -> int:
        """Stream plus dictionary — the paper includes the dictionary."""
        return self.stream_bytes + self.dictionary_bytes

    @property
    def compression_ratio(self) -> float:
        return self.compressed_bytes / self.original_bytes

    # ------------------------------------------------------------------
    def total_units(self) -> int:
        """Stream length in alignment units: the end address of layout."""
        return self.columns.addresses[-1]

    def verify_stream(self) -> None:
        """Re-parse the serialized stream and check it matches the items.

        This is the bit-level proof that a hardware decoder could walk
        the stream: every item must round-trip through the encoding, sit
        at its unit address, and the stream must end with the last item
        plus zero padding to a whole byte.  Items are classified through
        the encoding's prefix tables; only a failing stream is re-walked
        item by item, to name the first mismatch.
        """
        if self.encoding.matches_tokens(self.stream, self.columns):
            return
        self._raise_first_mismatch()
        used_bits = self.total_units() * self.encoding.alignment_bits
        expected = (used_bits + 7) // 8
        if len(self.stream) > expected:
            raise CompressionError(
                f"{len(self.stream) - expected} trailing byte(s) after the "
                f"last item (stream is {len(self.stream)} bytes, expected "
                f"{expected})"
            )
        pad_bits = -used_bits % 8
        if pad_bits and self.stream[-1] & ((1 << pad_bits) - 1):
            raise CompressionError(
                f"nonzero pad bits after the last item: {self.stream[-1]:#04x}"
            )
        raise CompressionError(
            "stream items match the tokens but not their unit addresses"
        )

    def _raise_first_mismatch(self) -> None:
        """Walk the stream with ``read_item``; raise at the first item
        that differs or is cut off by the end of the stream."""
        reader = bitutils.BitReader(self.stream)
        columns = self.columns
        for is_codeword, value, address in zip(
            columns.kinds, columns.values, columns.addresses
        ):
            try:
                kind, payload = self.encoding.read_item(reader)
            except EOFError as exc:
                raise CompressionError(
                    f"stream truncated at unit {address}: {exc}"
                ) from exc
            if is_codeword:
                if kind != "cw" or payload != value:
                    raise CompressionError(
                        f"stream mismatch at unit {address}: "
                        f"expected codeword {value}, read {kind}:{payload}"
                    )
            elif kind != "ins" or payload != value:
                raise CompressionError(
                    f"stream mismatch at unit {address}: "
                    f"expected instruction {value:#010x}, read {kind}:{payload}"
                )


class Compressor:
    """Configurable front end for :func:`compress`."""

    def __init__(
        self,
        encoding: Encoding | None = None,
        max_entry_len: int = 4,
        max_codewords: int | None = None,
        position_weights: list[int] | None = None,
        greedy_implementation: str = "fast",
    ) -> None:
        self.encoding = encoding or BaselineEncoding()
        self.max_entry_len = max_entry_len
        self.max_codewords = max_codewords
        self.position_weights = position_weights
        # "fast" or "reference" — both produce byte-identical images;
        # "reference" exists for golden-equivalence checks and benchmarks.
        self.greedy_implementation = greedy_implementation

    def compress(self, program: Program) -> CompressedProgram:
        with observe.span(
            "compress",
            program=program.name,
            encoding=self.encoding.name,
            instructions=len(program.text),
        ):
            return self._compress(program)

    def _compress(self, program: Program) -> CompressedProgram:
        encoding = self.encoding
        with observe.stage("dict_build"):
            greedy = build_dictionary(
                program,
                encoding,
                max_entry_len=self.max_entry_len,
                max_codewords=self.max_codewords,
                position_weights=self.position_weights,
                implementation=self.greedy_implementation,
            )
        with observe.stage("tokenize"):
            columns = build_tokens(program, greedy, greedy.dictionary)
        with observe.stage("branch_patch"):
            index_to_unit, relaxations = patch_branches(columns, program, encoding)
        with observe.stage("serialize"):
            stream = _serialize(columns, encoding, len(greedy.dictionary))
        with observe.stage("jump_tables"):
            data_image = patch_jump_tables(program, index_to_unit)
        compressed = CompressedProgram(
            program=program,
            encoding=encoding,
            dictionary=greedy.dictionary,
            columns=columns,
            index_to_unit=index_to_unit,
            stream=stream,
            data_image=data_image,
            relaxations=relaxations,
            greedy=greedy,
        )
        return compressed


# Maps the kind column to a mask of its escaped instructions.
_INSTRUCTION_MASK = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _serialize(columns: TokenColumns, encoding: Encoding, dictionary_size: int) -> bytes:
    """The stream of ``columns`` as hex digits, converted once.

    Codeword digits are joined in place and each instruction leaves a
    ``%08x`` slot, filled from the carried words by one ``%``: no string
    object is made per instruction.
    """
    digits = list(map(encoding.codeword_hex, range(dictionary_size)))
    escaped = encoding.escape_hex + "%08x"
    kinds, values = columns.kinds, columns.values
    template = "".join(
        [digits[value] if kind else escaped for kind, value in zip(kinds, values)]
    )
    text = template % tuple(select(values, kinds.translate(_INSTRUCTION_MASK)))
    if len(text) & 1:
        text += "0"
    return bytes.fromhex(text)


def compress(
    program: Program,
    encoding: Encoding | None = None,
    max_entry_len: int = 4,
    max_codewords: int | None = None,
    position_weights: list[int] | None = None,
) -> CompressedProgram:
    """Compress ``program`` with the given encoding and limits.

    ``position_weights`` selects the profile-guided objective (see
    :func:`repro.core.greedy.build_dictionary`).
    """
    return Compressor(
        encoding=encoding,
        max_entry_len=max_entry_len,
        max_codewords=max_codewords,
        position_weights=position_weights,
    ).compress(program)
