"""Size accounting for the paper's figures.

:class:`CompressionStats` decomposes a compressed program the way the
paper's evaluation does:

* Figure 9 — uncompressed-instruction bytes, codeword index bytes,
  codeword escape bytes, dictionary bytes;
* Figure 6 — dictionary composition by entry length;
* Figure 7 — bytes removed from the program, grouped by the length of
  the dictionary entry responsible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from repro.core.compressor import CompressedProgram


@dataclass(frozen=True)
class CompressionStats:
    """Decomposed sizes, all in bytes (bit-exact sums kept in bits)."""

    name: str
    original_bytes: int
    stream_bytes: int
    dictionary_bytes: int
    uncompressed_ins_bits: int
    codeword_index_bits: int
    codeword_escape_bits: int
    codeword_count_static: int  # codeword tokens in the stream
    dictionary_entries: int
    entry_length_histogram: dict[int, int] = field(hash=False, default_factory=dict)
    bytes_saved_by_length: dict[int, float] = field(hash=False, default_factory=dict)

    @property
    def compressed_bytes(self) -> int:
        return self.stream_bytes + self.dictionary_bytes

    @property
    def compression_ratio(self) -> float:
        """Paper equation 1: compressed size / original size."""
        return self.compressed_bytes / self.original_bytes

    # Figure 9 fractions (of the final compressed program size).
    def composition_fractions(self) -> dict[str, float]:
        total_bits = 8 * self.compressed_bytes
        return {
            "uncompressed_instructions": self.uncompressed_ins_bits / total_bits,
            "codeword_index": self.codeword_index_bits / total_bits,
            "codeword_escape": self.codeword_escape_bits / total_bits,
            "dictionary": 8 * self.dictionary_bytes / total_bits,
        }

    def savings_fraction_by_length(self) -> dict[int, float]:
        """Figure 7: program bytes removed, as fraction of original."""
        return {
            length: saved / self.original_bytes
            for length, saved in sorted(self.bytes_saved_by_length.items())
        }


def collect_stats(compressed: CompressedProgram) -> CompressionStats:
    """Measure a compressed program."""
    encoding = compressed.encoding
    columns = compressed.columns
    ranks = list(compress(columns.values, columns.kinds))
    uncompressed_bits = (len(columns) - len(ranks)) * encoding.instruction_bits
    index_bits = 0
    escape_bits = 0
    saved_by_length: dict[int, float] = {}
    dictionary = compressed.dictionary
    for rank in ranks:
        total = encoding.codeword_bits(rank)
        escape = encoding.escape_bits(rank)
        escape_bits += escape
        index_bits += total - escape
        length = dictionary[rank].length
        saved_bits = length * encoding.instruction_bits - total
        saved_by_length[length] = saved_by_length.get(length, 0.0) + saved_bits / 8.0
    # Charge each entry's dictionary storage against its length class.
    for entry in dictionary.entries:
        saved_by_length[entry.length] = (
            saved_by_length.get(entry.length, 0.0) - entry.size_bytes
        )

    return CompressionStats(
        name=compressed.program.name,
        original_bytes=compressed.original_bytes,
        stream_bytes=compressed.stream_bytes,
        dictionary_bytes=compressed.dictionary_bytes,
        uncompressed_ins_bits=uncompressed_bits,
        codeword_index_bits=index_bits,
        codeword_escape_bits=escape_bits,
        codeword_count_static=len(ranks),
        dictionary_entries=len(dictionary),
        entry_length_histogram=dictionary.length_histogram(),
        bytes_saved_by_length=saved_by_length,
    )
