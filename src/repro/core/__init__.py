"""The paper's contribution: post-compilation dictionary compression.

Pipeline (paper section 3.1):

1. :mod:`basic_blocks` — segment .text at branch targets and branches.
2. :mod:`candidates` — enumerate repeated instruction sequences that
   are legal dictionary entries (within one basic block, no
   PC-relative branches, branch targets only at sequence starts).
3. :mod:`greedy` — the greedy dictionary builder: repeatedly pick the
   candidate with the largest immediate byte savings.
4. :mod:`encodings` — codeword spaces: the 2-byte baseline built from
   PowerPC's illegal opcodes, the 1-byte small-dictionary scheme, and
   the nibble-aligned variable-length scheme of Figure 10.
5. :mod:`replace` / :mod:`branch_patch` — build the item columns, lay
   them out at codeword granularity, re-patch every relative branch and
   jump-table slot, relaxing branches whose offsets no longer reach.
6. :mod:`compressor` — the orchestrator; :mod:`stats` — size
   accounting for the paper's figures.
"""

from repro.core.compressor import CompressedProgram, Compressor, compress
from repro.core.dictionary import Dictionary, DictionaryEntry
from repro.core.encodings import (
    BaselineEncoding,
    CustomNibbleEncoding,
    Encoding,
    NibbleEncoding,
    OneByteEncoding,
    make_encoding,
)
from repro.core.image import (
    CompressedImage,
    ImageCapacityError,
    ImageChecksumError,
    ImageEncodingError,
    ImageError,
    ImageFormatError,
)
from repro.core.profile import encoding_redundancy
from repro.core.stats import CompressionStats, collect_stats

__all__ = [
    "CompressedProgram",
    "Compressor",
    "compress",
    "Dictionary",
    "DictionaryEntry",
    "BaselineEncoding",
    "CustomNibbleEncoding",
    "Encoding",
    "NibbleEncoding",
    "OneByteEncoding",
    "make_encoding",
    "CompressedImage",
    "ImageCapacityError",
    "ImageChecksumError",
    "ImageEncodingError",
    "ImageError",
    "ImageFormatError",
    "encoding_redundancy",
    "CompressionStats",
    "collect_stats",
]
