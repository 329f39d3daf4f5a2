"""Table-driven bulk decoding of compressed streams.

The reference walk (:meth:`~repro.machine.decompressor.StreamDecoder.
decode_all_reference`) classifies one item at a time through a generic
``BitReader`` — peek, branch on the escape test, read the payload —
which costs microseconds per item in Python.  This module is the
vectorized VByte-decoding idea applied to the paper's three encodings:
classify items through **precomputed tables over a fixed-width stream
prefix**, so the per-item work collapses to table gathers plus one
bulk materialization pass.

Per encoding the table maps a prefix to ``(item length in alignment
units, codeword rank or escape marker)``:

* **nibble** — a 16-bit prefix (4 nibbles) determines everything: the
  first nibble selects the band (or the escape value 15) and therefore
  the item length, and the band tail bits are inside the prefix
  because the longest codeword is 4 nibbles.  65536-entry
  ``lens``/``ranks`` tables; because bands are allotted in whole
  first-nibble blocks, the length table collapses to 16 entries.
* **baseline** — the first *byte* decides: 32 escape byte values (the
  illegal primary opcodes × low bits) start a 2-byte codeword whose
  rank is ``escape_rank << 8 | index_byte``; anything else is a 4-byte
  uncompressed instruction.  A 256-entry first-byte table.
* **onebyte** — the escape byte *is* the codeword (rank = its position
  in the escape list); anything else is a 4-byte instruction.  A
  256-entry first-byte table.

The tables themselves live in :mod:`repro.core.encodings`
(:meth:`~repro.core.encodings.Encoding.prefix_tables`), built once per
process per encoding token and shared with the compressor's stream
verification; this module keeps only their numpy views.

Two interchangeable backends share the same tables, and
:func:`decode_columns`, the one entry, picks between them from what it
can observe.  The pure-Python backend is a cursor walk over the table
— one list index per item.  The numpy backend, used when numpy is
importable and the stream is at least ``_NUMPY_MIN_BYTES`` long,
removes the per-item Python loop entirely:

1. *classify* every stream position with one table gather;
2. *enumerate* item boundaries by path-doubling the jump table
   (``J = J[J]`` squarings seed the first 256 boundaries, then fixed
   256-item strides fill the rest);
3. *materialize* columns (addresses, lengths, ranks, instruction
   tuples) with object-dtype gathers, one ``.tolist()`` per column.

The walk is optimistic: any anomaly (codeword rank beyond the
dictionary, an escaped word that does not decode, a truncated stream,
a unit-count mismatch) raises :class:`BulkFallback` and the caller
(:meth:`~repro.machine.decompressor.StreamDecoder.decode`) re-runs the
reference walk so strict-mode errors are byte-identical.
"""

from __future__ import annotations

from repro.core.encodings import (
    BaselineEncoding,
    CustomNibbleEncoding,
    OneByteEncoding,
    PrefixTables,
    clear_tables as clear_encoding_tables,
    encoding_token,
)
from repro.errors import DecodingError
from repro.isa.instruction import decode as _decode_word

try:  # pragma: no cover - exercised via backend()
    import numpy as _np
except Exception:  # pragma: no cover - numpy is optional
    _np = None

# Below this stream size the vectorized classification pass costs more
# than it saves; the pure-Python walk handles small streams directly.
_NUMPY_MIN_BYTES = 512

# Padding appended to the working copy of the stream so prefix/word
# assembly near the tail never bounds-checks; a decode that actually
# consumes padding is caught by the unit-count checks.
_PAD = b"\x00" * 8

# Process-wide raw-word -> (Instruction,) memo shared by every decode;
# escape words repeat heavily across programs, so this converges fast.
_WORD_INSTRS: dict[int, tuple] = {}
_WORD_INSTRS_CAP = 1 << 20


class BulkFallback(Exception):
    """Bulk decode declined; the caller must use the reference walk."""


_STATS = {
    "decodes": 0,
    "fallbacks": 0,
    # reason -> count: which anomaly triggered each BulkFallback, so a
    # silent fallback-to-reference shows up in bench output instead of
    # masquerading as bulk throughput.
    "fallback_reasons": {},
}


def backend() -> str:
    """The backend streams of ``_NUMPY_MIN_BYTES`` or more decode on:
    ``"numpy"`` when numpy is importable, else ``"python"``."""
    return "python" if _np is None else "numpy"


def bulk_stats() -> dict:
    """Process-wide bulk decode counters (tests and `repro-bench`).

    ``fallback_reasons`` maps each anomaly message that raised
    :class:`BulkFallback` to how many times it fired (a copy — safe to
    retain across later decodes).
    """
    stats = dict(_STATS, backend=backend())
    stats["fallback_reasons"] = dict(_STATS["fallback_reasons"])
    return stats


def reset_bulk_stats() -> None:
    """Zero the counters (benchmark isolation, tests)."""
    _STATS["decodes"] = 0
    _STATS["fallbacks"] = 0
    _STATS["fallback_reasons"] = {}


def _fallback(reason: str):
    _STATS["fallbacks"] += 1
    reasons = _STATS["fallback_reasons"]
    reasons[reason] = reasons.get(reason, 0) + 1
    raise BulkFallback(reason)


# ---------------------------------------------------------------------------
# numpy views of the shared classification tables, per encoding token
# ---------------------------------------------------------------------------
# encoding_token -> (item steps per prefix/first byte, ranks) as arrays.
_NP_VIEWS: dict[tuple, tuple] = {}


def clear_tables() -> None:
    """Drop cached classification tables and their numpy views (tests,
    memory pressure)."""
    clear_encoding_tables()
    _NP_VIEWS.clear()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def decode_columns(decoder):
    """Bulk-decode the strict ``decoder``'s stream into :class:`StreamColumns`.

    Both backends build parallel per-field arrays, and this entry hands
    them over without ever constructing a ``FetchItem`` tuple — the
    simulator predecode layer binds thunks straight from the columns.
    Raises :class:`BulkFallback` whenever the reference walk must run
    instead (unknown encoding, or any malformed stream).
    """
    encoding = decoder.encoding
    use_numpy = _np is not None and len(decoder.stream) >= _NUMPY_MIN_BYTES
    if isinstance(encoding, CustomNibbleEncoding):
        tables = encoding.prefix_tables()
        if use_numpy:
            columns = _numpy_nibble(decoder, tables)
        else:
            columns = _python_nibble(decoder, tables)
    elif isinstance(encoding, (BaselineEncoding, OneByteEncoding)):
        indexed = isinstance(encoding, BaselineEncoding)
        tables = encoding.prefix_tables()
        if use_numpy:
            columns = _numpy_bytes(decoder, tables, codeword_indexed=indexed)
        else:
            columns = _python_bytes(decoder, tables, codeword_indexed=indexed)
    else:
        _fallback(f"unsupported encoding {encoding.name!r}")
    _STATS["decodes"] += 1
    return columns


def _memo_instructions(word: int):
    instructions = _WORD_INSTRS.get(word)
    if instructions is None:
        if len(_WORD_INSTRS) >= _WORD_INSTRS_CAP:
            _WORD_INSTRS.clear()
        try:
            instructions = (_decode_word(word),)
        except DecodingError:
            _fallback("escaped word does not decode")
        _WORD_INSTRS[word] = instructions
    return instructions


# ---------------------------------------------------------------------------
# numpy backend: classify everything, path-double the boundaries,
# materialize columns
# ---------------------------------------------------------------------------
def _enumerate_starts(steps, target: int, max_items: int):
    """Item start positions from a per-position step table.

    ``steps[p]`` is how far an item starting at position ``p`` advances
    the cursor.  Path doubling squares the jump table to ``J_256``
    while seeding the first 256 boundaries, then fills the rest in
    256-boundary strides; this bounds the O(m) squaring passes at 8
    regardless of item count.  Returns the int32 array of starts, or
    falls back if the chain does not land exactly on ``target``.
    """
    m = steps.shape[0]
    jumps = _np.arange(m, dtype=_np.int32)
    jumps += steps
    _np.minimum(jumps, m - 1, out=jumps)
    cap = max_items + 1
    out = _np.empty(cap, dtype=_np.int32)
    out[0] = 0
    filled = 1
    scratch = _np.empty(m, dtype=_np.int32)
    while filled < 256 and filled < cap:
        take = min(filled, cap - filled)
        out[filled : filled + take] = jumps[out[:take]]
        filled += take
        if filled >= cap or int(out[filled - 1]) >= target:
            break
        _np.take(jumps, jumps, out=scratch)
        jumps, scratch = scratch, jumps
    while filled < cap and int(out[filled - 1]) < target:
        take = min(256, cap - filled)
        out[filled : filled + take] = jumps[out[filled - 256 : filled - 256 + take]]
        filled += take
    count = int(_np.searchsorted(out[:filled], target, side="left"))
    if count >= filled or int(out[count]) != target:
        _fallback("stream truncated or unit-count mismatch")
    return out[:count]


def _decode_escape_words(words):
    """Object array of instruction tuples for an array of raw words."""
    uniq, inverse = _np.unique(words, return_inverse=True)
    lookup = _np.empty(uniq.shape[0], dtype=object)
    for i, word in enumerate(uniq.tolist()):
        lookup[i] = _memo_instructions(word)
    return lookup[inverse]


def _numpy_nibble(decoder, tables: PrefixTables):
    stream = decoder.stream
    total = decoder.total_units
    if total > 2 * len(stream):
        _fallback("stream truncated or unit-count mismatch")
    token = encoding_token(decoder.encoding)
    views = _NP_VIEWS.get(token)
    if views is None:
        # Lengths are a function of the first nibble alone: the table
        # builder fills whole `value << 12` blocks.
        steps16 = bytes(tables.lens[value << 12] for value in range(16))
        if 0 in steps16:
            _fallback("encoding bands do not cover every first nibble")
        views = _NP_VIEWS[token] = (
            _np.frombuffer(steps16, dtype=_np.uint8),
            _np.array(tables.ranks, dtype=_np.int32),
        )
    np_steps, np_ranks = views
    entries = decoder._entries
    padded = stream + _PAD
    raw = _np.frombuffer(padded, dtype=_np.uint8).astype(_np.uint32)
    nibbles = _np.empty(2 * raw.shape[0], dtype=_np.uint32)
    nibbles[0::2] = raw >> 4
    nibbles[1::2] = raw & 15
    starts = _enumerate_starts(np_steps[nibbles], total, total)
    item_lens = np_steps[nibbles[starts]]
    escapes = item_lens == 9
    prefixes = (
        (nibbles[starts] << 12)
        | (nibbles[starts + 1] << 8)
        | (nibbles[starts + 2] << 4)
        | nibbles[starts + 3]
    )
    ranks = np_ranks[prefixes]
    codeword_ranks = ranks[~escapes]
    if codeword_ranks.shape[0] and int(codeword_ranks.max()) >= len(entries):
        _fallback("codeword rank beyond the dictionary")
    # Escaped 32-bit words live in the nibbles after the escape nibble;
    # assemble them straight from the padded byte view.
    word_pos = starts[escapes] + 1
    k = word_pos >> 1
    odd = (word_pos & 1) == 1
    w_even = (raw[k] << 24) | (raw[k + 1] << 16) | (raw[k + 2] << 8) | raw[k + 3]
    w_odd = (
        ((raw[k] & 15) << 28)
        | (raw[k + 1] << 20)
        | (raw[k + 2] << 12)
        | (raw[k + 3] << 4)
        | (raw[k + 4] >> 4)
    )
    return _materialize_columns(
        starts, item_lens, escapes, ranks,
        _np.where(odd, w_odd, w_even), entries,
    )


def _numpy_bytes(decoder, tables: PrefixTables, *, codeword_indexed: bool):
    stream = decoder.stream
    total = decoder.total_units
    entries = decoder._entries
    if codeword_indexed:
        codeword_bytes, codeword_units, instruction_units = 2, 1, 2
    else:
        codeword_bytes, codeword_units, instruction_units = 1, 1, 4
    # Byte positions advance `codeword_bytes` per codeword unit and 4
    # per instruction, so the stream end in bytes is proportional to
    # the unit count for each kind; both kinds keep bytes == units *
    # (codeword_bytes / codeword_units).
    target = total * codeword_bytes // codeword_units
    if target > len(stream):
        _fallback("stream truncated or unit-count mismatch")
    token = encoding_token(decoder.encoding)
    views = _NP_VIEWS.get(token)
    if views is None:
        escape_ranks = tables.ranks
        views = _NP_VIEWS[token] = (
            _np.frombuffer(
                bytes(
                    codeword_bytes if escape_ranks[byte] >= 0 else 4
                    for byte in range(256)
                ),
                dtype=_np.uint8,
            ),
            _np.array(escape_ranks, dtype=_np.int32),
        )
    np_steps, np_ranks = views
    padded = stream + _PAD
    raw = _np.frombuffer(padded, dtype=_np.uint8)
    starts = _enumerate_starts(np_steps[raw], target, total)
    escape_ranks = np_ranks[raw[starts]]
    escapes = escape_ranks < 0
    if codeword_indexed:
        ranks = (escape_ranks << 8) | raw[starts + 1].astype(_np.int32)
    else:
        ranks = escape_ranks
    codeword_ranks = ranks[~escapes]
    if codeword_ranks.shape[0] and int(codeword_ranks.max()) >= len(entries):
        _fallback("codeword rank beyond the dictionary")
    k = starts[escapes]
    raw32 = raw.astype(_np.uint32)
    words = (
        (raw32[k] << 24) | (raw32[k + 1] << 16) | (raw32[k + 2] << 8) | raw32[k + 3]
    )
    if codeword_indexed:
        addresses = starts >> 1
    else:
        addresses = starts
    item_lens = _np.where(escapes, instruction_units, codeword_units).astype(
        _np.uint8
    )
    return _materialize_columns(
        addresses, item_lens, escapes, ranks, words, entries
    )


def _materialize_columns(addresses, item_lens, escapes, ranks, words, entries):
    """Build StreamColumns from numpy columns.

    Object-dtype gathers produce real Python ints/bools/tuples per
    column; each ``.tolist()`` is one C pass and no per-item tuple is
    ever constructed.
    """
    from repro.machine.decompressor import StreamColumns

    entry_lookup = _np.empty(max(len(entries), 1), dtype=object)
    for i, entry in enumerate(entries):
        entry_lookup[i] = entry
    instr_col = entry_lookup[_np.where(escapes, 0, ranks)]
    if words.shape[0]:
        instr_col[escapes] = _decode_escape_words(words)
    rank_col = ranks.astype(object)
    rank_col[escapes] = None
    return StreamColumns(
        addresses.tolist(),
        item_lens.tolist(),
        (~escapes).tolist(),
        rank_col.tolist(),
        instr_col.tolist(),
    )


# ---------------------------------------------------------------------------
# Pure-Python backend: cursor walk over the same tables
# ---------------------------------------------------------------------------
def _python_nibble(decoder, tables: PrefixTables):
    encoding = decoder.encoding
    stream = decoder.stream
    padded = stream + _PAD
    entries = decoder._entries
    n_entries = len(entries)
    total = decoder.total_units
    lens = tables.lens
    ranks = tables.ranks
    rows: list = []
    append = rows.append
    position = 0  # nibble cursor
    address = 0
    try:
        while address < total:
            i = position >> 1
            if position & 1:
                prefix = (
                    ((padded[i] & 15) << 12)
                    | (padded[i + 1] << 4)
                    | (padded[i + 2] >> 4)
                )
            else:
                prefix = (padded[i] << 8) | padded[i + 1]
            length = lens[prefix]
            if length == 0:
                _fallback("encoding bands do not cover every first nibble")
            if length != 9:
                rank = ranks[prefix]
                if rank >= n_entries:
                    _fallback("codeword rank beyond the dictionary")
                append((address, length, True, rank, entries[rank]))
                position += length
                address += length
            else:
                word_pos = position + 1
                k = word_pos >> 1
                if word_pos & 1:
                    word = (
                        ((padded[k] & 15) << 28)
                        | (padded[k + 1] << 20)
                        | (padded[k + 2] << 12)
                        | (padded[k + 3] << 4)
                        | (padded[k + 4] >> 4)
                    )
                else:
                    word = (
                        (padded[k] << 24)
                        | (padded[k + 1] << 16)
                        | (padded[k + 2] << 8)
                        | padded[k + 3]
                    )
                append((address, 9, False, None, _memo_instructions(word)))
                position += 9
                address += 9
    except IndexError:
        _fallback("stream truncated mid-item")
    if position * 4 > len(stream) * 8 or address != total:
        _fallback("stream truncated or unit-count mismatch")
    from repro.machine.decompressor import StreamColumns

    return StreamColumns.from_rows(rows)


def _python_bytes(decoder, tables: PrefixTables, *, codeword_indexed: bool):
    """Shared walk for the two byte-aligned encodings.

    ``codeword_indexed=True`` is the baseline scheme (escape byte +
    index byte, 2-byte alignment units); ``False`` is the one-byte
    scheme (the escape byte is the codeword, 1-byte units).
    """
    escape_ranks = tables.ranks
    stream = decoder.stream
    n = len(stream)
    entries = decoder._entries
    n_entries = len(entries)
    total = decoder.total_units
    if codeword_indexed:
        codeword_bytes, codeword_units, instruction_units = 2, 1, 2
    else:
        codeword_bytes, codeword_units, instruction_units = 1, 1, 4
    rows: list = []
    append = rows.append
    position = 0  # byte cursor
    address = 0
    try:
        while address < total:
            rank = escape_ranks[stream[position]]
            if rank >= 0:
                if codeword_indexed:
                    rank = (rank << 8) | stream[position + 1]
                if rank >= n_entries:
                    _fallback("codeword rank beyond the dictionary")
                append((address, codeword_units, True, rank, entries[rank]))
                position += codeword_bytes
                address += codeword_units
            else:
                if position + 4 > n:
                    _fallback("stream truncated mid-item")
                word = (
                    (stream[position] << 24)
                    | (stream[position + 1] << 16)
                    | (stream[position + 2] << 8)
                    | stream[position + 3]
                )
                append(
                    (address, instruction_units, False, None,
                     _memo_instructions(word))
                )
                position += 4
                address += instruction_units
    except IndexError:
        _fallback("stream truncated mid-item")
    if position > n or address != total:
        _fallback("stream truncated or unit-count mismatch")
    from repro.machine.decompressor import StreamColumns

    return StreamColumns.from_rows(rows)
