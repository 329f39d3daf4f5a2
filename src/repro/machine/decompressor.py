"""The dictionary fetch/decode engine (paper Figure 3).

``StreamDecoder`` walks the *serialized* compressed byte stream — not
the compressor's internal token list — exactly as the modified fetch
stage of a compressed-program processor would: peek at the next
alignment unit, classify it as escape/codeword, expand codewords
through the dictionary, and hand decoded PowerPC instructions to the
core.

Decoding the whole stream once up front models the static predecode a
hardware table lookup performs; the result maps every unit address to
the item starting there, so branches can be validated to land only on
item boundaries.

A decoder decodes through one of two methods:

* :meth:`StreamDecoder.decode` is the one strict decode, and the only
  one the production fetch path uses.  It runs the table-driven bulk
  walker of :mod:`repro.machine.bulkdecode` and returns the read-only
  :class:`StreamColumns`; ``FetchItem`` tuples are only their lazy
  :meth:`~StreamColumns.items` view.  Whenever the bulk walk declines,
  the reference walk runs instead, so the first malformed item raises
  the same :class:`~repro.errors.DecompressionError`, carrying the
  failing unit address in a structured field, either way.
* :meth:`StreamDecoder.decode_all_reference` is the one-item-at-a-time
  reference walk: the equivalence oracle on a strict decoder, and the
  lenient walk on a ``strict=False`` one.  A lenient walk records
  malformed items as :class:`DecodeDiagnostic` entries and
  resynchronizes one alignment unit later, bounded by
  ``max_diagnostics`` so a corrupt header can never make the walk
  unbounded.

Strict decodes are memoized in a process-wide :class:`DecodeCache`
keyed by the image content (stream bytes, dictionary words, encoding,
unit count): verification reruns, repeated simulator constructions, and
benchmark sweeps over the same image decode the stream once instead of
once per consumer.  The fast path keeps each image's translation cache
on its cached columns (:func:`repro.machine.fastpath.stream_cache`), so
one LRU entry holds both the decode and the predecode of an image.
Hit/miss/eviction counts are surfaced through
:func:`repro.observe.metric` (``decode_cache.hits`` / ``.misses`` /
``.evictions``) and :func:`decode_cache_stats`.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from repro import bitutils, observe
from repro.core.dictionary import Dictionary
from repro.core.encodings import Encoding, encoding_token
from repro.errors import DecodingError, DecompressionError
from repro.isa.instruction import Instruction, decode


class FetchItem(NamedTuple):
    """One decoded stream item.

    ``instructions`` holds a single decoded instruction for an escape
    item, or the full dictionary expansion for a codeword.

    A ``NamedTuple`` rather than a frozen dataclass so the bulk decoder
    can materialize items straight from row tuples with
    ``tuple.__new__`` — construction cost dominates a table-driven
    decode at ~10^6 items/s.
    """

    address: int  # unit address of the item's first unit
    size_units: int
    is_codeword: bool
    rank: int | None
    instructions: tuple[Instruction, ...]


class StreamColumns:
    """Columnar view of a decoded stream (the zero-copy fetch path).

    Parallel plain-Python lists, one row per item: ``addresses[i]``,
    ``sizes[i]``, ``is_codeword[i]``, ``ranks[i]``, and
    ``instructions[i]`` are the five fields of what would be
    ``FetchItem`` number ``i``.  The bulk decoder produces these
    columns natively — the simulator predecode layer binds thunks
    straight from them, so the hot construction path never pays for a
    tuple per item.  :meth:`items` materializes (and memoizes) the
    classic ``FetchItem`` tuple for every other consumer, and
    :attr:`index` is the lazily built unit-address -> row index map.
    ``translation`` is the fast path's translation cache for these
    columns, set on first fast run (:func:`repro.machine.fastpath.
    stream_cache`).

    Both views are *the same decode*: ``items()[i] == (addresses[i],
    sizes[i], is_codeword[i], ranks[i], instructions[i])`` by
    construction, which the differential tests pin down field by
    field.
    """

    __slots__ = (
        "addresses",
        "sizes",
        "is_codeword",
        "ranks",
        "instructions",
        "translation",
        "_index",
        "_items",
    )

    def __init__(self, addresses, sizes, is_codeword, ranks, instructions):
        self.addresses = addresses
        self.sizes = sizes
        self.is_codeword = is_codeword
        self.ranks = ranks
        self.instructions = instructions
        self.translation = None
        self._index = None
        self._items = None

    @classmethod
    def from_rows(cls, rows) -> "StreamColumns":
        """Transpose ``(address, size, is_codeword, rank, instructions)``
        row tuples into columns."""
        if rows:
            return cls(*map(list, zip(*rows)))
        return cls([], [], [], [], [])

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def index(self) -> dict[int, int]:
        """Unit address -> row index (built once, then shared)."""
        if self._index is None:
            self._index = {
                address: i for i, address in enumerate(self.addresses)
            }
        return self._index

    def items(self) -> tuple["FetchItem", ...]:
        """The row-tuple view, materialized once and shared."""
        if self._items is None:
            self._items = tuple(
                map(
                    tuple.__new__,
                    repeat(FetchItem),
                    zip(
                        self.addresses,
                        self.sizes,
                        self.is_codeword,
                        self.ranks,
                        self.instructions,
                    ),
                )
            )
        return self._items


@dataclass(frozen=True)
class DecodeDiagnostic:
    """One malformed item recorded by a lenient decode pass."""

    unit_address: int
    message: str


class DecodeCache:
    """LRU cache of successful strict decode passes.

    Values are the decodes' :class:`StreamColumns`, with the
    unit-address index, the tuple-item view and the fast path's
    translation cache hanging off them, each built lazily.  They are
    shared between consumers, which is safe because a strict decode of
    a given image content is deterministic; every cached structure must
    be treated as read-only by callers.  One lock guards the entries, so
    executor threads may share the cache.

    Eviction is bounded two ways: ``capacity`` caps the entry count and
    ``max_bytes`` caps the approximate retained size.  Each entry is
    costed as its stream length in bytes plus one unit per decoded item
    — the items share ``Instruction`` objects with the dictionary and
    the process-wide decode tables, so stream length + item count is
    the honest proxy for marginal footprint.
    """

    def __init__(self, capacity: int = 32, max_bytes: int = 8 << 20) -> None:
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0
        self._entries: OrderedDict[str, StreamColumns] = OrderedDict()
        self._costs: dict[str, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def content_key(
        stream: bytes, dictionary: Dictionary, encoding: Encoding, total_units: int
    ) -> str:
        """Digest of everything a strict decode depends on."""
        entries = dictionary.entries
        lengths = array("I", [len(entry.words) for entry in entries])
        words = array("I", [w for entry in entries for w in entry.words])
        hasher = hashlib.sha256()
        hasher.update(repr((encoding_token(encoding), total_units)).encode())
        hasher.update(lengths.tobytes())
        hasher.update(words.tobytes())
        hasher.update(stream)
        return hasher.hexdigest()

    def lookup(self, key: str) -> StreamColumns | None:
        with self._lock:
            columns = self._entries.get(key)
            if columns is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        observe.metric(
            "decode_cache.misses" if columns is None else "decode_cache.hits"
        )
        return columns

    def store(
        self, key: str, columns: StreamColumns, stream_bytes: int = 0
    ) -> None:
        evicted = 0
        with self._lock:
            if key in self._entries:
                self.bytes -= self._costs.get(key, 0)
            self._entries[key] = columns
            self._entries.move_to_end(key)
            cost = stream_bytes + len(columns)
            self._costs[key] = cost
            self.bytes += cost
            # Keep at least the entry just stored: it is the live working
            # set even when it alone exceeds the byte bound.
            while len(self._entries) > self.capacity or (
                self.bytes > self.max_bytes and len(self._entries) > 1
            ):
                oldest, _ = self._entries.popitem(last=False)
                self.bytes -= self._costs.pop(oldest, 0)
                evicted += 1
            self.evictions += evicted
        for _ in range(evicted):
            observe.metric("decode_cache.evictions")

    def snapshot(self) -> list[StreamColumns]:
        """The cached columns, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry, with its translation cache, and the counters."""
        with self._lock:
            for columns in self._entries.values():
                columns.translation = None
            self._entries.clear()
            self._costs.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


_decode_cache = DecodeCache()


def decode_cache_stats() -> dict[str, int]:
    """Process-wide decode-cache counters."""
    return {
        "hits": _decode_cache.hits,
        "misses": _decode_cache.misses,
        "entries": len(_decode_cache),
        "bytes": _decode_cache.bytes,
        "max_bytes": _decode_cache.max_bytes,
        "capacity": _decode_cache.capacity,
        "evictions": _decode_cache.evictions,
    }


def clear_decode_cache() -> None:
    """Drop all cached decodes, with their translation caches, and reset
    the counters."""
    _decode_cache.clear()


class StreamDecoder:
    """Decodes a compressed text stream against its dictionary."""

    def __init__(
        self,
        stream: bytes,
        dictionary: Dictionary,
        encoding: Encoding,
        total_units: int,
        *,
        strict: bool = True,
        max_diagnostics: int = 64,
    ) -> None:
        self.stream = stream
        self.dictionary = dictionary
        self.encoding = encoding
        self.total_units = total_units
        self.strict = strict
        self.max_diagnostics = max_diagnostics
        self.diagnostics: list[DecodeDiagnostic] = []
        self._entries: list[tuple[Instruction, ...] | None] | None = None
        if not strict:
            # A lenient decoder reports its dictionary before any item.
            self.expansions()

    def expansions(self) -> list[tuple[Instruction, ...] | None]:
        """Each dictionary entry decoded (the on-chip dictionary RAM).

        Decoded on the first call, so a strict :meth:`decode` served
        from the decode cache never pays for it.  A strict decoder
        raises on an empty or undecodable entry; a lenient one records
        a diagnostic and keeps ``None``, so codewords that reference
        the entry become diagnostics instead of expansions.
        """
        if self._entries is not None:
            return self._entries
        expansions: list[tuple[Instruction, ...] | None] = []
        for rank, entry in enumerate(self.dictionary.entries):
            try:
                expansion = tuple(decode(word) for word in entry.words)
            except DecodingError as exc:
                if self.strict:
                    raise DecompressionError(
                        f"dictionary entry {rank} does not decode: {exc}"
                    ) from exc
                self.diagnostics.append(
                    DecodeDiagnostic(-1, f"dictionary entry {rank}: {exc}")
                )
                expansion = None
            if expansion == ():
                message = f"dictionary entry {rank} is empty"
                if self.strict:
                    raise DecompressionError(message)
                self.diagnostics.append(DecodeDiagnostic(-1, message))
                expansion = None
            expansions.append(expansion)
        self._entries = expansions
        return expansions

    # ------------------------------------------------------------------
    def _read_one(
        self, reader: bitutils.BitReader, address: int
    ) -> FetchItem:
        """Decode the single item starting at ``address``."""
        kind, payload = self.encoding.read_item(reader)
        if kind == "cw":
            if payload >= len(self._entries):
                raise DecompressionError(
                    f"codeword {payload} exceeds dictionary of "
                    f"{len(self._entries)} entries",
                    unit_address=address,
                )
            expansion = self._entries[payload]
            if expansion is None:
                raise DecompressionError(
                    f"codeword {payload} references an undecodable "
                    "dictionary entry",
                    unit_address=address,
                )
            size_bits = self.encoding.codeword_bits(payload)
            return FetchItem(
                address=address,
                size_units=self.encoding.units(size_bits),
                is_codeword=True,
                rank=payload,
                instructions=expansion,
            )
        return FetchItem(
            address=address,
            size_units=self.encoding.instruction_units(),
            is_codeword=False,
            rank=None,
            instructions=(decode(payload),),
        )

    def decode(self) -> StreamColumns:
        """Strict decode of the whole stream into :class:`StreamColumns`.

        Served from the process-wide :class:`DecodeCache` when the same
        image content was decoded before; the columns are **shared**
        between consumers and must not be mutated.  A miss runs the
        table-driven bulk walker, and the reference walk when the bulk
        walk declines, so a malformed stream raises the reference
        walk's error.  Strict decoders only: a lenient walk is
        :meth:`decode_all_reference`.
        """
        if not self.strict:
            raise ValueError("decode() requires a strict decoder")
        from repro.machine import bulkdecode

        key = DecodeCache.content_key(
            self.stream, self.dictionary, self.encoding, self.total_units
        )
        columns = _decode_cache.lookup(key)
        if columns is None:
            self.expansions()  # a bad dictionary raises before any item
            try:
                columns = bulkdecode.decode_columns(self)
            except bulkdecode.BulkFallback:
                columns = StreamColumns.from_rows(self.decode_all_reference())
            _decode_cache.store(key, columns, len(self.stream))
        return columns

    def decode_all_reference(self) -> list[FetchItem]:
        """The one-item-at-a-time reference walk: the equivalence oracle
        of :meth:`decode`, and the lenient walk on a ``strict=False``
        decoder."""
        self.expansions()
        reader = bitutils.BitReader(self.stream)
        items: list[FetchItem] = []
        address = 0
        while address < self.total_units:
            start_bit = reader.bit_position
            try:
                items.append(self._read_one(reader, address))
            except (DecompressionError, DecodingError, EOFError) as exc:
                if self.strict:
                    if isinstance(exc, DecompressionError):
                        if exc.unit_address is not None:
                            raise
                        raise DecompressionError(
                            str(exc), unit_address=address
                        ) from exc
                    if isinstance(exc, EOFError):
                        raise DecompressionError(
                            "stream exhausted mid-item", unit_address=address
                        ) from exc
                    raise DecompressionError(
                        f"escaped word does not decode: {exc}",
                        unit_address=address,
                    ) from exc
                self.diagnostics.append(DecodeDiagnostic(address, str(exc)))
                if len(self.diagnostics) >= self.max_diagnostics:
                    self.diagnostics.append(
                        DecodeDiagnostic(address, "diagnostic budget exhausted")
                    )
                    return items
                # Resynchronize one alignment unit later and keep going.
                resync = start_bit + self.encoding.alignment_bits
                if resync > len(self.stream) * 8:
                    return items
                reader.seek_bit(resync)
                address += 1
                continue
            address += items[-1].size_units
        if address != self.total_units:
            message = (
                f"stream decoded to {address} units, "
                f"expected {self.total_units}"
            )
            if self.strict:
                raise DecompressionError(message, unit_address=address)
            self.diagnostics.append(DecodeDiagnostic(address, message))
        return items
