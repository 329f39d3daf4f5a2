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

Two decode modes exist:

* **strict** (the default, and the only mode the production fetch path
  uses): the first malformed item raises
  :class:`~repro.errors.DecompressionError` carrying the failing unit
  address in a structured field;
* **lenient** (``strict=False``, used by fault-injection campaigns):
  malformed items are recorded as :class:`DecodeDiagnostic` entries and
  decoding resynchronizes one alignment unit later, bounded by
  ``max_diagnostics`` so a corrupt header can never make the walk
  unbounded.

Strict decodes run through the table-driven bulk walker of
:mod:`repro.machine.bulkdecode` by default and fall back to the
one-item-at-a-time reference walk (:meth:`StreamDecoder.
decode_all_reference`) whenever the stream is malformed, so error
behavior is byte-identical either way.  Lenient decodes always use the
reference walk — resynchronization and diagnostics are defined in
terms of it.

Strict decodes are memoized in a process-wide :class:`DecodeCache`
keyed by the image content (stream bytes, dictionary words, encoding,
unit count): verification reruns, repeated simulator constructions, and
benchmark sweeps over the same image decode the stream once instead of
once per consumer.  Hit/miss/eviction counts are surfaced through
:func:`repro.observe.metric` (``decode_cache.hits`` / ``.misses`` /
``.evictions``) and :func:`decode_cache_stats`.  Lenient decodes are
never cached — their whole point is to re-walk a possibly-corrupt
stream and collect diagnostics.
"""

from __future__ import annotations

import hashlib
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
        "_index",
        "_items",
    )

    def __init__(self, addresses, sizes, is_codeword, ranks, instructions):
        self.addresses = addresses
        self.sizes = sizes
        self.is_codeword = is_codeword
        self.ranks = ranks
        self.instructions = instructions
        self._index = None
        self._items = None

    @classmethod
    def from_rows(cls, rows) -> "StreamColumns":
        """Transpose ``(address, size, is_codeword, rank, instructions)``
        row tuples into columns."""
        if rows:
            return cls(*map(list, zip(*rows)))
        return cls([], [], [], [], [])

    @classmethod
    def from_items(cls, items) -> "StreamColumns":
        """Columns over an existing ``FetchItem`` sequence (reference
        walk fallback); the item view is retained, not rebuilt."""
        columns = cls.from_rows(items)
        columns._items = tuple(items)
        return columns

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

    Values are ``(columns, item_at_address)`` — the
    :class:`StreamColumns` view of the decode plus the unit-address
    index over it (the tuple-item view hangs off the columns, built
    lazily).  Both are shared between consumers, which is safe because
    a strict decode of a given image content is deterministic; every
    cached structure must be treated as read-only by callers.

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
        self._entries: OrderedDict[
            str, tuple["StreamColumns", dict[int, int]]
        ] = OrderedDict()
        self._costs: dict[str, int] = {}

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

    def lookup(
        self, key: str
    ) -> tuple["StreamColumns", dict[int, int]] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            observe.metric("decode_cache.misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        observe.metric("decode_cache.hits")
        return entry

    def store(
        self,
        key: str,
        columns: "StreamColumns",
        index: dict[int, int],
        stream_bytes: int = 0,
    ) -> None:
        if key in self._entries:
            self.bytes -= self._costs.get(key, 0)
        self._entries[key] = (columns, index)
        self._entries.move_to_end(key)
        cost = stream_bytes + len(columns)
        self._costs[key] = cost
        self.bytes += cost
        # Keep at least the entry just stored: it is the live working
        # set even when it alone exceeds the byte bound.
        while len(self._entries) > self.capacity or (
            self.bytes > self.max_bytes and len(self._entries) > 1
        ):
            evicted, _ = self._entries.popitem(last=False)
            self.bytes -= self._costs.pop(evicted, 0)
            self.evictions += 1
            observe.metric("decode_cache.evictions")

    def clear(self) -> None:
        self._entries.clear()
        self._costs.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


_decode_cache = DecodeCache()
_decode_cache_enabled = True


def decode_cache_stats() -> dict[str, int]:
    """Process-wide decode-cache counters (for tests and `repro-bench`)."""
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
    """Drop all cached decodes and reset the counters."""
    _decode_cache.clear()


def set_decode_cache_enabled(enabled: bool) -> bool:
    """Enable/disable the cache process-wide; returns the previous state."""
    global _decode_cache_enabled
    previous = _decode_cache_enabled
    _decode_cache_enabled = enabled
    return previous


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
        # Which engine produced the last decode_all result:
        # "bulk-numpy", "bulk-python", or "reference".
        self.last_implementation: str | None = None
        # Pre-decode dictionary entries once (the on-chip dictionary RAM).
        # A lenient decoder keeps going past entries whose words no
        # longer decode; codewords that reference them become
        # diagnostics instead of expansions.
        self._entries: list[tuple[Instruction, ...] | None] = []
        for rank, entry in enumerate(dictionary.entries):
            try:
                self._entries.append(tuple(decode(word) for word in entry.words))
            except DecodingError as exc:
                if strict:
                    raise DecompressionError(
                        f"dictionary entry {rank} does not decode: {exc}"
                    ) from exc
                self.diagnostics.append(
                    DecodeDiagnostic(-1, f"dictionary entry {rank}: {exc}")
                )
                self._entries.append(None)

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

    def content_key(self) -> str:
        """Digest of everything this decode depends on.

        The same key indexes the decode cache and the fast path's
        translation-cache registry (:mod:`repro.machine.fastpath`), so
        predecoded thunks follow the decoded items' identity.
        """
        return DecodeCache.content_key(
            self.stream, self.dictionary, self.encoding, self.total_units
        )

    def decode_all(self, *, implementation: str = "bulk") -> tuple[FetchItem, ...]:
        """Decode the full stream into items with unit addresses.

        Strict decodes default to the table-driven bulk walker and are
        served from the process-wide :class:`DecodeCache` when the same
        image content was decoded before; the returned tuple is
        **shared** between consumers and must not be mutated.  Pass
        ``implementation="reference"`` to force the one-item-at-a-time
        walk.  Lenient decoders always take the reference walk — bulk
        decoding cannot attribute diagnostics to resynchronization
        points (and asserts nothing about malformed tails).
        """
        if implementation not in ("bulk", "reference"):
            raise ValueError(f"unknown decode implementation {implementation!r}")
        if not self.strict or implementation == "reference":
            return tuple(self.decode_all_reference())
        if _decode_cache_enabled:
            return self.decode_all_indexed()[0]
        return self._decode_columns().items()

    def decode_all_reference(self) -> list[FetchItem]:
        """The one-item-at-a-time reference walk (equivalence oracle)."""
        self.last_implementation = "reference"
        return self._walk_stream()

    def decode_all_columnar(self) -> StreamColumns:
        """Strict decode returning the columnar view + address index.

        This is the fast path's native fetch product: the bulk decoder
        hands over its parallel arrays directly and no ``FetchItem``
        tuple is ever built unless a consumer asks the returned
        :class:`StreamColumns` for :meth:`~StreamColumns.items`.  The
        columns are cached in the process-wide :class:`DecodeCache`
        (same entry the tuple view shares) and must be treated as
        read-only.  Strict mode only.
        """
        if not self.strict:
            raise ValueError("decode_all_columnar requires a strict decoder")
        key = None
        if _decode_cache_enabled:
            key = self.content_key()
            cached = _decode_cache.lookup(key)
            if cached is not None:
                return cached[0]
        columns = self._decode_columns()
        if key is not None:
            _decode_cache.store(key, columns, columns.index, len(self.stream))
        return columns

    def decode_all_indexed(
        self,
    ) -> tuple[tuple[FetchItem, ...], dict[int, int]]:
        """Strict decode returning ``(items, unit_address -> index)``.

        Both structures may be shared with other consumers via the
        decode cache — treat them as read-only.  Only available in
        strict mode (lenient walks are never cached; their item lists
        depend on diagnostic state).  The tuple view is materialized
        lazily from the cached columns, once per image content.
        """
        if not self.strict:
            raise ValueError("decode_all_indexed requires a strict decoder")
        columns = self.decode_all_columnar()
        return columns.items(), columns.index

    def _decode_columns(self) -> StreamColumns:
        """Strict bulk decode, deferring to the reference walk on any
        anomaly so errors stay byte-identical."""
        from repro.machine import bulkdecode

        try:
            columns = bulkdecode.decode_stream_columnar(self)
        except bulkdecode.BulkFallback:
            self.last_implementation = "reference"
            return StreamColumns.from_items(self._walk_stream())
        self.last_implementation = f"bulk-{bulkdecode.backend()}"
        return columns

    def _walk_stream(self) -> list[FetchItem]:
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
