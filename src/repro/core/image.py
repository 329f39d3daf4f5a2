"""Persistent compressed-executable images.

A :class:`CompressedImage` is the self-contained artifact a compressed
program ROM would hold: the encoding identity, the dictionary, the
compressed instruction stream, the (jump-table-patched) data image, and
the entry point.  It can be serialized to bytes (``RCIM`` container),
reloaded, and executed by the compressed simulator with no access to
the original :class:`~repro.linker.program.Program` — which is exactly
the deployment story of the paper's section 3.3 processor.

Container layout (all integers big-endian):

=========  ======================================================
field      contents
=========  ======================================================
magic      ``b"RCIM"``
version    u8 (currently 2)
crc        u32 CRC-32 of every byte after this field
name       u8 length + utf-8 bytes
encoding   u8 length + utf-8 name ('baseline'/'onebyte'/'nibble')
maxcw      u32 encoding max_codewords
entry      u32 entry unit address
units      u32 total stream units
text_base  u32
dict       u16 entry count, then per entry: u8 length + u32 words
stream     u32 byte length + bytes
data       u32 byte length + bytes
=========  ======================================================

Deserialization failures are distinguished so callers (the CLI, the
service cache) can react per cause.  All are
:class:`~repro.errors.CompressionError` subclasses:

* :class:`ImageFormatError` — the container structure is wrong: bad
  magic, unsupported version, truncated field, or trailing bytes.
* :class:`ImageChecksumError` — the structure parses but the payload
  CRC does not match (a bit flip in the stream, dictionary, or data).
* :class:`ImageEncodingError` — the encoding id names no known
  codeword scheme.
* :class:`ImageCapacityError` — the dictionary holds more entries
  than the declared encoding can address.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache

from repro.core.compressor import CompressedProgram
from repro.core.dictionary import Dictionary, DictionaryEntry
from repro.core.encodings import Encoding, make_encoding
from repro.errors import CompressionError

MAGIC = b"RCIM"
VERSION = 2


class ImageError(CompressionError):
    """Base class for ``.rcim`` container failures."""


class ImageFormatError(ImageError):
    """The container structure is malformed (magic/version/length)."""


class ImageChecksumError(ImageError):
    """The payload CRC does not match — the image bytes are corrupt."""


class ImageEncodingError(ImageError):
    """The image names an encoding this library does not provide."""


class ImageCapacityError(ImageError):
    """The dictionary exceeds the declared encoding's codeword space."""


@dataclass(frozen=True)
class CompressedImage:
    """A self-contained compressed executable."""

    name: str
    encoding_name: str
    max_codewords: int
    dictionary: Dictionary
    stream: bytes
    total_units: int
    entry_unit: int
    text_base: int
    data_image: bytes

    # ------------------------------------------------------------------
    def encoding(self) -> Encoding:
        return make_encoding(self.encoding_name, self.max_codewords)

    @property
    def stream_bytes(self) -> int:
        return len(self.stream)

    @property
    def dictionary_bytes(self) -> int:
        return self.dictionary.size_bytes

    @property
    def total_bytes(self) -> int:
        return self.stream_bytes + self.dictionary_bytes

    # ------------------------------------------------------------------
    @classmethod
    def from_compressed(cls, compressed: CompressedProgram) -> "CompressedImage":
        """Capture a compressor result as a standalone image."""
        program = compressed.program
        encoding = compressed.encoding
        return cls(
            name=program.name,
            encoding_name=encoding.name,
            max_codewords=encoding.capacity,
            dictionary=compressed.dictionary,
            stream=compressed.stream,
            total_units=compressed.total_units(),
            entry_unit=compressed.index_to_unit[program.entry_index],
            text_base=program.text_base,
            data_image=bytes(compressed.data_image),
        )

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        payload = bytearray()
        for text in (self.name, self.encoding_name):
            encoded = text.encode("utf-8")
            if len(encoded) > 255:
                raise CompressionError(f"name too long: {text!r}")
            payload += struct.pack(">B", len(encoded))
            payload += encoded
        payload += struct.pack(
            ">IIII",
            self.max_codewords,
            self.entry_unit,
            self.total_units,
            self.text_base,
        )
        payload += struct.pack(">H", len(self.dictionary))
        for entry in self.dictionary.entries:
            payload += struct.pack(">BI", len(entry.words), entry.uses)
            for word in entry.words:
                payload += struct.pack(">I", word)
        payload += struct.pack(">I", len(self.stream))
        payload += self.stream
        payload += struct.pack(">I", len(self.data_image))
        payload += self.data_image
        out = bytearray()
        out += MAGIC
        out += struct.pack(">B", VERSION)
        out += struct.pack(">I", zlib.crc32(payload))
        out += payload
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompressedImage":
        view = _Cursor(blob)
        if view.take(4) != MAGIC:
            raise ImageFormatError("not a compressed image (bad magic)")
        version = view.u8()
        if version != VERSION:
            raise ImageFormatError(f"unsupported image version {version}")
        crc = view.u32()
        payload_start = view.position
        name = view.take(view.u8()).decode("utf-8", errors="replace")
        encoding_name = view.take(view.u8()).decode("utf-8", errors="replace")
        max_codewords, entry_unit, total_units, text_base = (
            view.u32(), view.u32(), view.u32(), view.u32(),
        )
        entries = view.entries(view.u16())
        stream = view.take(view.u32())
        data_image = view.take(view.u32())
        if view.remaining():
            raise ImageFormatError("trailing bytes in image")
        if zlib.crc32(memoryview(blob)[payload_start:]) != crc:
            raise ImageChecksumError("image checksum mismatch (corrupt bytes)")
        try:
            encoding = make_encoding(encoding_name, max_codewords)
        except CompressionError as exc:
            raise ImageEncodingError(
                f"image names unknown encoding {encoding_name!r}"
            ) from exc
        if len(entries) > encoding.capacity:
            raise ImageCapacityError(
                f"dictionary has {len(entries)} entries but encoding "
                f"{encoding_name!r} addresses at most {encoding.capacity}"
            )
        return cls(
            name=name,
            encoding_name=encoding_name,
            max_codewords=max_codewords,
            dictionary=Dictionary(entries),
            stream=stream,
            total_units=total_units,
            entry_unit=entry_unit,
            text_base=text_base,
            data_image=data_image,
        )


class _Cursor:
    """Minimal big-endian deserialization cursor."""

    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._blob):
            raise ImageFormatError("truncated image")
        chunk = self._blob[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def entries(self, count: int) -> list[DictionaryEntry]:
        """``count`` dictionary entries (u8 length, u32 uses, then the
        words), each read with one ``unpack_from``."""
        blob = self._blob
        position = self._pos
        entries = []
        try:
            for _ in range(count):
                layout = _entry_layout(blob[position])
                fields = layout.unpack_from(blob, position)
                entries.append(DictionaryEntry(words=fields[2:], uses=fields[1]))
                position += layout.size
        except (IndexError, struct.error):
            raise ImageFormatError("truncated image") from None
        self._pos = position
        return entries

    def remaining(self) -> int:
        return len(self._blob) - self._pos


@lru_cache(maxsize=None)
def _entry_layout(length: int) -> struct.Struct:
    """The layout of a dictionary entry of ``length`` words."""
    return struct.Struct(f">BI{length}I")
