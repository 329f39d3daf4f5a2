"""Static invariant checking over compressed programs and images.

A compressed program is only executable if a web of structural
invariants holds (paper sections 3.1–3.3): branches may land only on
fetch-item boundaries, jump-table slots must name valid unit addresses,
patched offsets must fit their instruction fields, codeword ranks must
be dense and within the encoding's capacity, and escape units must be
drawn from the 8 illegal primary opcodes so the stream stays
unambiguous.

This pass checks all of that *without executing anything*.  Every
violation is a typed :class:`Finding` — never an assert — so a
fault-injection campaign or a CI job can collect the full list and
classify, and so one broken branch doesn't hide a broken jump table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import bitutils
from repro.core.branch_patch import _target_field_width
from repro.core.compressor import CompressedProgram
from repro.core.image import CompressedImage
from repro.errors import (
    BranchRangeError,
    CompressionError,
    DecompressionError,
    EncodingError,
)
from repro.isa.opcodes import ILLEGAL_PRIMARY_OPCODES
from repro.machine.decompressor import FetchItem, StreamDecoder

#: Rules emitted by this pass (stable identifiers for classification).
RULES = (
    "stream-decode",
    "stream-length",
    "layout-mismatch",
    "branch-boundary",
    "branch-width",
    "jump-table",
    "entry-boundary",
    "dict-capacity",
    "dict-rank",
    "dict-entry",
    "escape-discipline",
    "token-word",
)


@dataclass(frozen=True)
class Finding:
    """One invariant violation."""

    rule: str
    message: str
    unit: int | None = None
    severity: str = "error"  # "error" | "warning"

    def render(self) -> str:
        where = f" @ unit {self.unit}" if self.unit is not None else ""
        return f"[{self.rule}]{where}: {self.message}"


@dataclass
class InvariantReport:
    """All findings from one checking pass."""

    name: str
    checks: int
    findings: list[Finding]

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        lines = [f"{self.name}: {self.checks} checks, {status}"]
        lines.extend(f"  {finding.render()}" for finding in self.findings)
        return "\n".join(lines)


class _Checker:
    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.findings: list[Finding] = []

    def check(self, ok: bool, rule: str, message: str, unit: int | None = None,
              severity: str = "error") -> None:
        self.checks += 1
        if not ok:
            self.findings.append(Finding(rule, message, unit, severity))

    def fail(self, rule: str, message: str, unit: int | None = None) -> None:
        self.check(False, rule, message, unit)

    def report(self) -> InvariantReport:
        return InvariantReport(self.name, self.checks, self.findings)


# ----------------------------------------------------------------------
# Shared stream-level checks
# ----------------------------------------------------------------------
def _decode_items(
    checker: _Checker, stream, dictionary, encoding, total_units
) -> list[FetchItem]:
    """Strict-decode the stream; a failure becomes a finding."""
    try:
        decoder = StreamDecoder(stream, dictionary, encoding, total_units)
        items = decoder.decode().items()
    except (DecompressionError, CompressionError) as exc:
        checker.fail(
            "stream-decode", str(exc),
            getattr(exc, "unit_address", None),
        )
        return []
    checker.check(
        sum(item.size_units for item in items) == total_units,
        "stream-length",
        f"items cover {sum(i.size_units for i in items)} units, "
        f"header declares {total_units}",
    )
    return items


def _check_escape_discipline(
    checker: _Checker, items: list[FetchItem], stream: bytes, encoding
) -> None:
    """Escape units must come from the 8 illegal primary opcodes.

    For byte-aligned encodings a codeword's first byte must be an
    escape byte (top 6 bits illegal) and an uncompressed instruction
    must *not* start with one — otherwise the stream is ambiguous.  For
    the nibble family the reserved escape nibble (15) plays that role.
    """
    reader = bitutils.BitReader(stream)
    for item in items:
        bits = item.size_units * encoding.alignment_bits
        if reader.bit_position + bits > len(stream) * 8:
            return  # already reported as a decode/length finding
        if encoding.alignment_bits == 4:
            first = reader.peek(4)
            if item.is_codeword:
                checker.check(
                    first != 15, "escape-discipline",
                    f"codeword #{item.rank} begins with the escape nibble",
                    item.address,
                )
            else:
                checker.check(
                    first == 15, "escape-discipline",
                    f"escaped instruction lacks the escape nibble "
                    f"(got {first})",
                    item.address,
                )
        else:
            first = reader.peek(8)
            illegal = (first >> 2) in ILLEGAL_PRIMARY_OPCODES
            if item.is_codeword:
                checker.check(
                    illegal, "escape-discipline",
                    f"codeword #{item.rank} escape byte {first:#04x} is not "
                    "built from an illegal primary opcode",
                    item.address,
                )
            else:
                checker.check(
                    not illegal, "escape-discipline",
                    f"uncompressed instruction starts with escape byte "
                    f"{first:#04x} — stream is ambiguous",
                    item.address,
                )
        reader.seek_bit(reader.bit_position + bits)


def _check_dictionary(checker: _Checker, dictionary, encoding) -> None:
    checker.check(
        len(dictionary) <= encoding.capacity,
        "dict-capacity",
        f"dictionary holds {len(dictionary)} entries; encoding "
        f"{encoding.name!r} addresses at most {encoding.capacity}",
    )
    for rank, entry in enumerate(dictionary.entries):
        checker.check(
            entry.length >= 1, "dict-entry",
            f"entry #{rank} is empty",
        )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def check_compressed(compressed: CompressedProgram) -> InvariantReport:
    """Full invariant pass over an in-memory compressor result.

    Uses token provenance for the branch/jump-table checks, and the
    serialized stream for the decode-level checks — so a bug in either
    representation (or a mismatch between them) is caught.
    """
    program = compressed.program
    encoding = compressed.encoding
    checker = _Checker(program.name)

    items = _decode_items(
        checker, compressed.stream, compressed.dictionary, encoding,
        compressed.total_units(),
    )
    boundaries = {item.address for item in items}
    tokens = compressed.tokens
    token_starts = {token.address for token in tokens}
    if items:
        checker.check(
            boundaries == token_starts,
            "layout-mismatch",
            "decoded item boundaries differ from token layout "
            f"({len(boundaries)} items vs {len(token_starts)} tokens)",
        )
        _check_escape_discipline(checker, items, compressed.stream, encoding)
    _check_dictionary(checker, compressed.dictionary, encoding)

    # Branch targets and field widths, at token granularity.
    for token in tokens:
        if token.kind == "cw":
            checker.check(
                token.rank is not None
                and token.rank < len(compressed.dictionary),
                "dict-rank",
                f"token at unit {token.address} references rank "
                f"{token.rank} of a {len(compressed.dictionary)}-entry "
                "dictionary",
                token.address,
            )
            continue
        # The serializer and verify_stream trust the carried word; only
        # this full pass re-encodes it.
        try:
            encoded = token.instruction.encode()
        except EncodingError as exc:
            checker.fail("token-word", str(exc), token.address)
        else:
            checker.check(
                token.word == encoded,
                "token-word",
                f"token carries word {token.word!r}, its instruction "
                f"encodes to {encoded}",
                token.address,
            )
        if not token.is_branch_token:
            continue
        try:
            width = _target_field_width(token.instruction)
        except BranchRangeError as exc:
            checker.fail("branch-width", str(exc), token.address)
            continue
        offset = token.instruction.operand("target")
        checker.check(
            bitutils.fits_signed(offset, width),
            "branch-width",
            f"offset {offset} does not fit the {width}-bit field",
            token.address,
        )
        checker.check(
            token.address + offset in boundaries,
            "branch-boundary",
            f"branch from unit {token.address} targets unit "
            f"{token.address + offset}, which is inside an encoded item",
            token.address,
        )

    # Jump-table slots in the patched data image.
    for slot in program.jump_table_slots:
        raw = int.from_bytes(
            compressed.data_image[slot.data_offset : slot.data_offset + 4],
            "big",
        )
        unit = raw - program.text_base
        checker.check(
            unit in boundaries,
            "jump-table",
            f"slot at data offset {slot.data_offset} holds {raw:#x} "
            f"(unit {unit}), which is not an item boundary",
            unit if unit >= 0 else None,
        )

    entry_unit = compressed.index_to_unit.get(program.entry_index)
    checker.check(
        entry_unit is not None and entry_unit in boundaries,
        "entry-boundary",
        f"entry point (instruction {program.entry_index}) does not map "
        "to an item boundary",
    )
    return checker.report()


def check_image(image: CompressedImage) -> InvariantReport:
    """Decode-level invariant pass over a standalone ``.rcim`` image.

    An image carries no token or jump-table provenance, so this checks
    what a loader can see: the dictionary, the stream, the escape
    discipline, and the entry point.
    """
    checker = _Checker(image.name)
    try:
        encoding = image.encoding()
    except CompressionError as exc:
        checker.fail("dict-capacity", f"encoding unavailable: {exc}")
        return checker.report()
    items = _decode_items(
        checker, image.stream, image.dictionary, encoding, image.total_units
    )
    if items:
        _check_escape_discipline(checker, items, image.stream, encoding)
    _check_dictionary(checker, image.dictionary, encoding)
    checker.check(
        image.entry_unit in {item.address for item in items},
        "entry-boundary",
        f"entry unit {image.entry_unit} is not an item boundary",
        image.entry_unit,
    )
    return checker.report()
