"""Static invariant checker tests."""

import dataclasses

import pytest

from repro.core import compress
from repro.core.dictionary import Dictionary
from repro.core.encodings import make_encoding
from repro.core.image import CompressedImage
from repro.core.replace import INSTRUCTION, TokenColumns
from repro.verify import check_compressed, check_image


@pytest.mark.parametrize("encoding_name", ["baseline", "onebyte", "nibble"])
def test_clean_program_has_no_findings(tiny_program, encoding_name):
    compressed = compress(tiny_program, make_encoding(encoding_name, None))
    report = check_compressed(compressed)
    assert report.ok, report.render()
    assert report.checks > len(compressed.tokens)
    assert report.by_rule() == {}


def test_clean_suite_program_with_jump_tables(small_suite):
    program = small_suite["li"]
    assert program.jump_table_slots  # the fixture exercises the rule
    compressed = compress(program, make_encoding("nibble", None))
    report = check_compressed(compressed)
    assert report.ok, report.render()


def test_corrupt_jump_table_slot_is_found(small_suite):
    program = small_suite["li"]
    compressed = compress(program, make_encoding("nibble", None))
    slot = program.jump_table_slots[0]
    data = bytearray(compressed.data_image)
    # Point the slot one unit past its patched target: mid-item.
    raw = int.from_bytes(data[slot.data_offset : slot.data_offset + 4], "big")
    data[slot.data_offset : slot.data_offset + 4] = (raw + 1).to_bytes(4, "big")
    broken = dataclasses.replace(compressed, data_image=data)
    report = check_compressed(broken)
    assert not report.ok
    assert report.by_rule().get("jump-table", 0) >= 1


@pytest.mark.parametrize("encoding_name", ["baseline", "onebyte", "nibble"])
def test_token_word_that_is_not_its_encoding_is_found(tiny_program, encoding_name):
    # verify_stream compares the stream with the carried words only;
    # the full pass re-encodes every instruction token.
    compressed = compress(tiny_program, make_encoding(encoding_name, None))
    columns = compressed.columns
    values = list(columns.values)
    position = columns.kinds.index(INSTRUCTION)
    values[position] ^= 1
    broken = dataclasses.replace(
        compressed,
        columns=TokenColumns(
            columns.kinds, values, columns.origins, columns.addresses
        ),
    )
    victim = broken.tokens[position]
    report = check_compressed(broken)
    assert report.by_rule() == {"token-word": 1}
    assert report.findings[0].unit == victim.address


def test_over_capacity_dictionary_is_found(tiny_program):
    compressed = compress(tiny_program, make_encoding("nibble", None))
    entries = list(compressed.dictionary.entries)
    capacity = compressed.encoding.capacity
    while len(entries) <= capacity:
        entries.append(entries[0])
    broken = dataclasses.replace(compressed, dictionary=Dictionary(entries))
    report = check_compressed(broken)
    assert not report.ok
    assert "dict-capacity" in report.by_rule()


def test_truncated_dictionary_dangles_ranks(tiny_program):
    compressed = compress(tiny_program, make_encoding("baseline", None))
    if len(compressed.dictionary) < 2:
        pytest.skip("dictionary too small to truncate meaningfully")
    broken = dataclasses.replace(
        compressed, dictionary=Dictionary(compressed.dictionary.entries[:1])
    )
    report = check_compressed(broken)
    assert not report.ok
    rules = report.by_rule()
    # Either the decode pass or the rank check flags it, depending on
    # whether the stream still parses with the shorter dictionary.
    assert "stream-decode" in rules or "dict-rank" in rules


def test_image_level_checks_clean(tiny_program):
    compressed = compress(tiny_program, make_encoding("nibble", None))
    image = CompressedImage.from_compressed(compressed)
    report = check_image(image)
    assert report.ok, report.render()


def test_image_bad_entry_unit_is_found(tiny_program):
    compressed = compress(tiny_program, make_encoding("nibble", None))
    image = CompressedImage.from_compressed(compressed)
    broken = dataclasses.replace(image, entry_unit=image.entry_unit + 1)
    report = check_image(broken)
    assert not report.ok
    assert "entry-boundary" in report.by_rule()


def test_findings_render_with_rule_and_unit(small_suite):
    program = small_suite["li"]
    compressed = compress(program, make_encoding("nibble", None))
    slot = program.jump_table_slots[0]
    data = bytearray(compressed.data_image)
    raw = int.from_bytes(data[slot.data_offset : slot.data_offset + 4], "big")
    data[slot.data_offset : slot.data_offset + 4] = (raw + 1).to_bytes(4, "big")
    broken = dataclasses.replace(compressed, data_image=data)
    rendered = check_compressed(broken).render()
    assert "[jump-table]" in rendered
    assert "finding" in rendered
