"""Program-container behaviour tests."""

import gc
import pickle
import weakref

import pytest

from repro import bitutils
from repro.core.basic_blocks import leader_flags
from repro.linker.program import (
    DATA_BASE,
    STACK_TOP,
    TEXT_BASE,
    Program,
    TextInstruction,
)


class TestLayoutConstants:
    def test_memory_map_is_disjoint(self):
        # .text below .data below the stack; the data memory covers
        # [DATA_BASE, STACK_TOP) only.
        assert TEXT_BASE < DATA_BASE < STACK_TOP

    def test_data_base_fixed_independent_of_text(self, tiny_program):
        # Compression shrinks .text; data addresses must not depend on
        # its size (DESIGN.md: code addresses never live in immediates).
        assert tiny_program.data_base == DATA_BASE


class TestAccessors:
    def test_text_size_is_4n(self, tiny_program):
        assert tiny_program.text_size == 4 * len(tiny_program.text)

    def test_text_bytes_matches_words(self, tiny_program):
        data = tiny_program.text_bytes()
        assert bitutils.bytes_to_words(data) == tiny_program.words()

    def test_words_cached_and_stable(self, tiny_program):
        first = tiny_program.words()
        second = tiny_program.words()
        assert first is second  # the words column: linked text never mutates

    def test_function_ranges_partition_text(self, tiny_program):
        ranges = sorted(tiny_program.function_ranges().values())
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(tiny_program.text)
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start

    def test_every_function_named_once(self, tiny_program):
        ranges = tiny_program.function_ranges()
        assert {"_start", "main", "weigh"} <= set(ranges)
        for name, (start, end) in ranges.items():
            assert all(
                ti.function == name for ti in tiny_program.text[start:end]
            )

    def test_library_flags(self, tiny_program):
        ranges = tiny_program.function_ranges()
        start, end = ranges["print_int"]
        assert all(ti.is_library for ti in tiny_program.text[start:end])
        start, end = ranges["main"]
        assert not any(ti.is_library for ti in tiny_program.text[start:end])


class TestTextView:
    def test_records_match_the_columns(self, tiny_program):
        columns = tiny_program.columns
        for index, ti in enumerate(tiny_program.text):
            assert ti.word == columns.words[index]
            assert ti.target_index == columns.targets[index]
            assert ti.role is columns.roles[index]
            assert ti.function == columns.functions[index]
            assert ti.is_library == columns.libraries[index]

    def test_len_builds_no_record(self, tiny_program, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("record built")

        monkeypatch.setattr(TextInstruction, "__init__", refuse)
        assert len(tiny_program.text) == len(tiny_program.words()) > 0

    def test_index_slice_and_iteration_agree(self, tiny_program):
        text = tiny_program.text
        records = list(text)
        assert text[-1] == records[-1]
        assert text[3:9] == records[3:9]
        assert text[::7] == records[::7]
        with pytest.raises(IndexError):
            text[len(records)]

    def test_view_forms_no_cycle_with_its_program(self, tiny_program):
        program = Program.from_records(
            name="copy", text=list(tiny_program.text),
            data_image=bytearray(), symbols={},
        )
        ref = weakref.ref(program)
        view = program.text
        gc.disable()
        try:
            del program
            assert ref() is None  # freed by reference counting alone
        finally:
            gc.enable()
        assert len(view) == len(tiny_program.text)

    def test_from_records_derives_the_same_columns(self, tiny_program):
        copy = Program.from_records(
            name=tiny_program.name,
            text=list(tiny_program.text),
            data_image=tiny_program.data_image,
            symbols=tiny_program.symbols,
            jump_table_slots=tiny_program.jump_table_slots,
            entry_index=tiny_program.entry_index,
        )
        assert copy == tiny_program

    def test_pickles_as_its_columns(self, tiny_program):
        leader_flags(tiny_program)  # fills the analysis cache
        clone = pickle.loads(pickle.dumps(tiny_program))
        assert clone == tiny_program
        assert clone.columns == tiny_program.columns
        assert clone._analysis_cache == {}


class TestCheckConsistency:
    def test_wrong_offset_is_named(self, tiny_program):
        columns = tiny_program.columns
        index = next(i for i, t in enumerate(columns.targets) if t is not None)
        words = list(columns.words)
        words[index] ^= 1 << 2  # the offset's lowest bit, in b and bc alike
        broken = Program(
            name="broken",
            columns=columns._replace(words=words),
            data_image=tiny_program.data_image,
            symbols=tiny_program.symbols,
        )
        with pytest.raises(AssertionError, match=rf"broken\[{index}\] b\w*: offset"):
            broken.check_consistency()
