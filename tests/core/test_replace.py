"""Item-stream construction tests."""

from repro.core import BaselineEncoding
from repro.core.branch_patch import layout, tokens_view
from repro.core.greedy import build_dictionary
from repro.core.replace import build_tokens


def _build(program):
    """Greedy result and the laid-out item columns, as tokens."""
    encoding = BaselineEncoding()
    result = build_dictionary(program, encoding)
    columns = build_tokens(program, result, result.dictionary)
    layout(columns, encoding)
    return result, tokens_view(columns, program)


class TestTokenStream:
    def test_tokens_cover_program_exactly(self, tiny_program):
        result, tokens = _build(tiny_program)
        assert sum(t.length for t in tokens) == len(tiny_program.text)

    def test_token_order_preserves_program_order(self, tiny_program):
        result, tokens = _build(tiny_program)
        position = 0
        for token in tokens:
            assert token.orig_index == position
            position += token.length

    def test_codeword_tokens_reference_dictionary(self, tiny_program):
        result, tokens = _build(tiny_program)
        words = tiny_program.words()
        for token in tokens:
            if token.kind == "cw":
                entry = result.dictionary[token.rank]
                window = tuple(
                    words[token.orig_index : token.orig_index + token.length]
                )
                assert entry.words == window

    def test_instruction_tokens_keep_branch_targets(self, tiny_program):
        result, tokens = _build(tiny_program)
        for token in tokens:
            if token.kind == "ins":
                expected = tiny_program.text[token.orig_index].target_index
                assert token.target_index == expected

    def test_replaced_fraction_positive(self, tiny_program):
        result, tokens = _build(tiny_program)
        codeword_tokens = [t for t in tokens if t.kind == "cw"]
        assert codeword_tokens
        covered = sum(t.length for t in codeword_tokens)
        assert covered / len(tiny_program.text) > 0.25
