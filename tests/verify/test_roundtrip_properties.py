"""Property test: random programs round-trip through every encoding.

compress → serialize image → load → stream-decode must reproduce the
original instruction sequence exactly, instruction for instruction, for
arbitrary (data-only) programs under all three codeword encodings.
"""

from hypothesis import given, settings, strategies as st

from repro.core import compress
from repro.core.encodings import make_encoding
from repro.core.image import CompressedImage
from repro.isa.instruction import make
from repro.linker.objfile import InsnRole
from repro.linker.program import Program, TextInstruction
from repro.machine.decompressor import StreamDecoder

_ENCODING_NAMES = st.sampled_from(["baseline", "onebyte", "nibble"])

# Data-only instruction makers (no control flow, so compression cannot
# insert relaxation instructions and the flattened decode must equal
# the input exactly).
_gpr = st.integers(0, 31)
_imm = st.integers(-0x8000, 0x7FFF)
_uimm = st.integers(0, 0xFFFF)

_INSTRUCTIONS = st.one_of(
    st.builds(lambda d, a, i: make("addi", d, a, i), _gpr, _gpr, _imm),
    st.builds(lambda d, a, i: make("addis", d, a, i), _gpr, _gpr, _imm),
    st.builds(lambda s, a, i: make("ori", a, s, i), _gpr, _gpr, _uimm),
    st.builds(lambda d, a, b: make("add", d, a, b), _gpr, _gpr, _gpr),
    st.builds(lambda d, a, b: make("subf", d, a, b), _gpr, _gpr, _gpr),
    st.builds(lambda s, a, i: make("andi.", a, s, i), _gpr, _gpr, _uimm),
)


@st.composite
def _programs(draw):
    # Duplicated runs make dictionary hits likely; lone instructions
    # keep the escape path exercised.
    chunks = draw(st.lists(
        st.tuples(st.lists(_INSTRUCTIONS, min_size=1, max_size=4),
                  st.integers(1, 3)),
        min_size=1, max_size=8,
    ))
    instructions = []
    for chunk, repeats in chunks:
        instructions.extend(chunk * repeats)
    text = [
        TextInstruction(ins, InsnRole.BODY, "f", False)
        for ins in instructions
    ]
    return Program(
        name="prop", text=text, data_image=bytearray(), symbols={}
    )


@settings(max_examples=40, deadline=None)
@given(_programs(), _ENCODING_NAMES)
def test_image_roundtrip_reproduces_every_instruction(program, encoding_name):
    compressed = compress(program, make_encoding(encoding_name, None))
    blob = CompressedImage.from_compressed(compressed).to_bytes()
    image = CompressedImage.from_bytes(blob)
    decoder = StreamDecoder(
        image.stream, image.dictionary, image.encoding(), image.total_units
    )
    decoded = [
        ins.encode()
        for item in decoder.decode().items()
        for ins in item.instructions
    ]
    assert decoded == program.words()


@settings(max_examples=20, deadline=None)
@given(_programs(), _ENCODING_NAMES)
def test_roundtripped_image_passes_invariants(program, encoding_name):
    from repro.verify import check_image

    compressed = compress(program, make_encoding(encoding_name, None))
    blob = CompressedImage.from_compressed(compressed).to_bytes()
    report = check_image(CompressedImage.from_bytes(blob))
    assert report.ok, report.render()
