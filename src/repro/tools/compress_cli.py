"""``repro-compress``: compile, compress, inspect, and run images.

Subcommands:

* ``build``  — compile a MiniC source file (or a named synthetic
  benchmark) and write a compressed ``.rcim`` image;
* ``info``   — print an image's encoding, sizes, and dictionary summary;
* ``run``    — execute an image on the compressed-program processor;
* ``ratio``  — quick one-line compression report without writing a file.

Examples::

    repro-compress build firmware.mc -o firmware.rcim --encoding nibble
    repro-compress info firmware.rcim
    repro-compress run firmware.rcim
    repro-compress ratio --benchmark ijpeg --encoding baseline
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.compiler import compile_and_link
from repro.core import compress
from repro.errors import ReproError
from repro.core.encodings import make_encoding
from repro.core.image import CompressedImage
from repro.isa.disassembler import format_instruction
from repro.isa.instruction import decode
from repro.machine.compressed_sim import CompressedSimulator
from repro.workloads import BENCHMARK_NAMES, build_benchmark


def _load_program(args):
    if args.benchmark:
        return build_benchmark(args.benchmark, args.scale)
    if not args.source:
        raise SystemExit("pass a source file or --benchmark")
    text = Path(args.source).read_text()
    return compile_and_link(text, name=Path(args.source).stem)


def _compress(args):
    program = _load_program(args)
    encoding = make_encoding(args.encoding, args.max_codewords)
    return program, compress(
        program, encoding, max_entry_len=args.max_entry_len
    )


def cmd_build(args) -> int:
    program, compressed = _compress(args)
    compressed.verify_stream()
    image = CompressedImage.from_compressed(compressed)
    out = Path(args.output or (program.name + ".rcim"))
    out.write_bytes(image.to_bytes())
    print(
        f"{program.name}: {program.text_size}B -> "
        f"{compressed.compressed_bytes}B "
        f"({compressed.compression_ratio:.1%}), wrote {out}"
    )
    return 0


def cmd_info(args) -> int:
    image = CompressedImage.from_bytes(Path(args.image).read_bytes())
    print(f"name:        {image.name}")
    print(f"encoding:    {image.encoding_name} "
          f"(max {image.max_codewords} codewords)")
    print(f"stream:      {image.stream_bytes} bytes, {image.total_units} units")
    print(f"dictionary:  {len(image.dictionary)} entries, "
          f"{image.dictionary_bytes} bytes")
    print(f"data image:  {len(image.data_image)} bytes")
    print(f"entry unit:  {image.entry_unit}")
    histogram = image.dictionary.length_histogram()
    print("entry lengths: " + ", ".join(
        f"{length}-insn x{count}" for length, count in sorted(histogram.items())
    ))
    if args.dictionary:
        print("\ndictionary (rank: uses, instructions):")
        for rank, entry in enumerate(image.dictionary.entries):
            body = "; ".join(
                format_instruction(decode(word)) for word in entry.words
            )
            print(f"  #{rank:4d}: {entry.uses:4d}  {body}")
    return 0


def cmd_run(args) -> int:
    image = CompressedImage.from_bytes(Path(args.image).read_bytes())
    simulator = CompressedSimulator.from_image(image, max_steps=args.max_steps)
    result = simulator.run()
    sys.stdout.write(result.output_text)
    if args.stats:
        print(
            f"\n[{image.name}: {result.steps} instructions, "
            f"{simulator.stats.codeword_expansions} codeword expansions, "
            f"exit={result.exit_code}]"
        )
    return result.exit_code & 0xFF


def cmd_ratio(args) -> int:
    program, compressed = _compress(args)
    print(
        f"{program.name}: {len(program.text)} insns, "
        f"{program.text_size}B -> stream {compressed.stream_bytes}B "
        f"+ dict {compressed.dictionary_bytes}B = "
        f"{compressed.compression_ratio:.1%} "
        f"({len(compressed.dictionary)} codewords)"
    )
    return 0


def cmd_disasm(args) -> int:
    path = Path(args.target)
    if path.suffix == ".rcim" and path.exists():
        return _disasm_image(path, args)
    # Otherwise treat as MiniC source (or use --benchmark).
    args.source = None if args.benchmark else args.target
    program = _load_program(args)
    ranges = program.function_ranges()
    for index, ti in enumerate(program.text):
        for fname, (start, _) in ranges.items():
            if start == index:
                print(f"\n{fname}:")
        marker = "*" if ti.is_relative_branch else " "
        print(
            f"  {program.address_of(index):#08x}  {ti.word:08x} {marker} "
            f"{format_instruction(ti.instruction, index, program.text_base)}"
        )
    return 0


def _disasm_image(path: Path, args) -> int:
    from repro.machine.decompressor import StreamDecoder

    image = CompressedImage.from_bytes(path.read_bytes())
    decoder = StreamDecoder(
        image.stream, image.dictionary, image.encoding(), image.total_units
    )
    print(f"{image.name} ({image.encoding_name}, "
          f"{len(image.dictionary)} codewords):")
    for item in decoder.decode().items():
        if item.is_codeword:
            body = "; ".join(format_instruction(ins) for ins in item.instructions)
            print(f"  unit {item.address:6d}  CW#{item.rank:<5d} -> {body}")
        else:
            print(
                f"  unit {item.address:6d}  "
                f"{format_instruction(item.instructions[0])}"
            )
    return 0


def _add_compress_options(parser) -> None:
    parser.add_argument("source", nargs="?", help="MiniC source file")
    parser.add_argument("--benchmark", choices=BENCHMARK_NAMES,
                        help="use a synthetic benchmark instead of a file")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--encoding", default="nibble",
                        choices=("baseline", "onebyte", "nibble"))
    parser.add_argument("--max-codewords", type=int, default=None)
    parser.add_argument("--max-entry-len", type=int, default=4)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-compress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="compile + compress to an image")
    _add_compress_options(build)
    build.add_argument("-o", "--output", help="output .rcim path")
    build.set_defaults(func=cmd_build)

    info = sub.add_parser("info", help="describe an image")
    info.add_argument("image")
    info.add_argument("--dictionary", action="store_true",
                      help="also dump the full dictionary")
    info.set_defaults(func=cmd_info)

    run = sub.add_parser("run", help="execute an image")
    run.add_argument("image")
    run.add_argument("--max-steps", type=int, default=50_000_000)
    run.add_argument("--stats", action="store_true")
    run.set_defaults(func=cmd_run)

    ratio = sub.add_parser("ratio", help="one-line compression report")
    _add_compress_options(ratio)
    ratio.set_defaults(func=cmd_ratio)

    disasm = sub.add_parser(
        "disasm", help="disassemble a source/benchmark or an .rcim image"
    )
    disasm.add_argument("target", nargs="?", default="",
                        help="MiniC source file or .rcim image")
    disasm.add_argument("--benchmark", choices=BENCHMARK_NAMES)
    disasm.add_argument("--scale", type=float, default=1.0)
    disasm.set_defaults(func=cmd_disasm)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Library failures (corrupt image, compile error, bad encoding)
        # become a one-line diagnostic, not a traceback.
        print(f"repro-compress: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-compress: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
