"""The compress path stays off numpy and ``repro.machine``.

Importing numpy costs ~14 MB of resident memory, more than the whole
``peak_rss_mb`` budget of a build.  A fresh interpreter compiles a
program, compresses it under all three encodings, verifies each stream
and round-trips each image, then reports which of those modules got
imported.  Run this where numpy is installed too: there an accidental
import would actually load it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

_SCRIPT = """
import json
import sys

from repro import compile_and_link, compress
from repro.core import CompressedImage, make_encoding

source = '''
int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};
void main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 8; i = i + 1) { acc = acc + table[i] * i; }
    print_int(acc);
    print_nl();
}
'''
program = compile_and_link(source, name="imports")
for name in ("nibble", "baseline", "onebyte"):
    compressed = compress(program, make_encoding(name))
    compressed.verify_stream()
    image = CompressedImage.from_compressed(compressed)
    assert CompressedImage.from_bytes(image.to_bytes()) == image
print(json.dumps(sorted(
    module for module in sys.modules
    if module == "numpy" or module.startswith(("numpy.", "repro.machine"))
)))
"""


def test_compress_verify_and_image_import_neither_numpy_nor_machine():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    )
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []
