"""Every overflowing branch relaxes in the same round.

A flat ``&&`` chain compiles to one conditional branch per term, all
jumping near the chain's end, so once compression rescales offsets to
codeword units hundreds of them overflow their 14-bit field together.
Relaxing only the first overflowing branch per round re-laid-out the
whole stream once per relaxation and gave up after 1,000 rounds: the
2,000-term chain needs 1,161 relaxations under nibble, so a program
that links could not be compressed.

A relaxation only lengthens distances, so relaxing all overflowing
branches at once reaches the same fixpoint.  The relaxation counts and
the digests of the stream and of ``index_to_unit`` below were recorded
from the one-per-round patcher (for the three longest chains with its
round cap lifted, where it took 4, 7 and 30 s on a 2-vCPU host): the
compressed program is the same.  Each chain compiles and compresses in
a subprocess under a 30-second timeout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[2] / "src"

_COMPRESS_CHAIN = """
import hashlib, json, sys
from repro import compile_and_link, compress
from repro.core import make_encoding

terms, encoding = int(sys.argv[1]), sys.argv[2]
source = "int main() { int a = 1; return " + " && ".join(["a"] * terms) + "; }"
compressed = compress(compile_and_link(source, name="chain"), make_encoding(encoding))
compressed.verify_stream()
index_to_unit = repr(sorted(compressed.index_to_unit.items())).encode()
print(json.dumps([compressed.relaxations] + [
    hashlib.sha256(data).hexdigest()[:16]
    for data in (compressed.stream, index_to_unit)
]))
"""


@pytest.mark.parametrize(
    "terms, encoding, expected",
    [
        (1000, "nibble", [161, "94f73789dd80b8f1", "6f1f7b48729707df"]),
        (3000, "baseline", [250, "365d299fe4fb92ac", "f46419c917370fee"]),
        (2000, "nibble", [1161, "96e8a647aab9cdf2", "8889328e8f3ce03a"]),
        (4000, "nibble", [3161, "61e3c3691062c523", "5da490da248ac4e2"]),
        (4000, "baseline", [1250, "0c3849b8040c06db", "73f1e3d509448efa"]),
    ],
)
def test_chain_matches_the_one_per_round_fixpoint(terms, encoding, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _COMPRESS_CHAIN, str(terms), encoding],
        env=env, check=True, capture_output=True, text=True, timeout=30,
    )
    assert json.loads(result.stdout) == expected
