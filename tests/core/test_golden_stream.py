"""Golden digests pinning the compressor's output byte for byte.

Recorded before streams were serialized from hex digits and verified
from classification tables: any change to the bytes of a stream, of
its ``.rcim`` image, or to the token layout fails here.  Each case
digests (sha256, first 16 hex digits):

* the serialized ``stream``;
* ``CompressedImage.from_compressed(...).to_bytes()``;
* the ``repr`` of every token's
  ``(kind, rank, word, address, size_units, orig_index)``.

Cases cover the 8 suite programs x {baseline, onebyte, nibble} at
scales 0.1 and 0.3, plus ``OneByteEncoding(8)``, ``BaselineEncoding(16)``
and one ``CustomNibbleEncoding`` allocation at scale 0.1.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import CompressedImage, compress, make_encoding
from repro.core.encodings import (
    BaselineEncoding,
    CustomNibbleEncoding,
    OneByteEncoding,
)
from repro.workloads import build_benchmark

_EXTRA_ENCODINGS = {
    "onebyte8": lambda: OneByteEncoding(8),
    "baseline16": lambda: BaselineEncoding(16),
    "custom-5-10": lambda: CustomNibbleEncoding({1: 5, 2: 10, 3: 0, 4: 0}),
}

GOLDEN = {
    "compress@0.1/baseline": ("d5a4a73ba5a17200", "a897e02a0c775ad1", "cb79807f88a9de6d"),
    "compress@0.1/onebyte": ("2cf0f271d014cd94", "301c34271536c7b6", "af8e4846756bf26a"),
    "compress@0.1/nibble": ("5bd067b6ea808151", "21107d1ef9d76fa4", "d8fb6b359c6085ca"),
    "gcc@0.1/baseline": ("a43ac47d4a3fdffc", "9f3fbe2c5048ce66", "174fb821a8c1e220"),
    "gcc@0.1/onebyte": ("317d9df7e5c37b26", "adef4d1f784ad67f", "9f1411b463fdb72a"),
    "gcc@0.1/nibble": ("f74bb5a5814a43b3", "221401a58bff1043", "72289d0d1d54ac25"),
    "go@0.1/baseline": ("c7a43fc81cbadb42", "c7b49350153f7dda", "86bd489aac63d6ad"),
    "go@0.1/onebyte": ("623bb75daf2648cc", "543c0d6ff44c44f5", "da376b39f30ef2c7"),
    "go@0.1/nibble": ("737d794320ab5bfd", "03403cbf669504f6", "79e628bb9b060d3a"),
    "ijpeg@0.1/baseline": ("b4fb8a1351c7748c", "35740d9b755e488b", "5d45c98d6de50a29"),
    "ijpeg@0.1/onebyte": ("9245c0151e0fa543", "610be4d0b107fd6d", "49c83ab8439dab97"),
    "ijpeg@0.1/nibble": ("54fe1f71e87a30eb", "0cda71a519219304", "ea416f14bb242d5f"),
    "li@0.1/baseline": ("1e42f46302d3baf1", "beaeb4b3fc7df421", "b9dcbc06e8d69353"),
    "li@0.1/onebyte": ("35926fbbd532183f", "c0f22ee3e043439a", "66380acd34b6373b"),
    "li@0.1/nibble": ("e7b071f746cf3964", "f3b2320e7c9ef649", "5aa1ea2e5afd5de5"),
    "m88ksim@0.1/baseline": ("35bf7f1c264a439a", "b371d7e76ee19ed4", "0766ac807d0259b8"),
    "m88ksim@0.1/onebyte": ("43af4098de2d3a22", "c5f6e45fff71b0ce", "4d7ba6265f5c538b"),
    "m88ksim@0.1/nibble": ("daac57ff67d10b4a", "2f59e4329a5b4d25", "1c87bed3a0564d8d"),
    "perl@0.1/baseline": ("5b3de6eaf9c7c00e", "8618c9f03d1bd0a2", "b4f3877fa51ec16c"),
    "perl@0.1/onebyte": ("8d676af525834ff7", "5e12be4777297b0f", "208ad5ec44cb7023"),
    "perl@0.1/nibble": ("ce46244b495ced42", "503d26589de76bb0", "410337beadf2d5b8"),
    "vortex@0.1/baseline": ("309ae5294db0d59c", "43cd4ac459db4830", "48100b4f99da8bf2"),
    "vortex@0.1/onebyte": ("0ddb1b2523ddbf72", "47b9ba0d7094af79", "8ab9207d54182315"),
    "vortex@0.1/nibble": ("b4153f00deb259d1", "15bad689270dc6eb", "ac16704175f7ca86"),
    "compress@0.3/baseline": ("d5a4a73ba5a17200", "a897e02a0c775ad1", "cb79807f88a9de6d"),
    "compress@0.3/onebyte": ("2cf0f271d014cd94", "301c34271536c7b6", "af8e4846756bf26a"),
    "compress@0.3/nibble": ("5bd067b6ea808151", "21107d1ef9d76fa4", "d8fb6b359c6085ca"),
    "gcc@0.3/baseline": ("3f34d842073ed54c", "55973f686c3d205d", "9ebe3ab43e3b96bc"),
    "gcc@0.3/onebyte": ("479c0cf9bf8c0a8c", "51bc7487ebf7e8a7", "8501b0eebbf12b08"),
    "gcc@0.3/nibble": ("84faa66cc4ebd96e", "7482772b8d32385f", "c5264d54244a043c"),
    "go@0.3/baseline": ("7fc592561f9867be", "cb7f50583b7001f7", "b4f9a332d5cd1962"),
    "go@0.3/onebyte": ("cff347fa7270d37d", "a5264480d2be33d7", "082cc030ab45ace6"),
    "go@0.3/nibble": ("2bb5dc8d21f56639", "f63c591754b8e41c", "a4992c8af918e337"),
    "ijpeg@0.3/baseline": ("7939b1ffb69b228f", "ddc9f2a40e2e8673", "a1c7c600359185bc"),
    "ijpeg@0.3/onebyte": ("cb49adf356f3ab2a", "31951c6d2f1d7bcc", "cee5a67b59cc0bde"),
    "ijpeg@0.3/nibble": ("f894bc80af2b8628", "eeab687d7a37fa82", "4c4b0e82dc7a88dd"),
    "li@0.3/baseline": ("e3397802b2c03803", "90435d6828687a98", "c3da098ef7c78ebe"),
    "li@0.3/onebyte": ("a8548affd52f36af", "a57394abf2953af9", "e41d5335062b8a42"),
    "li@0.3/nibble": ("4a92bc19fd23c248", "f4c22e99f9b013f9", "9519b482bfe8a40b"),
    "m88ksim@0.3/baseline": ("2abed47320687d45", "27f3e1d100a090c4", "3ae695abbc92cc8e"),
    "m88ksim@0.3/onebyte": ("8a72e64a48fd9b73", "98d7f44a57fdfa58", "751c9b5aa72e6b3b"),
    "m88ksim@0.3/nibble": ("0f3fa09ea2b40e60", "f466894a2248ed4e", "3117191bbe89c312"),
    "perl@0.3/baseline": ("6e852edd92bd53d4", "09e9c160ead94198", "48e082a740bd496c"),
    "perl@0.3/onebyte": ("f61c54efb447aaf3", "9bcf7a12cb9e8de2", "069d6a6d9e5c8911"),
    "perl@0.3/nibble": ("243e441ee10638a3", "1aee343c5039f16e", "6bb20befe09416ab"),
    "vortex@0.3/baseline": ("fe5acf2891eeca61", "2e9e282df8061104", "bd997ddb4d752f00"),
    "vortex@0.3/onebyte": ("02583b5820b3808f", "731f9234dc5eb83e", "65620b0d71c56572"),
    "vortex@0.3/nibble": ("ca35735fc6e8f9b8", "fbc5aaaa1763b568", "b3b92c560b95fa3a"),
    "compress@0.1/onebyte8": ("4c7145c18c0cc3cd", "a81211e6a56a02a3", "0b301174236281c2"),
    "compress@0.1/baseline16": ("c05cef951809e1f6", "0a56e9ba34eab5b9", "b76026cb7e6790c3"),
    "compress@0.1/custom-5-10": ("1501ff3421922d70", "b071d62c58bd59d1", "7970bfcd461ddb6c"),
    "gcc@0.1/onebyte8": ("e8d82e85eac08053", "de943f12e8dd0257", "335818e8fa7a9324"),
    "gcc@0.1/baseline16": ("1a9b5cdf2527f39b", "a33a8840adfaca1a", "50849881020a3842"),
    "gcc@0.1/custom-5-10": ("18d7bbf8f842bce1", "e3a3fac5d0a663a4", "1ee44905a99e7c4f"),
    "go@0.1/onebyte8": ("7f4d4b4da91f4c0e", "b6ff9b241958db85", "47f65704d0ae4da1"),
    "go@0.1/baseline16": ("e2bebe58dfc7d340", "739124cc1934dbca", "8ef6dfaf1e103e23"),
    "go@0.1/custom-5-10": ("b025b8c70440340b", "f6247b48b06b614c", "8328507818f51c8d"),
    "ijpeg@0.1/onebyte8": ("41d24e450cc21b92", "4da5d0872398cf0e", "ddf7fe0fd486481e"),
    "ijpeg@0.1/baseline16": ("15cd28794285e71c", "12e3dbc51098a3a2", "aad96763661797ac"),
    "ijpeg@0.1/custom-5-10": ("7deafafe568d1ac0", "f95ff87b2a1e85b9", "55cfc2369ca83ef6"),
    "li@0.1/onebyte8": ("7e12d9bc8868864b", "8a86d98ded476230", "e12e87cb14468f21"),
    "li@0.1/baseline16": ("b8e460e415343de3", "2b54696b61a2efa4", "b3751b4ff1fdfed5"),
    "li@0.1/custom-5-10": ("8e324621c26441ed", "c8c77a6e6d684ff9", "bc7e96cd52faa3c5"),
    "m88ksim@0.1/onebyte8": ("ae7282c43c9aecf5", "b11a046e540809bd", "bbd27dde2042f42a"),
    "m88ksim@0.1/baseline16": ("1ef7ef469a2f4f22", "cfd68ecef141e3f3", "b3beec424fb65330"),
    "m88ksim@0.1/custom-5-10": ("9d2bbf99d0b2beed", "eca447597dc50d2c", "8324499fd6a5f02c"),
    "perl@0.1/onebyte8": ("f7827756de2360d9", "bb4fb915f17d6c89", "c7c6e35f34a47832"),
    "perl@0.1/baseline16": ("06baccba860744e1", "d4b8d6603cc52695", "06ac8631926c545d"),
    "perl@0.1/custom-5-10": ("a930972392553a19", "bf857ce63f4f1478", "95ae3cf86a9beb07"),
    "vortex@0.1/onebyte8": ("13788a37edfe5663", "5af75e4c775e55f3", "250d04d49507b68e"),
    "vortex@0.1/baseline16": ("1a7ee7b6c3b17226", "0ff9001e8a92d462", "a8531fcb2ab22b59"),
    "vortex@0.1/custom-5-10": ("5a0dc053ab65dc52", "3b1d4dd02ae5c382", "57a65f6c30ff4742"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _encoding(label: str):
    factory = _EXTRA_ENCODINGS.get(label)
    return factory() if factory else make_encoding(label)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stream_image_and_tokens_match_golden(case):
    program_key, label = case.split("/")
    name, scale = program_key.split("@")
    compressed = compress(build_benchmark(name, float(scale)), _encoding(label))
    rows = [
        (t.kind, t.rank, t.word, t.address, t.size_units, t.orig_index)
        for t in compressed.tokens
    ]
    image = CompressedImage.from_compressed(compressed).to_bytes()
    assert (
        _digest(compressed.stream),
        _digest(image),
        _digest(repr(rows).encode()),
    ) == GOLDEN[case]
    # The digest pins the carried words; they must also be the
    # instructions' own encodings.
    for token in compressed.tokens:
        if token.kind == "ins":
            assert token.word == token.instruction.encode()
        else:
            assert token.word is None
