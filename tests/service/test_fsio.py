"""The real filesystem seam: atomic writes from whole content or chunks."""

import pytest

from repro.service.fsio import Filesystem


def test_chunks_stream_into_one_atomic_file(tmp_path):
    target = tmp_path / "state.jsonl"
    Filesystem().write_atomic(target, (f"{i}\n".encode() for i in range(3)))
    assert target.read_bytes() == b"0\n1\n2\n"


def test_whole_content_is_still_accepted(tmp_path):
    fs = Filesystem()
    fs.write_atomic(tmp_path / "a", b"bytes")
    fs.write_atomic(tmp_path / "b", "text")
    assert (tmp_path / "a").read_bytes() == b"bytes"
    assert (tmp_path / "b").read_text() == "text"


def test_failing_chunks_leave_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "state.jsonl"
    target.write_bytes(b"old")

    def chunks():
        yield b"half"
        raise ValueError("producer failed")

    with pytest.raises(ValueError):
        Filesystem().write_atomic(target, chunks())
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.jsonl"]
