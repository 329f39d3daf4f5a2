"""FaultyFilesystem tests: scheduled disk faults and crash points."""

import errno

import pytest

from repro.chaos.filesystem import FaultyFilesystem, SimulatedCrash
from repro.chaos.schedule import ChaosRule, ChaosSchedule


def always(fault: str, **kwargs) -> FaultyFilesystem:
    return FaultyFilesystem(
        ChaosSchedule(1, (ChaosRule("disk", fault, 1.0),), **kwargs)
    )


class TestScheduledFaults:
    def test_torn_write_lands_a_prefix(self, tmp_path):
        fs = always("torn_write", torn_fraction=0.5)
        target = tmp_path / "entry.rcc"
        fs.write_atomic(target, b"0123456789")
        assert target.read_bytes() == b"01234"
        assert fs.faults == [("torn_write", "entry.rcc", "write")]

    def test_torn_chunked_write_lands_the_same_prefix(self, tmp_path):
        fs = always("torn_write", torn_fraction=0.5)
        target = tmp_path / "state.jsonl"
        fs.write_atomic(target, (bytes([b]) for b in b"0123456789"))
        assert target.read_bytes() == b"01234"

    def test_enospc_raises_and_leaves_target_untouched(self, tmp_path):
        fs = always("enospc")
        target = tmp_path / "entry.rcc"
        target.write_bytes(b"old")
        with pytest.raises(OSError) as excinfo:
            fs.write_atomic(target, b"new")
        assert excinfo.value.errno == errno.ENOSPC
        assert target.read_bytes() == b"old"

    def test_eio_read_is_raised(self, tmp_path):
        fs = always("eio_read")
        target = tmp_path / "entry.rcc"
        target.write_bytes(b"payload")
        with pytest.raises(OSError) as excinfo:
            fs.read_bytes(target)
        assert excinfo.value.errno == errno.EIO

    def test_fsync_loss_silently_drops_an_append(self, tmp_path):
        fs = always("fsync_loss")
        target = tmp_path / "state.jsonl"
        handle = fs.open_append(target)
        handle.write('{"a": 1}\n')  # reports success
        handle.flush()
        handle.close()
        assert not target.exists() or target.read_bytes() == b""

    def test_torn_append_lands_half_a_line_without_newline(self, tmp_path):
        fs = always("torn_write")
        target = tmp_path / "state.jsonl"
        handle = fs.open_append(target)
        line = '{"job_id": "job-1", "event": "submitted"}\n'
        handle.write(line)
        handle.close()
        raw = target.read_text()
        assert raw == line[: len(line) // 2]
        assert not raw.endswith("\n")

    def test_no_schedule_means_no_faults(self, tmp_path):
        fs = FaultyFilesystem()
        target = tmp_path / "entry.rcc"
        fs.write_atomic(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert fs.faults == []


class TestCrashPoints:
    def test_crash_is_not_catchable_as_exception(self, tmp_path):
        fs = FaultyFilesystem(crash_after=0)

        def recovery_code_that_swallows_everything():
            try:
                fs.write_atomic(tmp_path / "f", b"x")
            except Exception:  # noqa: BLE001 - the point of the test
                return "handled"
            return "ok"

        with pytest.raises(SimulatedCrash):
            recovery_code_that_swallows_everything()

    def test_write_atomic_has_three_crash_points(self, tmp_path):
        clean = FaultyFilesystem()
        clean.write_atomic(tmp_path / "f", b"payload")
        assert clean.write_ops == 3  # create-temp, write-temp, replace

    @pytest.mark.parametrize("crash_after", [0, 1, 2])
    def test_crash_mid_atomic_write_never_tears_the_target(
        self, tmp_path, crash_after
    ):
        target = tmp_path / "entry.rcc"
        target.write_bytes(b"old-and-complete")
        fs = FaultyFilesystem(crash_after=crash_after)
        with pytest.raises(SimulatedCrash):
            fs.write_atomic(target, b"new")
        # Atomicity: the old content survives every crash point.
        assert target.read_bytes() == b"old-and-complete"

    def test_crash_mid_append_leaves_a_torn_half_line(self, tmp_path):
        target = tmp_path / "state.jsonl"
        fs = FaultyFilesystem(crash_after=0)
        handle = fs.open_append(target)
        line = '{"job_id": "job-1", "event": "submitted"}\n'
        with pytest.raises(SimulatedCrash):
            handle.write(line)
        raw = target.read_text()
        assert raw == line[: len(line) // 2]  # the mess recovery must fix

    def test_chunked_write_keeps_three_crash_points(self, tmp_path):
        clean = FaultyFilesystem()
        clean.write_atomic(tmp_path / "f", iter([b"pay", b"lo", b"ad"]))
        assert clean.write_ops == 3
        assert (tmp_path / "f").read_bytes() == b"payload"

    @pytest.mark.parametrize("crash_after", [0, 1, 2])
    def test_crash_mid_chunked_write_never_tears_the_target(
        self, tmp_path, crash_after
    ):
        target = tmp_path / "state.jsonl"
        target.write_bytes(b"old-and-complete")
        fs = FaultyFilesystem(crash_after=crash_after)
        with pytest.raises(SimulatedCrash):
            fs.write_atomic(target, (bytes([b]) for b in b"new-lines"))
        assert target.read_bytes() == b"old-and-complete"

    def test_surviving_write_points_count_up(self, tmp_path):
        fs = FaultyFilesystem(crash_after=10)
        fs.write_atomic(tmp_path / "a", b"x")
        fs.append_bytes(tmp_path / "b", b"y")
        fs.mkdir(tmp_path / "d")
        assert fs.write_ops == 5  # 3 atomic + 1 append + 1 mkdir
