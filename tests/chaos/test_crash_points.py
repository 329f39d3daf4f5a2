"""Crash-point property tests: kill after *every* write point, recover.

Two scenarios, each run once on a clean filesystem to count its write
points, then once per point with ``crash_after=n`` — the process "dies"
(:class:`SimulatedCrash`) right before write point ``n + 1`` — followed
by recovery on a fresh, healthy filesystem.  The property:

* **ledger** — every transition whose ``record()`` call returned (was
  acknowledged) is still visible after replay, recovery quarantines any
  torn tail instead of corrupting the log, and post-recovery appends
  land cleanly;
* **artifact store** — every ``put()`` that returned reads back
  byte-identical from a cache reopened on a healthy disk, and no read
  ever returns other bytes than the ones stored.
"""

import hashlib

import pytest

from repro.chaos.filesystem import FaultyFilesystem, SimulatedCrash
from repro.server.ledger import JobLedger
from repro.service.cache import ArtifactCache


# ----------------------------------------------------------------------
# Ledger scenario
# ----------------------------------------------------------------------
def drive_ledger(directory, fs) -> list[tuple[str, str]]:
    """A ledger workload; returns the acknowledged (job, event) pairs.

    A pair enters the list only after ``record()`` returns, i.e. after
    the append was flushed — exactly the writes a crash may not lose.
    """
    acked: list[tuple[str, str]] = []
    ledger = JobLedger(directory, fs=fs)
    try:
        for index in range(3):
            job_id = f"job-{index}"
            ledger.record(job_id, "submitted", tenant="t",
                          key=f"k{index}", spec={"benchmark": "go"})
            acked.append((job_id, "submitted"))
            ledger.record(job_id, "started")
            acked.append((job_id, "started"))
            if index < 2:
                ledger.record(job_id, "completed", cache_hit=False, meta={})
                acked.append((job_id, "completed"))
        ledger.compact()
    finally:
        ledger.close()
    return acked


def count_ledger_write_points(tmp_path) -> int:
    fs = FaultyFilesystem()
    drive_ledger(tmp_path / "clean", fs)
    return fs.write_ops


def test_ledger_scenario_has_many_write_points(tmp_path):
    assert count_ledger_write_points(tmp_path) >= 10


def test_ledger_survives_a_crash_after_every_write_point(tmp_path):
    total = count_ledger_write_points(tmp_path)
    crashes = 0
    for crash_after in range(total):
        directory = tmp_path / f"crash-{crash_after}"
        fs = FaultyFilesystem(crash_after=crash_after)
        try:
            acked = drive_ledger(directory, fs)
        except SimulatedCrash:
            crashes += 1
            acked = _acked_before_crash(crash_after)
        # -- recovery: a fresh process on a healthy disk ----------------
        recovered = JobLedger(directory)
        try:
            recovered.record("job-post", "submitted", spec={})
            records = recovered.replay()
            # Every acknowledged transition survived the crash.
            for job_id, event in acked:
                assert job_id in records, (crash_after, job_id)
                assert _reached(records[job_id], event), (
                    crash_after, job_id, event, records[job_id].status
                )
            # The post-recovery append landed on a clean prefix.
            assert records["job-post"].status == "submitted"
            # Recovery is idempotent once the tail is clean.
            assert recovered.recover() == 0
        finally:
            recovered.close()
    assert crashes == total  # every iteration actually died mid-run


def _acked_before_crash(crash_after: int) -> list[tuple[str, str]]:
    """Which records were acked before the simulated death.

    The scenario's write-point sequence is fixed: 3 points for the
    manifest ``write_atomic``, then one append per ``record()`` (the
    compaction rewrite comes after every append and acks nothing new).
    ``crash_after`` is exactly the number of points that completed, so
    an append is acked iff its point index fits inside that budget.
    """
    order = []
    for index in range(3):
        job_id = f"job-{index}"
        order.append((job_id, "submitted"))
        order.append((job_id, "started"))
        if index < 2:
            order.append((job_id, "completed"))
    acked = []
    spent = 3  # manifest.json write_atomic
    for job_id, event in order:
        spent += 1
        if spent <= crash_after:
            acked.append((job_id, event))
        else:
            break
    return acked


_ORDER = ("submitted", "started", "completed", "failed", "cancelled")


def _reached(record, event: str) -> bool:
    """Did the replayed record get at least as far as ``event``?"""
    return _ORDER.index(record.status) >= _ORDER.index(event)


def test_torn_tail_is_quarantined_not_replayed(tmp_path):
    directory = tmp_path / "torn"
    ledger = JobLedger(directory)
    ledger.record("job-ok", "submitted", spec={})
    ledger.close()
    with ledger.state_path.open("a") as handle:
        handle.write('{"job_id": "job-torn", "event": "subm')  # kill -9
    reopened = JobLedger(directory)
    try:
        moved = reopened.recover()
        assert moved > 0
        assert reopened.quarantine_path.read_text().startswith(
            '{"job_id": "job-torn"'
        )
        assert set(reopened.replay()) == {"job-ok"}
    finally:
        reopened.close()


# ----------------------------------------------------------------------
# Artifact-store scenario
# ----------------------------------------------------------------------
BLOBS = {
    hashlib.sha256(f"blob-{i}".encode()).hexdigest(): f"blob-{i}".encode() * 3
    for i in range(6)
}


def drive_puts(root, fs, stored: list[str]) -> None:
    """Store every blob; a key enters ``stored`` once its put returned."""
    cache = ArtifactCache(root, fs=fs)
    for key, blob in BLOBS.items():
        cache.put(key, blob, {"n": len(blob)})
        stored.append(key)


def count_put_write_points(tmp_path) -> int:
    fs = FaultyFilesystem()
    drive_puts(tmp_path / "clean", fs, [])
    return fs.write_ops


def test_put_survives_a_crash_after_every_write_point(tmp_path):
    total = count_put_write_points(tmp_path)
    # Per put: the bucket mkdir, then write_atomic's create-temp,
    # write-temp and replace.
    assert total == 4 * len(BLOBS)
    for crash_after in range(total):
        root = tmp_path / f"crash-{crash_after}"
        stored: list[str] = []
        with pytest.raises(SimulatedCrash):
            drive_puts(root, FaultyFilesystem(crash_after=crash_after), stored)
        assert len(stored) == crash_after // 4
        # Recovery: a fresh process opens the store on a healthy disk.
        cache = ArtifactCache(root)
        for key, blob in BLOBS.items():
            entry = cache.get(key)
            if key in stored:
                assert entry is not None, (crash_after, key)
            if entry is not None:
                assert entry.blob == blob, (crash_after, key)
        assert cache.stats.corruptions == 0
