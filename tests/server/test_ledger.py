"""Job-ledger tests: manifest/state split, replay, resume, compaction."""

import json
import tracemalloc

import pytest

from repro.errors import ServiceError
from repro.server.ledger import JobLedger, make_job_id
from repro.service.jobs import PIPELINE_VERSION


@pytest.fixture()
def ledger(tmp_path):
    ledger = JobLedger(tmp_path / "state")
    yield ledger
    ledger.close()


class TestManifest:
    def test_written_once_on_creation(self, ledger):
        manifest = json.loads(ledger.manifest_path.read_text())
        assert manifest["schema"] == 1
        assert manifest["pipeline_version"] == PIPELINE_VERSION
        assert set(manifest) == {"schema", "pipeline_version", "created_unix"}

    def test_reopen_accepts_matching_manifest(self, ledger, tmp_path):
        ledger.record("job-1", "submitted", tenant="t", key="k", spec={})
        ledger.close()
        reopened = JobLedger(tmp_path / "state")
        # The original manifest is kept, not rewritten.
        assert reopened.manifest == ledger.manifest
        reopened.close()

    def test_manifest_with_extra_keys_still_opens(self, tmp_path):
        # Older servers also recorded their cache shard count; only
        # ``schema`` and ``pipeline_version`` are checked on open.
        directory = tmp_path / "state"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({
            "schema": 1, "pipeline_version": PIPELINE_VERSION,
            "shards": 4, "created_unix": 0.0,
        }))
        reopened = JobLedger(directory)
        assert reopened.manifest["shards"] == 4
        reopened.close()

    def test_wrong_schema_refused(self, tmp_path):
        directory = tmp_path / "state"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"schema": 99, "pipeline_version": PIPELINE_VERSION})
        )
        with pytest.raises(ServiceError, match="unsupported ledger schema"):
            JobLedger(directory)

    def test_wrong_pipeline_version_refused(self, tmp_path):
        directory = tmp_path / "state"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"schema": 1, "pipeline_version": -1})
        )
        with pytest.raises(ServiceError, match="pipeline"):
            JobLedger(directory)


class TestReplay:
    def test_folds_lifecycle_into_one_record(self, ledger):
        ledger.record(
            "job-a", "submitted",
            tenant="alpha", key="aa" * 32, spec={"benchmark": "go"},
        )
        ledger.record("job-a", "started")
        ledger.record(
            "job-a", "completed", cache_hit=True, meta={"bytes": 9},
        )
        records = ledger.replay()
        record = records["job-a"]
        assert record.status == "completed"
        assert record.terminal
        assert record.tenant == "alpha"
        assert record.spec == {"benchmark": "go"}
        assert record.cache_hit is True
        assert record.meta == {"bytes": 9}
        assert record.attempts == 1

    def test_failed_record_keeps_error(self, ledger):
        ledger.record("job-b", "submitted", tenant="t", key="k", spec={})
        ledger.record("job-b", "started")
        ledger.record("job-b", "failed", error="CompileError: nope")
        record = ledger.replay()["job-b"]
        assert record.status == "failed"
        assert record.error == "CompileError: nope"

    def test_attempts_count_restarts(self, ledger):
        ledger.record("job-c", "submitted", spec={})
        ledger.record("job-c", "started")
        ledger.record("job-c", "started")
        assert ledger.replay()["job-c"].attempts == 2

    def test_torn_final_line_tolerated(self, ledger):
        ledger.record("job-d", "submitted", tenant="t", key="k", spec={})
        ledger.close()
        with ledger.state_path.open("a") as handle:
            handle.write('{"job_id": "job-e", "event": "subm')  # SIGKILL
        records = ledger.replay()
        assert set(records) == {"job-d"}

    def test_unknown_event_rejected(self, ledger):
        with pytest.raises(ServiceError, match="unknown ledger event"):
            ledger.record("job-x", "exploded")


class TestResume:
    def test_non_terminal_jobs_are_resumable_oldest_first(self, ledger):
        ledger.record("job-old", "submitted", spec={"benchmark": "go"})
        ledger.record("job-done", "submitted", spec={})
        ledger.record("job-done", "started")
        ledger.record("job-done", "completed")
        ledger.record("job-young", "submitted", spec={"benchmark": "li"})
        ledger.record("job-young", "started")  # interrupted mid-run
        resumable = ledger.resumable()
        assert [r.job_id for r in resumable] == ["job-old", "job-young"]
        assert all(not r.terminal for r in resumable)

    def test_cancelled_jobs_are_not_resumed(self, ledger):
        ledger.record("job-z", "submitted", spec={})
        ledger.record("job-z", "cancelled", reason="drain")
        assert ledger.resumable() == []


class TestCompaction:
    def test_compact_preserves_replay_and_shrinks_log(self, ledger):
        for index in range(5):
            job_id = f"job-{index}"
            ledger.record(job_id, "submitted", tenant="t", key="k",
                          spec={"benchmark": "go"})
            ledger.record(job_id, "started")
            ledger.record(job_id, "completed", cache_hit=False, meta={})
        before = ledger.replay()
        kept = ledger.compact()
        assert kept == 5
        lines = ledger.state_path.read_text().splitlines()
        assert len(lines) == 5  # one snapshot per job, 15 lines before
        assert all(json.loads(line)["event"] == "snapshot" for line in lines)
        after = ledger.replay()
        assert {k: v.as_dict() for k, v in after.items()} == {
            k: v.as_dict() for k, v in before.items()
        }

    def test_appends_work_after_compaction(self, ledger):
        ledger.record("job-1", "submitted", spec={})
        ledger.compact()
        ledger.record("job-2", "submitted", spec={"benchmark": "li"})
        records = ledger.replay()
        assert set(records) == {"job-1", "job-2"}

    def test_interrupted_jobs_survive_compaction(self, ledger):
        ledger.record("job-run", "submitted", spec={"benchmark": "go"})
        ledger.record("job-run", "started")
        ledger.compact()
        resumable = ledger.resumable()
        assert [r.job_id for r in resumable] == ["job-run"]
        assert resumable[0].spec == {"benchmark": "go"}

    def test_recompaction_rereads_specs_from_snapshot_lines(self, ledger):
        ledger.record("job-a", "submitted", spec={"benchmark": "go"})
        ledger.record("job-b", "submitted", spec={"source": "int x;"})
        ledger.record("job-b", "completed", cache_hit=True, meta={"n": 1})
        before = {k: v.as_dict() for k, v in ledger.replay().items()}
        ledger.compact()
        ledger.record("job-c", "submitted", spec={"benchmark": "li"})
        assert ledger.compact() == 3
        after = {k: v.as_dict() for k, v in ledger.replay().items()}
        assert after.pop("job-c")["spec"] == {"benchmark": "li"}
        for record in (*before.values(), *after.values()):
            record.pop("updated_unix")
        assert after == before

    def test_compaction_streams_the_log(self, ledger):
        # 400 jobs with ~8 KB MiniC specs (~3.4 MB of log): compaction
        # folds each line as it reads it and releases each record as it
        # writes its snapshot, so it never holds the log several times
        # over (reading it whole, split and parsed peaked at ~3x).
        for index in range(400):
            job_id = f"job-{index}"
            source = "".join(
                f"int f{index}_{k}(int x) {{ return x + {k * 7919 % 1000}; }}\n"
                for k in range(200)
            )[:8000]
            ledger.record(job_id, "submitted", tenant="t", key="k" * 64,
                          spec={"source": source, "encoding": "nibble"})
            ledger.record(job_id, "started")
            ledger.record(job_id, "completed", cache_hit=False,
                          meta={"bytes": 1234})
        ledger.close()
        size = ledger.state_path.stat().st_size
        before = {k: v.as_dict() for k, v in ledger.replay().items()}
        tracemalloc.start()
        try:
            assert ledger.compact() == 400
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * size, (peak, size)
        after = {k: v.as_dict() for k, v in ledger.replay().items()}
        assert after == before

    def test_compaction_peak_does_not_grow_with_the_specs(self, tmp_path):
        # 1,800 more jobs carry ~14 MB more of specs; compaction holds
        # one spec at a time, so only a spec-free record per job (under
        # 1 KB each here) may grow with the log.
        def compaction_peak(jobs: int) -> int:
            ledger = JobLedger(tmp_path / f"ledger-{jobs}")
            for index in range(jobs):
                source = "".join(
                    f"int f{index}_{k}(int x) {{ return x + {k}; }}\n"
                    for k in range(300)
                )[:8000]
                ledger.record(f"job-{index}", "submitted", tenant="t",
                              key="k" * 64,
                              spec={"source": source, "encoding": "nibble"})
                ledger.record(f"job-{index}", "started")
                ledger.record(f"job-{index}", "completed", cache_hit=False,
                              meta={"bytes": 1234})
            ledger.close()
            tracemalloc.start()
            try:
                assert ledger.compact() == jobs
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert ledger.resumable() == []
            return peak

        small, large = compaction_peak(200), compaction_peak(2_000)
        assert large - small <= 3 * 1024 * 1024, (small, large)


def test_make_job_id_is_unique_and_prefixed():
    ids = {make_job_id() for _ in range(100)}
    assert len(ids) == 100
    assert all(job_id.startswith("job-") for job_id in ids)


class TestTornTailRecovery:
    def tear(self, ledger, fragment='{"job_id": "job-torn", "event": "subm'):
        """Append a torn, newline-less fragment — a kill -9 mid-append."""
        ledger.close()
        with ledger.state_path.open("a") as handle:
            handle.write(fragment)

    def test_recover_moves_the_tail_into_quarantine(self, ledger):
        ledger.record("job-ok", "submitted", tenant="t", key="k", spec={})
        self.tear(ledger)
        moved = ledger.recover()
        assert moved == len('{"job_id": "job-torn", "event": "subm')
        assert ledger.recovered_bytes == moved
        assert ledger.quarantine_path.read_text() == (
            '{"job_id": "job-torn", "event": "subm'
        )
        # The state store is back to a clean newline-terminated prefix.
        raw = ledger.state_path.read_bytes()
        assert raw.endswith(b"\n")
        assert set(ledger.replay()) == {"job-ok"}

    def test_recover_is_idempotent(self, ledger):
        ledger.record("job-ok", "submitted", spec={})
        self.tear(ledger)
        assert ledger.recover() > 0
        assert ledger.recover() == 0

    def test_append_after_tear_does_not_concatenate(self, ledger):
        """The historical failure mode: a naive append lands on the torn
        fragment and corrupts TWO records.  record() must recover first."""
        ledger.record("job-a", "submitted", tenant="t", key="k", spec={})
        self.tear(ledger)
        # record() on the reopened handle runs recovery before appending.
        ledger._handle = None
        ledger.record("job-b", "submitted", tenant="t", key="k2", spec={})
        records = ledger.replay()
        assert set(records) == {"job-a", "job-b"}
        assert ledger.quarantine_path.exists()

    def test_mid_file_corruption_quarantines_the_suffix(self, ledger):
        ledger.record("job-keep", "submitted", spec={})
        ledger.close()
        with ledger.state_path.open("a") as handle:
            handle.write("NOT JSON AT ALL\n")
            handle.write('{"job_id": "job-after", "event": "submitted"}\n')
        moved = ledger.recover()
        # Everything from the first bad line onward is evidence, not
        # state — replaying records past a corrupt line risks replaying
        # records the corruption may have damaged.
        assert moved == len("NOT JSON AT ALL\n") + len(
            '{"job_id": "job-after", "event": "submitted"}\n'
        )
        assert set(ledger.replay()) == {"job-keep"}

    def test_clean_store_recovers_zero(self, ledger):
        ledger.record("job-a", "submitted", spec={})
        assert ledger.recover() == 0
        assert not ledger.quarantine_path.exists()
