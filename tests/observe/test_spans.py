"""Span nesting, recorder scoping, and the flat-callback compat shim."""

import re
import threading

import pytest

import repro.observe
from repro import observe
from repro.core.compressor import Compressor
from repro.core.encodings import NibbleEncoding
from repro.observe import Recorder


class TestSpanBasics:
    def test_noop_without_recorder(self):
        with observe.span("anything") as node:
            assert node is None  # no recorder: nothing allocated

    def test_nesting(self):
        with Recorder() as recorder:
            with observe.span("root", level=0):
                with observe.span("child-a"):
                    with observe.span("grandchild"):
                        pass
                with observe.span("child-b"):
                    pass
        assert len(recorder.spans) == 1
        root = recorder.spans[0]
        assert root.name == "root"
        assert root.attrs == {"level": 0}
        assert [child.name for child in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_durations_and_self_time(self):
        with Recorder() as recorder:
            with observe.span("root"):
                with observe.span("child"):
                    pass
        root = recorder.spans[0]
        child = root.children[0]
        assert root.duration_seconds >= child.duration_seconds > 0
        assert root.self_seconds == pytest.approx(
            root.duration_seconds - child.duration_seconds
        )

    def test_exception_still_closes_span(self):
        with Recorder() as recorder:
            with pytest.raises(ValueError):
                with observe.span("root"):
                    raise ValueError("boom")
        assert recorder.spans[0].end_ns is not None

    def test_current_span(self):
        assert observe.current_span() is None
        with Recorder():
            with observe.span("outer"):
                assert observe.current_span().name == "outer"
                with observe.span("inner"):
                    assert observe.current_span().name == "inner"
        assert observe.current_span() is None

    def test_to_dict_roundtrip(self):
        with Recorder() as recorder:
            with observe.span("root", program="x"):
                with observe.span("child"):
                    pass
        doc = recorder.spans[0].to_dict()
        rebuilt = observe.Span.from_dict(doc)
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"program": "x"}
        assert rebuilt.children[0].name == "child"
        assert rebuilt.to_dict() == doc


class TestRecorderScoping:
    def test_metrics_routed_to_recorder(self):
        with Recorder() as recorder:
            observe.metric("hits", 2)
            observe.metric("hits", 3)
        observe.metric("hits", 100)  # after uninstall: dropped
        assert recorder.metrics == {"hits": 5}

    def test_two_recorders_same_context_both_complete(self):
        outer = Recorder()
        inner = Recorder()
        with outer:
            with inner:
                with observe.span("run"):
                    observe.metric("m")
        assert [s.name for s in outer.spans] == ["run"]
        assert [s.name for s in inner.spans] == ["run"]
        assert outer.metrics == inner.metrics == {"m": 1}

    def test_snapshot_at_root_start_wins(self):
        # A recorder installed after a root span opened does not see it;
        # a recorder uninstalled before the root closes still does.
        early = Recorder()
        late = Recorder()
        early.install()
        with observe.span("run"):
            early.uninstall()
            late.install()
            observe.metric("m")  # inside the tree: follows the snapshot
        late.uninstall()
        assert [s.name for s in early.spans] == ["run"]
        assert early.metrics == {"m": 1}
        assert late.spans == []
        assert late.metrics == {}

    def test_process_wide_recorder_sees_other_threads(self):
        recorder = Recorder().install(process_wide=True)
        try:
            def work():
                with observe.span("thread-run"):
                    pass
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        finally:
            recorder.uninstall()
        assert [s.name for s in recorder.spans] == ["thread-run"]

    def test_concurrent_context_recorders_disjoint_by_run(self):
        """The acceptance-criterion race test at recorder level.

        Two threads each install their own context-scoped recorder and
        run a real compress; each recorder must capture its own run
        completely and nothing from its neighbour.
        """
        from repro import workloads

        # Fresh programs: memoized ones may already carry candidate
        # stores, which would swallow the candidates.count metric.
        workloads.clear_cache()
        programs = {"a": workloads.build_benchmark("compress", 0.2),
                    "b": workloads.build_benchmark("li", 0.2)}
        recorders = {}
        barrier = threading.Barrier(2)
        errors = []

        def work(key):
            try:
                recorder = Recorder(name=key)
                recorders[key] = recorder
                with recorder:
                    barrier.wait(timeout=30)
                    Compressor(encoding=NibbleEncoding()).compress(
                        programs[key]
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for key, program in (("a", programs["a"]), ("b", programs["b"])):
            spans = recorders[key].spans
            assert len(spans) == 1, "each recorder sees exactly its own run"
            root = spans[0]
            assert root.name == "compress"
            assert root.attrs["program"] == program.name
            names = {node.name for node in root.walk()}
            assert {"dict_build", "tokenize", "branch_patch",
                    "serialize", "jump_tables"} <= names
            # candidates.count is per-program: disjoint metric views too.
            assert recorders[key].metrics["candidates.count"] > 0
        assert (
            recorders["a"].metrics["candidates.count"]
            != recorders["b"].metrics["candidates.count"]
        )


def _docstring_table_names(section: str) -> set:
    """Parse the ``name`` column of one docstring table."""
    doc = repro.observe.__doc__
    sections = ("Stage names currently emitted:",
                "Metric names currently emitted:")
    start = doc.index(section) + len(section)
    end = min(
        (doc.index(other) for other in sections
         if other != section and doc.index(other) > start),
        default=len(doc),
    )
    return set(re.findall(r"^``([a-z_.]+)``", doc[start:end], re.MULTILINE))


class TestCompatShim:
    """The historical :func:`stage` contract: documented names only, and
    a no-op when nothing records."""

    def test_stage_names_byte_identical_to_docstring_table(self):
        """Stages carry exactly the documented stage names."""
        documented = _docstring_table_names("Stage names currently emitted:")
        documented -= _docstring_table_names("Metric names currently emitted:")
        assert "dict_build" in documented  # table parsed at all

        from repro.machine.fastpath import program_cache

        from repro import workloads

        # A fresh program: per-program analysis caches would otherwise
        # swallow the enumerate_candidates stage on a re-compress.
        workloads.clear_cache()
        program = workloads.build_benchmark("go", 0.2)
        with Recorder() as recorder:
            Compressor(encoding=NibbleEncoding()).compress(program)
            program_cache(program)
        emitted = {
            node.name for root in recorder.spans for node in root.walk()
        }
        # ``compress`` is the hierarchical span around the five stages.
        stages = emitted - {"compress"}
        assert stages, "stages were emitted"
        assert stages <= documented
        assert stages == {
            "dict_build", "tokenize", "branch_patch", "serialize",
            "jump_tables", "enumerate_candidates", "build_dictionary",
            "sim.predecode",
        }

    def test_library_default_is_noop(self):
        assert not observe.recording_active()
        with observe.stage("anything"):
            pass  # must not raise, must not record


