"""repro-observe CLI: trace, report, diff, stitch end-to-end."""

import json

import pytest

from repro import observe, workloads
from repro.observe import Recorder, RunLedger, make_record, validate_chrome_trace
from repro.tools.observe_cli import main


@pytest.fixture()
def traced(tmp_path, capsys):
    """One compress trace written under tmp_path; returns the paths."""
    # Memoized programs keep their analysis caches, which would swallow
    # the enumerate_candidates stage on a re-compress.
    workloads.clear_cache()
    trace = tmp_path / "trace.json"
    ledger_dir = tmp_path / "ledger"
    code = main([
        "trace", "--step", "compress", "-b", "compress", "--scale", "0.2",
        "-o", str(trace), "--ledger-dir", str(ledger_dir),
    ])
    assert code == 0
    capsys.readouterr()
    return trace, ledger_dir


class TestTrace:
    def test_compress_writes_valid_trace_and_ledger(self, traced, capsys):
        trace, ledger_dir = traced
        document = json.loads(trace.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert {"compress", "dict_build", "tokenize"} <= names
        assert document["otherData"]["metrics"]["candidates.count"] > 0

        records = RunLedger(ledger_dir).read()
        assert len(records) == 1
        assert records[0]["kind"] == "compress"
        assert records[0]["program"] == "compress"
        assert records[0]["outcome"] == "ok"
        assert records[0]["meta"]["scale"] == 0.2

    def test_trace_prints_tree_and_paths(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([
            "trace", "-b", "li", "--scale", "0.2", "-o", str(trace),
            "--no-ledger",
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace: {trace}" in out
        assert "ledger:" not in out
        assert "compress" in out and "dict_build" in out

    def test_simulate_step(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([
            "trace", "--step", "simulate", "-b", "li", "--scale", "0.2",
            "--simulate-steps", "500", "-o", str(trace),
            "--ledger-dir", str(tmp_path / "obs"),
        ]) == 0
        document = json.loads(trace.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "simulate" in names

    def test_verify_step(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([
            "trace", "--step", "verify", "-b", "li", "--scale", "0.2",
            "-o", str(trace), "--ledger-dir", str(tmp_path / "obs"),
        ]) == 0
        document = json.loads(trace.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "verify.differential" in names


class TestReport:
    def test_report_renders_run(self, traced, capsys):
        _, ledger_dir = traced
        assert main(["report", "--ledger", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "kind=compress" in out
        assert "dict_build" in out
        assert "candidates.count" in out

    def test_report_filters(self, traced, capsys):
        _, ledger_dir = traced
        assert main([
            "report", "--ledger", str(ledger_dir), "--program", "nothere",
        ]) == 1
        assert "no matching records" in capsys.readouterr().out

    def test_report_missing_ledger(self, tmp_path, capsys):
        assert main([
            "report", "--ledger", str(tmp_path / "absent.jsonl"),
        ]) == 1


class TestDiff:
    @staticmethod
    def _write_ledger(directory, stage_seconds, kind="compress"):
        ledger = RunLedger(directory)
        cursor = 0
        children = []
        for name, seconds in stage_seconds.items():
            duration = int(seconds * 1e6)
            children.append(
                {"name": name, "start_us": cursor, "duration_us": duration}
            )
            cursor += duration
        ledger.append(make_record(
            kind, program="gcc", encoding="nibble",
            spans=[{"name": "compress", "start_us": 0,
                    "duration_us": cursor, "children": children}],
        ))
        return ledger.path

    def test_identical_ledgers_pass(self, tmp_path, capsys):
        base = self._write_ledger(tmp_path / "a", {"dict_build": 0.05})
        assert main(["diff", str(base), str(base)]) == 0
        assert "no stage regressions" in capsys.readouterr().out

    def test_regression_exits_3(self, tmp_path, capsys):
        base = self._write_ledger(tmp_path / "a", {"dict_build": 0.05})
        slow = self._write_ledger(tmp_path / "b", {"dict_build": 0.25})
        assert main(["diff", str(base), str(slow)]) == 3
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "dict_build" in captured.err

    def test_unreadable_side_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        good = self._write_ledger(tmp_path / "a", {"dict_build": 0.05})
        assert main(["diff", str(bad), str(good)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["baseline", "current"])
    @pytest.mark.parametrize("missing", ["absent.jsonl", "absent-dir"])
    def test_missing_side_exits_2(self, tmp_path, capsys, side, missing):
        good = str(self._write_ledger(tmp_path / "a", {"dict_build": 0.05}))
        absent = str(tmp_path / missing)
        argv = [absent, good] if side == "baseline" else [good, absent]
        assert main(["diff", *argv]) == 2
        captured = capsys.readouterr()
        assert "no stage regressions" not in captured.out
        assert captured.err.count("\n") == 1
        assert "error: no ledger at" in captured.err
        assert missing in captured.err


class TestStitch:
    @staticmethod
    def _write_pair(tmp_path):
        """A client ledger and a server ledger whose records share one
        trace id, the server's root parented on the client's span."""
        with Recorder() as client_side:
            with observe.span("client.job", tenant="alpha"):
                traceparent = observe.current_traceparent()
        with Recorder() as server_side:
            with observe.remote_context(traceparent):
                with observe.span("server.job", job_id="j-1"):
                    pass
        client = RunLedger(tmp_path / "client")
        client.append(make_record(
            "client.job", spans=client_side.spans, meta={"process": "client"},
        ))
        server = RunLedger(tmp_path / "server")
        server.append(make_record(
            "server.job", spans=server_side.spans, meta={"process": "server"},
        ))
        return client.path, server.path

    @pytest.mark.parametrize("position", ["first", "second"])
    def test_missing_ledger_exits_2(self, tmp_path, capsys, position):
        client, _ = self._write_pair(tmp_path)
        absent = str(tmp_path / "server-ledger-typo")
        ledgers = [absent, str(client)] if position == "first" else [str(client), absent]
        output = tmp_path / "stitched.json"
        argv = ["stitch", "-o", str(output)]
        for ledger in ledgers:
            argv += ["--ledger", ledger]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "error: no ledger at" in captured.err
        assert "server-ledger-typo" in captured.err
        assert not output.exists()

    def test_shared_trace_id_stitches_with_a_flow_arrow(self, tmp_path, capsys):
        client, server = self._write_pair(tmp_path)
        output = tmp_path / "stitched.json"
        assert main([
            "stitch", "--ledger", str(client), "--ledger", str(server),
            "-o", str(output),
        ]) == 0
        document = json.loads(output.read_text())
        assert validate_chrome_trace(document) == []
        flows = [e for e in document["traceEvents"] if e["ph"] == "s"]
        assert len(flows) >= 1
        assert "2 record(s)" in capsys.readouterr().out

    def test_unknown_trace_id_exits_1(self, tmp_path, capsys):
        client, server = self._write_pair(tmp_path)
        output = tmp_path / "stitched.json"
        assert main([
            "stitch", "--ledger", str(client), "--ledger", str(server),
            "--trace-id", "0" * 32, "-o", str(output),
        ]) == 1
        assert f"no records with trace id {'0' * 32}" in capsys.readouterr().err
        assert not output.exists()
