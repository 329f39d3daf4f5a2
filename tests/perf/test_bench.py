"""repro-bench harness and CLI tests.

Real measurements are run at test scale with single repeats — the
point is the *structure* of the run document, the byte-identical
verdicts, the baseline file round-trip, and the regression guard's
exit behaviour, not the absolute timings.
"""

import json

import pytest

from repro.errors import ReproError
from repro.perf.bench import (
    SCHEMA,
    check_regression,
    load_baseline,
    merge_baseline,
    run_bench,
    run_key,
)
from repro.tools.bench_cli import main


@pytest.fixture(scope="module")
def run_doc(small_suite):
    # small_suite primes the build_benchmark cache at scale 0.3, so
    # this measures without recompiling.
    return run_bench(
        ["compress"],
        0.3,
        ["nibble", "onebyte"],
        repeats=1,
        simulate=True,
        simulate_steps=2_000,
    )


class TestRunBench:
    def test_document_structure(self, run_doc):
        assert run_doc["config"]["programs"] == ["compress"]
        encodings = run_doc["programs"]["compress"]["encodings"]
        assert set(encodings) == {"nibble", "onebyte"}
        for enc_doc in encodings.values():
            assert enc_doc["dict_fast_seconds"] > 0
            assert enc_doc["dict_reference_seconds"] > 0
            assert enc_doc["compress_seconds"] > 0
            assert enc_doc["decode_warm_seconds"] > 0
            assert 0 < enc_doc["compression_ratio"] < 1.5
            assert enc_doc["candidates_count"] > 0
            assert "dict_build" in enc_doc["stage_seconds"]
            assert "build_dictionary" in enc_doc["stage_seconds"]
            assert enc_doc["simulate_instructions"] > 0

    def test_simulation_keys(self, run_doc):
        sim = run_doc["programs"]["compress"]["simulation"]
        assert sim["steps"] > 0
        assert sim["reference_steps_per_second"] > 0
        assert sim["fast_steps_per_second"] > 0
        assert sim["predecode_cold_seconds"] > 0
        assert sim["speedup"] > 0
        assert sim["identical_state"]
        assert sim["trace_cache"]["traces"] > 0
        assert sim["profile_fast_seconds"] > 0
        assert sim["profile_reference_seconds"] > 0
        for enc_doc in run_doc["programs"]["compress"]["encodings"].values():
            assert enc_doc["simulate_fast_insn_per_second"] > 0
            assert enc_doc["simulate_reference_insn_per_second"] > 0
            assert enc_doc["simulate_identical_state"]
            # Legacy headline keys follow the default (fast) engine.
            assert enc_doc["simulate_seconds"] == enc_doc["simulate_fast_seconds"]

    def test_no_fastpath_escape_hatch(self, small_suite):
        doc = run_bench(
            ["compress"],
            0.3,
            ["onebyte"],
            repeats=1,
            simulate_steps=2_000,
            fastpath_enabled=False,
        )
        assert doc["config"]["fastpath"] is False
        sim = doc["programs"]["compress"]["simulation"]
        assert "fast_steps_per_second" not in sim
        assert sim["reference_steps_per_second"] > 0
        enc_doc = doc["programs"]["compress"]["encodings"]["onebyte"]
        assert "simulate_fast_seconds" not in enc_doc
        assert enc_doc["simulate_seconds"] == enc_doc["simulate_reference_seconds"]
        assert doc["aggregate"]["sim_identical_everywhere"] is True
        assert "sim_speedup_largest" not in doc["aggregate"]

    def test_fast_path_is_byte_identical(self, run_doc):
        assert run_doc["aggregate"]["identical_everywhere"]
        for enc_doc in run_doc["programs"]["compress"]["encodings"].values():
            assert enc_doc["identical_greedy"]
            assert enc_doc["identical_image"]

    def test_aggregate_names_largest(self, run_doc):
        assert run_doc["aggregate"]["largest_program"] == "compress"
        assert run_doc["aggregate"]["dict_speedup_min"] > 0
        assert run_doc["aggregate"]["sim_identical_everywhere"] is True
        assert run_doc["aggregate"]["sim_speedup_largest"] > 0
        assert run_doc["aggregate"]["compressed_sim_speedup_largest"] > 0

    def test_decode_keys(self, run_doc):
        for enc_doc in run_doc["programs"]["compress"]["encodings"].values():
            assert enc_doc["decode_bulk_cold_seconds"] > 0
            assert enc_doc["decode_bulk_seconds"] > 0
            assert enc_doc["decode_reference_seconds"] > 0
            assert enc_doc["decode_bulk_speedup"] > 0
            assert enc_doc["decode_identical_items"] is True
            assert enc_doc["decode_items"] > 0
            assert enc_doc["decode_items_per_second"] > 0
            assert enc_doc["decode_backend"] in ("python", "numpy")
        aggregate = run_doc["aggregate"]
        assert aggregate["decode_identical_everywhere"] is True
        assert 0 < aggregate["decode_speedup_min"] <= aggregate["decode_speedup_max"]

    def test_fusion_keys(self, run_doc):
        fusion = run_doc["programs"]["compress"]["simulation"]["fusion"]
        assert fusion["enabled"] is True
        assert fusion["planned_pairs"] > 0
        assert fusion["trace_instructions"] >= fusion["trace_thunks"] > 0
        assert 0.0 <= fusion["body_shrink"] < 1.0

    def test_control_fusion_keys(self, run_doc):
        control = run_doc["programs"]["compress"]["simulation"]["fusion_control"]
        assert control["sites"] >= control["fused_sites"] > 0
        # The tiny simulate_steps bound truncates the profile, so the
        # dynamic weights may be zero here; real dynamic coverage is
        # asserted in tests/machine/test_control_fusion.py.
        assert control["dynamic_pairs"] >= control["dynamic_fused"] >= 0
        assert 0.0 <= control["coverage"] <= 1.0
        assert (
            run_doc["aggregate"]["control_fusion_coverage_min"]
            == control["coverage"]
        )

    def test_columnar_decode_keys(self, run_doc):
        # The columns are the one bulk product: the columnar throughput
        # key is the bulk throughput, kept for check_regression, and the
        # keys that compared two products are gone.
        for enc_doc in run_doc["programs"]["compress"]["encodings"].values():
            assert enc_doc["decode_columnar_items_per_second"] > 0
            assert (
                enc_doc["decode_columnar_items_per_second"]
                == enc_doc["decode_items_per_second"]
            )
            for dropped in (
                "decode_columnar_seconds",
                "decode_columnar_speedup",
                "decode_columnar_identical",
            ):
                assert dropped not in enc_doc

    def test_bulk_decode_stats_snapshot(self, run_doc):
        bulk = run_doc["bulk_decode"]
        assert bulk["decodes"] > 0
        assert isinstance(bulk["fallback_reasons"], dict)
        assert sum(bulk["fallback_reasons"].values()) == bulk["fallbacks"]

    def test_workers_sweep(self, small_suite):
        doc = run_bench(
            ["compress"], 0.3, ["onebyte"], repeats=1, workers=2, simulate=False
        )
        workers_doc = doc["workers"]
        assert workers_doc["jobs"] == 1
        assert workers_doc["failed"] == 0
        assert workers_doc["wall_seconds"] > 0

    def test_bad_repeats_rejected(self):
        with pytest.raises(ReproError):
            run_bench(["compress"], 0.3, ["onebyte"], repeats=0)

    def test_ledger_records_stage_breakdowns(self, small_suite, tmp_path):
        from repro.observe import RunLedger
        from repro.observe.report import aggregate_stage_seconds

        ledger = RunLedger(tmp_path / "obs")
        run_bench(
            ["compress"], 0.3, ["nibble", "onebyte"], repeats=1,
            simulate=False, ledger=ledger,
        )
        records = ledger.read()
        compresses = [r for r in records if r["kind"] == "bench.compress"]
        assert [r["encoding"] for r in compresses] == ["nibble", "onebyte"]
        for record in compresses:
            assert record["program"] == "compress"
            assert record["meta"]["instructions"] > 0
            stages = aggregate_stage_seconds(record["spans"])
            assert "dict_build" in stages
            assert "build_dictionary" in stages

    def test_ledger_records_decode_and_fusion(self, small_suite, tmp_path):
        from repro.observe import RunLedger, validate_record

        ledger = RunLedger(tmp_path / "obs")
        run_bench(
            ["compress"], 0.3, ["nibble"], repeats=1,
            simulate=True, simulate_steps=2_000, ledger=ledger,
        )
        records = ledger.read()
        for record in records:
            assert validate_record(record) == []

        decode = [r for r in records if r["kind"] == "bench.decode"]
        assert [r["encoding"] for r in decode] == ["nibble"]
        names = [span["name"] for span in decode[0]["spans"]]
        assert names == ["decode.reference", "decode.bulk"]
        assert decode[0]["wall_seconds"] > 0
        assert decode[0]["metrics"]["decode.items"] > 0
        assert decode[0]["meta"]["identical"] is True

        fusion = [r for r in records if r["kind"] == "bench.fusion"]
        assert [r["program"] for r in fusion] == ["compress"]
        assert fusion[0]["metrics"]["fusion.planned_pairs"] >= 0
        assert "coverage" in fusion[0]["meta"]["fusion_control"]
        assert "body_shrink" in fusion[0]["meta"]["fusion"]


class TestBaselineFile:
    def test_round_trip(self, tmp_path, run_doc):
        path = tmp_path / "bench.json"
        key = run_key(["compress"], 0.3, ["nibble", "onebyte"])
        document = merge_baseline(load_baseline(path), key, run_doc)
        path.write_text(json.dumps(document))
        loaded = load_baseline(path)
        assert loaded["schema"] == SCHEMA
        assert key in loaded["runs"]

    def test_missing_file_gives_empty_shell(self, tmp_path):
        document = load_baseline(tmp_path / "absent.json")
        assert document == {"schema": SCHEMA, "runs": {}}

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": 99, "runs": {}}))
        with pytest.raises(ReproError):
            load_baseline(path)

    def test_run_key_is_order_insensitive_on_programs(self):
        assert run_key(["li", "compress"], 0.3, ["nibble"]) == run_key(
            ["compress", "li"], 0.3, ["nibble"]
        )


def _doc(seconds):
    return {
        "programs": {
            "compress": {
                "encodings": {"nibble": {"compress_seconds": seconds}}
            }
        }
    }


class TestRegressionGuard:
    def test_within_budget(self):
        assert check_regression(_doc(0.010), _doc(0.008)) == []

    def test_over_budget(self):
        violations = check_regression(_doc(0.030), _doc(0.010))
        assert len(violations) == 1
        assert "compress/nibble" in violations[0]

    def test_factor_is_configurable(self):
        assert check_regression(_doc(0.030), _doc(0.010), factor=4.0) == []

    def test_new_entries_skipped(self):
        current = _doc(1.0)
        current["programs"]["compress"]["encodings"]["onebyte"] = {
            "compress_seconds": 1.0
        }
        assert check_regression(current, _doc(0.9), factor=2.0) == []

    def _sim_doc(self, steps_per_second, insn_per_second):
        return {
            "programs": {
                "compress": {
                    "simulation": {
                        "fast_steps_per_second": steps_per_second,
                        "reference_steps_per_second": 2e5,
                    },
                    "encodings": {
                        "nibble": {
                            "compress_seconds": 0.01,
                            "simulate_fast_insn_per_second": insn_per_second,
                            "simulate_insn_per_second": insn_per_second,
                        }
                    },
                }
            }
        }

    def test_throughput_within_budget(self):
        baseline = self._sim_doc(1e6, 5e5)
        assert check_regression(self._sim_doc(9e5, 4e5), baseline) == []

    def test_throughput_drop_is_violation(self):
        baseline = self._sim_doc(1e6, 5e5)
        violations = check_regression(self._sim_doc(1e5, 5e5), baseline)
        assert len(violations) == 1
        assert "fast_steps_per_second" in violations[0]
        violations = check_regression(self._sim_doc(1e6, 5e4), baseline)
        assert len(violations) == 2  # fast + legacy headline key
        assert any("simulate_fast_insn_per_second" in v for v in violations)

    def test_missing_sim_metrics_skipped(self):
        # A --no-fastpath run compared against a fastpath baseline (or
        # vice versa) must not trip the guard on absent keys.
        assert check_regression(_doc(0.01), self._sim_doc(1e6, 5e5)) == []
        assert check_regression(self._sim_doc(1e6, 5e5), _doc(0.01)) == []

    def _decode_doc(self, items_per_second, speedup):
        return {
            "programs": {
                "compress": {
                    "encodings": {
                        "nibble": {
                            "compress_seconds": 0.01,
                            "decode_items_per_second": items_per_second,
                            "decode_bulk_speedup": speedup,
                        }
                    },
                }
            }
        }

    def test_decode_throughput_guarded(self):
        baseline = self._decode_doc(1e6, 6.0)
        assert check_regression(self._decode_doc(9e5, 5.5), baseline) == []
        violations = check_regression(self._decode_doc(1e5, 6.0), baseline)
        assert len(violations) == 1
        assert "decode_items_per_second" in violations[0]

    def test_decode_speedup_ratio_guarded(self):
        baseline = self._decode_doc(1e6, 6.0)
        violations = check_regression(self._decode_doc(1e6, 1.5), baseline)
        assert len(violations) == 1
        assert "decode bulk speedup" in violations[0]

    def _columnar_doc(self, items_per_second):
        return {
            "programs": {
                "compress": {
                    "encodings": {
                        "nibble": {
                            "compress_seconds": 0.01,
                            "decode_columnar_items_per_second": items_per_second,
                        }
                    },
                }
            }
        }

    def test_columnar_throughput_guarded(self):
        baseline = self._columnar_doc(1e6)
        assert check_regression(self._columnar_doc(9e5), baseline) == []
        violations = check_regression(self._columnar_doc(1e5), baseline)
        assert len(violations) == 1
        assert "decode_columnar_items_per_second" in violations[0]

    def _control_doc(self, coverage):
        return {
            "programs": {
                "compress": {
                    "simulation": {
                        "fusion_control": {"coverage": coverage},
                    },
                    "encodings": {},
                }
            }
        }

    def test_control_fusion_coverage_guarded(self):
        baseline = self._control_doc(1.0)
        assert check_regression(self._control_doc(0.9), baseline) == []
        violations = check_regression(self._control_doc(0.2), baseline)
        assert len(violations) == 1
        assert "control fusion coverage" in violations[0]


class TestCli:
    def test_smoke(self, small_suite, capsys):
        code = main(
            [
                "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
                "--repeats", "1", "--no-simulate", "--no-write",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "byte-identical everywhere: yes" in printed

    def test_writes_and_guards(self, small_suite, tmp_path, capsys):
        output = tmp_path / "bench.json"
        argv = [
            "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
            "--repeats", "1", "--no-simulate", "--no-ledger",
            "-o", str(output),
        ]
        assert main(argv) == 0
        assert output.exists()
        # Same configuration against its own baseline: within budget.
        assert main(argv + ["--baseline", str(output)]) == 0
        assert "guard: within" in capsys.readouterr().out

    def test_guard_failure_exits_3(self, small_suite, tmp_path, capsys):
        output = tmp_path / "bench.json"
        argv = [
            "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
            "--repeats", "1", "--no-simulate", "--no-ledger",
        ]
        assert main(argv + ["-o", str(output)]) == 0
        document = json.loads(output.read_text())
        for run in document["runs"].values():
            for program in run["programs"].values():
                for enc_doc in program["encodings"].values():
                    enc_doc["compress_seconds"] = 1e-9
        output.write_text(json.dumps(document))
        code = main(argv + ["--no-write", "--baseline", str(output)])
        assert code == 3
        assert "REGRESSION" in capsys.readouterr().err

    def test_simulation_lines_printed(self, small_suite, capsys):
        code = main(
            [
                "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
                "--repeats", "1", "--simulate-steps", "2000", "--no-write",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "simulation fast path:" in printed
        assert "steps/s fast vs" in printed
        assert "insn/s fast vs" in printed

    def test_decode_lines_printed(self, small_suite, capsys):
        code = main(
            [
                "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
                "--repeats", "1", "--simulate-steps", "2000", "--no-write",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "bulk decode:" in printed
        assert "items/s bulk" in printed
        assert "fusion: compress:" in printed

    def test_decode_guard_pass_and_fail(self, small_suite, capsys):
        argv = [
            "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
            "--repeats", "1", "--no-simulate", "--no-write", "--no-ledger",
        ]
        assert main(argv + ["--decode-guard", "0.01"]) == 0
        assert "decode guard: bulk >= 0.01x" in capsys.readouterr().out
        # No machine decodes 10000x faster than itself walks.
        assert main(argv + ["--decode-guard", "10000"]) == 3
        assert "DECODE GUARD" in capsys.readouterr().err

    def test_fusion_guard_pass_and_fail(self, small_suite, capsys):
        argv = [
            "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
            "--repeats", "1", "--simulate-steps", "2000", "--no-write",
            "--no-ledger",
        ]
        assert main(argv + ["--fusion-guard", "0.6"]) == 0
        printed = capsys.readouterr().out
        assert "fusion guard: control coverage >= 60%" in printed
        assert "control fusion: compress:" in printed
        # Coverage cannot exceed 1.0, so a >1 floor must always trip.
        assert main(argv + ["--fusion-guard", "1.5"]) == 3
        assert "FUSION GUARD" in capsys.readouterr().err

    def test_fallback_lines_printed(self, small_suite, capsys):
        code = main(
            [
                "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
                "--repeats", "1", "--no-simulate", "--no-write", "--no-ledger",
            ]
        )
        assert code == 0
        assert "bulk decode fallbacks:" in capsys.readouterr().out

    def test_no_fastpath_flag(self, small_suite, capsys):
        code = main(
            [
                "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
                "--repeats", "1", "--simulate-steps", "2000",
                "--no-fastpath", "--no-write",
            ]
        )
        assert code == 0
        assert "simulation fast path:" not in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["-b", "nonexistent"])

    def test_ledger_dir_flag_feeds_observe_diff(self, small_suite, tmp_path,
                                                capsys):
        """Bench ledger records diff cleanly against the bench JSON."""
        from repro.tools.observe_cli import main as observe_main

        output = tmp_path / "bench.json"
        ledger_dir = tmp_path / "obs"
        code = main([
            "-b", "compress", "--scale", "0.3", "--encodings", "onebyte",
            "--repeats", "1", "--no-simulate", "-o", str(output),
            "--ledger-dir", str(ledger_dir),
        ])
        assert code == 0
        assert f"ledger: {ledger_dir}" in capsys.readouterr().out
        # The same run seen two ways can never be a regression.
        assert observe_main([
            "diff", str(output), str(ledger_dir),
        ]) == 0
        assert "no stage regressions" in capsys.readouterr().out
