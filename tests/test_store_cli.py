"""CLI surface of the run store: run --store, report, compare, --list --json.

Drives ``repro.experiments.cli.main`` exactly as CI does and asserts on
exit codes and written artifacts: a warm ``--store`` sweep must be 100%
cache hits with byte-identical summaries, ``compare`` must exit non-zero on
an injected regression, and malformed ``--seeds`` inputs must fail with a
clear error instead of silently sweeping twice.
"""

import json

import pytest

from repro.experiments import DEFAULT_SEED, Runner, execute_run, make_scenario
from repro.experiments.cli import _parse_seeds, main
from repro.store import RunStore

SLICE = ["--scenario", "binary+silent+synchronous", "quad+silent+synchronous"]


def run_cli(*argv):
    return main(list(argv))


class TestSeedValidation:
    def test_count_form(self):
        assert _parse_seeds("3") == [DEFAULT_SEED, DEFAULT_SEED + 1, DEFAULT_SEED + 2]

    def test_comma_form(self):
        assert _parse_seeds("7,5,6") == [7, 5, 6]

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_non_positive_count_rejected(self, raw):
        with pytest.raises(ValueError, match="positive"):
            _parse_seeds(raw)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            _parse_seeds("5,6,5")

    def test_garbage_rejected_clearly(self):
        with pytest.raises(ValueError, match="integers"):
            _parse_seeds("5,six")
        with pytest.raises(ValueError, match="count or a comma list"):
            _parse_seeds("many")

    @pytest.mark.parametrize("raw", ["0", "5,5"])
    def test_cli_exit_code_2(self, raw, capsys):
        assert run_cli("run", "--seeds", raw, *SLICE) == 2
        assert "error:" in capsys.readouterr().err


class TestListJson:
    def test_machine_readable_matrix(self, capsys):
        assert run_cli("--list", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code_fingerprint"]
        names = {record["name"] for record in payload["scenarios"]}
        assert "binary+silent+synchronous" in names
        record = next(r for r in payload["scenarios"] if r["name"] == "binary+silent+synchronous")
        assert record["protocol"] == "binary"
        assert record["adversary"] == "silent"
        assert record["delay"] == "synchronous"
        assert record["n"] == 4 and record["t"] == 1
        assert len(record["fingerprint"]) == 64
        assert len({record["fingerprint"] for record in payload["scenarios"]}) == len(names)

    def test_plain_list_unchanged(self, capsys):
        assert run_cli("--list") == 0
        assert "registered scenarios" in capsys.readouterr().out


class TestRunWithStore:
    def test_cold_then_warm_is_all_hits_and_byte_identical(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        cold_summary = tmp_path / "cold.json"
        warm_summary = tmp_path / "warm.json"
        assert (
            run_cli(
                "run", *SLICE, "--seeds", "2", "--quiet",
                "--store", str(db), "--write-baseline", str(cold_summary),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 executed" in out and "0 cached" in out
        assert (
            run_cli(
                "run", *SLICE, "--seeds", "2", "--quiet",
                "--store", str(db), "--require-cached", "--write-baseline", str(warm_summary),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 cached" in out and "0 executed" in out
        assert cold_summary.read_bytes() == warm_summary.read_bytes()

    def test_require_cached_fails_on_a_cold_store(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(db), "--require-cached") == 1
        assert "REQUIRE-CACHED" in capsys.readouterr().err

    def test_require_cached_detects_a_partial_store(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert run_cli("run", "--scenario", "binary+silent+synchronous", "--seeds", "1", "--quiet", "--store", str(db)) == 0
        capsys.readouterr()
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(db), "--require-cached") == 1
        err = capsys.readouterr().err
        assert "1 of 2 runs were not in the store" in err

    def test_rerun_contradicts_require_cached(self, capsys):
        assert run_cli("run", *SLICE, "--store", "x.db", "--rerun", "--require-cached") == 2
        assert "contradicts" in capsys.readouterr().err

    def test_store_flags_require_store(self, capsys):
        assert run_cli("run", *SLICE, "--rerun") == 2
        assert run_cli("run", *SLICE, "--require-cached") == 2
        assert "--store" in capsys.readouterr().err


class TestReport:
    @pytest.fixture()
    def populated(self, tmp_path):
        db = tmp_path / "runs.db"
        assert run_cli("run", *SLICE, "--seeds", "2", "--quiet", "--store", str(db)) == 0
        return db

    def test_report_table_and_artifacts(self, populated, tmp_path, capsys):
        markdown = tmp_path / "report.md"
        summaries = tmp_path / "summaries.json"
        assert (
            run_cli(
                "report", "--store", str(populated),
                "--markdown", str(markdown), "--json-output", str(summaries),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "binary+silent+synchronous" in out and "quad+silent+synchronous" in out
        text = markdown.read_text()
        assert text.startswith("| scenario |")
        payload = json.loads(summaries.read_text())
        assert set(payload["scenarios"]) == {
            "binary+silent+synchronous", "quad+silent+synchronous",
        }
        assert payload["scenarios"]["binary+silent+synchronous"]["runs"] == 2

    def test_report_protocol_filter(self, populated, capsys):
        assert run_cli("report", "--store", str(populated), "--protocol", "binary") == 0
        out = capsys.readouterr().out
        assert "binary+silent+synchronous" in out
        assert "quad+silent+synchronous" not in out

    def test_report_missing_store_errors(self, tmp_path, capsys):
        assert run_cli("report", "--store", str(tmp_path / "absent.db")) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_report_empty_slice_exits_3(self, populated, tmp_path, capsys):
        # Empty slice is its own exit code (3), distinct from configuration
        # errors (2): CI can tell "nothing matched" from "you asked wrongly".
        assert run_cli("report", "--store", str(populated), "--protocol", "universal-compact") == 3
        err = capsys.readouterr().err
        assert "no stored records" in err
        assert len(err.strip().splitlines()) == 1
        # A store that holds nothing at all is the same empty slice.
        empty = tmp_path / "empty.db"
        RunStore(empty).close()
        assert run_cli("report", "--store", str(empty)) == 3
        assert capsys.readouterr().err == "empty slice: no stored records match the requested slice\n"

    def test_report_counts_records_under_older_code(self, populated, capsys):
        # Records an earlier build stored stay out of the table by default,
        # but the report says how many there are.
        spec = make_scenario("binary", "silent", "synchronous")
        with RunStore(populated, code_fp="built-by-older-code") as store:
            store.put(spec, execute_run(spec, DEFAULT_SEED + 7))
        capsys.readouterr()
        assert run_cli("report", "--store", str(populated)) == 0
        out = capsys.readouterr().out
        assert "(+1 records under older code fingerprints; --any-code includes them)" in out
        assert run_cli("report", "--store", str(populated), "--any-code") == 0
        assert "older code fingerprints" not in capsys.readouterr().out

    def test_report_all_stale_store_points_at_any_code(self, tmp_path, capsys):
        stale = tmp_path / "stale.db"
        spec = make_scenario("binary", "silent", "synchronous")
        with RunStore(stale, code_fp="built-by-older-code") as store:
            store.put(spec, execute_run(spec, DEFAULT_SEED))
        assert run_cli("report", "--store", str(stale)) == 3
        assert "pass --any-code or --rerun the sweep" in capsys.readouterr().err
        assert run_cli("report", "--store", str(stale), "--any-code") == 0
        assert "binary+silent+synchronous" in capsys.readouterr().out

    def test_report_quiet_prints_only_what_it_wrote(self, populated, tmp_path, capsys):
        summaries = tmp_path / "summaries.json"
        assert run_cli("report", "--store", str(populated), "--quiet", "--json-output", str(summaries)) == 0
        assert capsys.readouterr().out == f"wrote JSON summaries for 2 scenarios to {summaries}\n"
        payload = json.loads(summaries.read_text())
        assert payload["poison"] == []
        # The sweep that filled the store persisted its supervision counters.
        assert isinstance(payload["supervision"], dict)

    def test_report_without_a_sweep_snapshot_has_no_supervision(self, tmp_path, capsys):
        # Records put straight into a store come with no sweep telemetry, so
        # there is no supervision line and the JSON field is null.
        db, summaries = tmp_path / "runs.db", tmp_path / "summaries.json"
        spec = make_scenario("binary", "silent", "synchronous")
        with RunStore(db) as store:
            store.put(spec, execute_run(spec, DEFAULT_SEED))
        assert run_cli("report", "--store", str(db), "--json-output", str(summaries)) == 0
        assert "supervision" not in capsys.readouterr().out
        assert json.loads(summaries.read_text())["supervision"] is None


class TestCompare:
    def test_store_matches_its_own_baseline(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        baseline = tmp_path / "baseline.json"
        assert run_cli("run", *SLICE, "--seeds", "2", "--quiet", "--store", str(db), "--write-baseline", str(baseline)) == 0
        assert run_cli("compare", "--store", str(db), "--against", str(baseline)) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_two_equal_stores_compare_clean(self, tmp_path):
        db_a, db_b = tmp_path / "a.db", tmp_path / "b.db"
        for db in (db_a, db_b):
            assert run_cli("run", *SLICE, "--seeds", "2", "--quiet", "--store", str(db)) == 0
        assert run_cli("compare", "--store", str(db_a), "--against", str(db_b)) == 0

    def test_injected_regression_exits_non_zero(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        baseline = tmp_path / "baseline.json"
        assert run_cli("run", *SLICE, "--seeds", "2", "--quiet", "--store", str(db), "--write-baseline", str(baseline)) == 0
        # Inject the regression: overwrite one scenario's records with runs
        # of a starved twin (same name, exhausted event budget -> errors).
        healthy = make_scenario("binary", "silent", "synchronous")
        starved = healthy.with_(max_events=5)
        with RunStore(db) as store:
            for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
                result = execute_run(starved, seed)
                assert result.error is not None
                store.put(healthy, result)
        capsys.readouterr()
        assert run_cli("compare", "--store", str(db), "--against", str(baseline)) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "errors" in err

    def test_scenario_filter_restricts_both_sides(self, tmp_path):
        db = tmp_path / "runs.db"
        baseline = tmp_path / "baseline.json"
        # Baseline covers two scenarios; the store only one.  Unfiltered the
        # missing scenario is a regression; filtered to the shared slice it
        # compares clean.
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--write-baseline", str(baseline)) == 0
        assert run_cli("run", "--scenario", "binary+silent+synchronous", "--seeds", "1", "--quiet", "--store", str(db)) == 0
        assert run_cli("compare", "--store", str(db), "--against", str(baseline)) == 1
        assert (
            run_cli(
                "compare", "--store", str(db), "--against", str(baseline),
                "--scenario", "binary+silent+synchronous",
            )
            == 0
        )

    def test_missing_reference_errors(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(db)) == 0
        assert run_cli("compare", "--store", str(db), "--against", str(tmp_path / "absent.json")) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_stale_code_reference_store_is_an_error_not_a_pass(self, tmp_path, capsys):
        # A reference store whose records live under a different code
        # fingerprint summarizes to nothing — compare must refuse with the
        # empty-slice exit code (3), never print "no regressions" against an
        # empty reference.
        current = tmp_path / "current.db"
        stale = tmp_path / "stale.db"
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(current)) == 0
        spec = make_scenario("binary", "silent", "synchronous")
        with RunStore(stale, code_fp="built-by-older-code") as store:
            store.put(spec, execute_run(spec, DEFAULT_SEED))
        capsys.readouterr()
        assert run_cli("compare", "--store", str(current), "--against", str(stale)) == 3
        err = capsys.readouterr().err
        assert "no scenarios" in err and "--any-code" in err
        # Symmetrically: a measured store with only stale records errors too.
        assert run_cli("compare", "--store", str(stale), "--against", str(current)) == 3
        assert "--any-code" in capsys.readouterr().err
        # --any-code reads the stale side, whose record is the current run's.
        assert run_cli(
            "compare", "--store", str(stale), "--against", str(current),
            "--scenario", "binary+silent+synchronous", "--any-code",
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_tolerance_sets_the_complexity_ceiling(self, tmp_path, capsys):
        # A baseline whose mean message count is 30 % below the store's is a
        # regression at the default 20 % tolerance and clean at 50 %.
        db, baseline = tmp_path / "runs.db", tmp_path / "baseline.json"
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(db), "--write-baseline", str(baseline)) == 0
        payload = json.loads(baseline.read_text())
        messages = payload["scenarios"]["binary+silent+synchronous"]["messages"]
        messages["mean"] /= 1.3
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("compare", "--store", str(db), "--against", str(baseline)) == 1
        assert "mean messages rose" in capsys.readouterr().err
        assert run_cli("compare", "--store", str(db), "--against", str(baseline), "--tolerance", "0.5") == 0

    def test_comparing_two_stores_writes_to_neither(self, tmp_path):
        db_a, db_b = tmp_path / "a.db", tmp_path / "b.db"
        for db in (db_a, db_b):
            assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(db)) == 0

        def contents(db):
            with RunStore(db) as store:
                return store.count(any_code=True), [record.snapshot_id for record in store.iter_telemetry()]

        before = [contents(db) for db in (db_a, db_b)]
        assert run_cli("compare", "--store", str(db_a), "--against", str(db_b)) == 0
        assert [contents(db) for db in (db_a, db_b)] == before


class TestStoreFormatErrors:
    def test_run_report_compare_reject_non_store_files_cleanly(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.db"
        bogus.write_text('{"this is": "a JSON file, not SQLite"}\n')
        db = tmp_path / "runs.db"
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(db)) == 0
        capsys.readouterr()
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(bogus)) == 2
        assert "cannot open run store" in capsys.readouterr().err
        assert run_cli("report", "--store", str(bogus)) == 2
        assert "cannot open run store" in capsys.readouterr().err
        assert run_cli("compare", "--store", str(db), "--against", str(bogus)) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unopenable_store_path_is_a_clean_cli_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "runs.db"
        assert run_cli("run", *SLICE, "--seeds", "1", "--quiet", "--store", str(missing_dir)) == 2
        assert "cannot open run store" in capsys.readouterr().err


class TestArgumentValidation:
    """--parallel/--timeout are validated at parse time across subcommands."""

    @pytest.mark.parametrize("command", ["run", "analyze", "fuzz"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_parallel_is_a_parse_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--parallel", value)
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "fuzz"])
    @pytest.mark.parametrize("value", ["0", "-1.5"])
    def test_non_positive_timeout_is_a_parse_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--timeout", value)
        assert excinfo.value.code == 2
        assert "positive number" in capsys.readouterr().err

    def test_garbage_parallel_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--parallel", "four")
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestSpecReplay:
    """run --spec replays a serialized scenario (the fuzz counterexample path)."""

    def test_replays_a_bare_spec_payload(self, tmp_path, capsys):
        from repro.store.fingerprint import spec_payload

        spec = make_scenario("binary", "silent", "synchronous")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec_payload(spec)))
        assert run_cli("run", "--spec", str(spec_file)) == 0
        out = capsys.readouterr().out
        assert "1 runs over 1 scenarios x 1 seeds" in out
        assert "binary+silent+synchronous" in out

    def test_replays_a_counterexample_record_with_its_seed(self, tmp_path, capsys):
        # The wrapped form the fuzzer emits: {"spec": ..., "seed": ...} — the
        # recorded seed is the default, so the replay is the exact violating run.
        from repro.store.fingerprint import spec_payload

        spec = make_scenario(
            "binary", "none", "partition", params={"release_time": 20_000.0}
        )
        record = {"spec": spec_payload(spec), "seed": DEFAULT_SEED + 3, "violations": []}
        spec_file = tmp_path / "counterexample.json"
        spec_file.write_text(json.dumps(record))
        assert run_cli("run", "--spec", str(spec_file)) == 1
        captured = capsys.readouterr()
        assert f"seed={DEFAULT_SEED + 3}" in captured.err
        assert "termination violated" in captured.err

    def test_explicit_seeds_override_the_recorded_seed(self, tmp_path, capsys):
        from repro.store.fingerprint import spec_payload

        spec = make_scenario("binary", "silent", "synchronous")
        record = {"spec": spec_payload(spec), "seed": 99}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(record))
        assert run_cli("run", "--spec", str(spec_file), "--seeds", "2") == 0
        assert "x 2 seeds" in capsys.readouterr().out

    def test_roundtrips_through_spec_payload(self):
        from repro.store.fingerprint import spec_from_payload, spec_payload

        spec = make_scenario(
            "quad", "equivocation", "partition", n=7, t=2,
            params={"release_time": 50.0, "gst": 5.0},
        )
        assert spec_from_payload(spec_payload(spec)) == spec

    @pytest.mark.parametrize(
        "content, message",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"name": "x"}', "missing or invalid"),
        ],
    )
    def test_bad_spec_files_fail_cleanly(self, tmp_path, capsys, content, message):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(content)
        assert run_cli("run", "--spec", str(spec_file)) == 2
        assert message in capsys.readouterr().err

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert run_cli("run", "--spec", str(tmp_path / "nope.json")) == 2
        assert "cannot read spec file" in capsys.readouterr().err
