"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import MACHINE_NAMES, build_parser, main
from repro.graph import io, rmat


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.machine == "acc+HyVE-opt"
        assert args.algorithm == "pr"
        assert args.dataset == "YT"

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--machine", "acc+Optane"])

    def test_machine_list_complete(self):
        assert "GraphR" in MACHINE_NAMES
        assert "CPU+DRAM" in MACHINE_NAMES
        assert "acc+HyVE-opt" in MACHINE_NAMES


class TestInfo:
    def test_lists_everything(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "com-youtube" in out
        assert "acc+HyVE-opt" in out
        assert "fig16" in out


class TestRun:
    def test_run_dataset(self, capsys):
        assert main(["run", "--dataset", "YT", "--algorithm", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "MTEPS/W" in out
        assert "breakdown" in out

    def test_run_json(self, capsys):
        assert main(["run", "--dataset", "YT", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "acc+HyVE-opt"
        assert payload["mteps_per_watt"] > 0
        assert sum(payload["breakdown"].values()) == pytest.approx(1.0)

    def test_run_custom_graph(self, tmp_path, capsys):
        graph = rmat(100, 400, seed=1, name="custom")
        path = tmp_path / "g.txt"
        io.save_edge_list(graph, path)
        assert main(["run", "--graph", str(path), "--algorithm", "cc"]) == 0
        assert "CC" in capsys.readouterr().out

    def test_run_graphr_machine(self, capsys):
        assert main(
            ["run", "--dataset", "YT", "--machine", "GraphR"]
        ) == 0
        assert "GraphR" in capsys.readouterr().out


class TestCompare:
    def test_ranks_all_machines(self, capsys):
        assert main(["compare", "--dataset", "YT", "--algorithm", "pr"]) == 0
        out = capsys.readouterr().out
        for name in MACHINE_NAMES:
            assert name in out
        # HyVE-opt must rank first.
        first_line = out.splitlines()[1]
        assert first_line.startswith("acc+HyVE-opt")


class TestFaultsFlag:
    def test_run_with_faults_prints_summary(self, capsys):
        assert main(["run", "--dataset", "YT", "--faults", "harsh",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        assert "injected" in out

    def test_run_faults_json_payload(self, capsys):
        assert main(["run", "--dataset", "YT", "--faults", "mild",
                     "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"]["total_injected"] > 0

    def test_faults_deterministic_across_invocations(self, capsys):
        argv = ["run", "--dataset", "YT", "--faults", "worn",
                "--seed", "42", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--faults", "apocalyptic"])

    def test_cpu_machine_ignores_faults(self, capsys):
        assert main(["run", "--dataset", "YT", "--machine", "CPU+DRAM",
                     "--faults", "harsh"]) == 0
        assert "faults:" not in capsys.readouterr().out


class TestErrorExits:
    def test_unknown_dataset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "ORKUT"])

    def test_unknown_machine_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--machine", "acc+Optane"])

    def test_missing_graph_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert main(["run", "--graph", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_malformed_graph_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n2 banana\n")
        assert main(["run", "--graph", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.txt:2" in err
        assert err.startswith("error:")

    @pytest.mark.parametrize("header", [
        {"schema": "hyve-updates-v1"},
        {"schema": "hyve-updates-v1", "num_vertices": "many"},
    ], ids=["missing", "non-integer"])
    def test_bad_update_log_header_exits_2(self, tmp_path, capsys, header):
        log = tmp_path / "bad.jsonl"
        log.write_text(json.dumps(header) + "\n")
        assert main(["stream", "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.jsonl:1" in err
        assert err.count("\n") == 1


class TestExperiment:
    def test_single_experiment_no_save(self, capsys):
        assert main(["experiment", "table3", "--no-save"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "102.1" in out or "102.07" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "fig99", "--no-save"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["experiment", "table3",
                                          "--jobs", "4"])
        assert args.jobs == 4

    def test_experiment_with_jobs_matches_serial(self, capsys):
        assert main(["experiment", "table3", "--no-save"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "table3", "--no-save",
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestCacheCommand:
    def test_info_reports_store(self, capsys, tmp_path, monkeypatch):
        from repro.perf.cache import RunCache, set_run_cache

        set_run_cache(RunCache(directory=tmp_path / "store"))
        try:
            assert main(["run", "--dataset", "YT"]) == 0
            capsys.readouterr()
            assert main(["cache", "info"]) == 0
            out = capsys.readouterr().out
            assert str(tmp_path / "store") in out
            assert "disk entries:" in out
            assert "session stats:" in out
        finally:
            set_run_cache(None)

    def test_clear_removes_entries(self, capsys, tmp_path):
        from repro.perf.cache import RunCache, set_run_cache

        set_run_cache(RunCache(directory=tmp_path / "store"))
        try:
            assert main(["run", "--dataset", "YT"]) == 0
            capsys.readouterr()
            assert main(["cache", "clear"]) == 0
            out = capsys.readouterr().out
            assert "removed" in out
            assert "cached run(s)" in out
            assert main(["cache", "info"]) == 0
            assert "disk entries:   0" in capsys.readouterr().out
        finally:
            set_run_cache(None)

    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "compact"])

    def test_migrate_adopts_legacy_files(self, capsys, tmp_path):
        from repro.perf.cache import temporary_run_cache

        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "scalar-ab12.json").write_text(
            '{"name": "s", "value": 2.5, "salt": "v"}')
        with temporary_run_cache(directory):
            assert main(["cache", "migrate"]) == 0
            out = capsys.readouterr().out
            assert "migrated 1 entr(ies)" in out
        assert not (directory / "scalar-ab12.json").exists()

    def test_verify_flags_quarantine(self, capsys, tmp_path):
        from repro.perf.cache import temporary_run_cache

        with temporary_run_cache(tmp_path / "store") as cache:
            store = cache._disk()
            store.put("k", b"x" * 32, kind="run")
            assert main(["cache", "verify"]) == 0
            assert "1 ok" in capsys.readouterr().out
            store.corrupt_bit("k", 5)
            assert main(["cache", "verify"]) == 1
            assert "quarantined" in capsys.readouterr().out

    def test_vacuum_reports_compaction(self, capsys, tmp_path):
        from repro.perf.cache import temporary_run_cache

        with temporary_run_cache(tmp_path / "store") as cache:
            store = cache._disk()
            store.put("k", b"x" * 32, kind="run")
            store.corrupt_bit("k", 5)
            store.get("k")  # quarantines
            assert main(["cache", "vacuum"]) == 0
            out = capsys.readouterr().out
            assert "dropped 1 quarantined row(s)" in out

    def test_maintenance_fails_cleanly_without_store(self, capsys):
        from repro.perf.cache import temporary_run_cache

        with temporary_run_cache(""):  # memory-only: no disk store
            for action in ("migrate", "verify", "vacuum"):
                assert main(["cache", action]) == 1
        assert "failed" in capsys.readouterr().err


class TestVerboseStats:
    def test_run_verbose_prints_cache_line(self, capsys):
        assert main(["run", "--dataset", "YT", "--verbose"]) == 0
        assert "[run cache]" in capsys.readouterr().out

    def test_run_quiet_by_default(self, capsys):
        assert main(["run", "--dataset", "YT"]) == 0
        assert "[run cache]" not in capsys.readouterr().out

    def test_compare_verbose_prints_cache_line(self, capsys):
        assert main(["compare", "--dataset", "YT", "--verbose"]) == 0
        assert "[run cache]" in capsys.readouterr().out
