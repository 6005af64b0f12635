"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_seed_parsed(self):
        args = build_parser().parse_args(["--seed", "7", "workloads"])
        assert args.seed == 7

    def test_wire_flag_has_one_legal_value(self, capsys):
        """``serve-remote --wire 3`` still parses (bench/ passes it);
        the retired formats are usage errors, and the client commands
        lost the flag altogether."""
        parser = build_parser()
        command = ["serve-remote", "--io", "async", "--wire"]
        assert parser.parse_args(command + ["3"]).wire == 3
        for retired in ("1", "2"):
            with pytest.raises(SystemExit):
                parser.parse_args(command + [retired])
        for client in (["run", "bfs"], ["fleet"]):
            with pytest.raises(SystemExit):
                parser.parse_args(client + ["--wire", "3"])
        assert "invalid choice" in capsys.readouterr().err

    def test_simulated_commit_flags_are_gone(self, capsys):
        """The commit is the WAL's fsync; the sleep that stood in for
        it and the whole-server lock it was measured against are usage
        errors now, not silently ignored."""
        parser = build_parser()
        for retired in (["--ledger-commit-seconds", "0.02"],
                        ["--serialize-dispatch"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve-remote"] + retired)
            assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("bfs", "btree", "hashjoin", "openssl", "pagerank",
                     "blockchain", "svm", "mapreduce", "keyvalue",
                     "jsonparser", "matmul"):
            assert name in out

    def test_run_succeeds_with_license(self, capsys):
        assert main(["run", "blockchain", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "'status': 'OK'" in out
        assert "remote attestations" in out

    def test_run_unknown_workload(self):
        with pytest.raises(KeyError):
            main(["run", "doom"])

    def test_partition_reports_both_schemes(self, capsys):
        assert main(["partition", "bfs", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "[securelease]" in out
        assert "[glamdring]" in out
        assert "EPC faults" in out

    def test_attack_story_ends_defended(self, capsys):
        assert main(["attack", "bfs", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Unprotected binary: attack succeeded = True" in out
        assert "SecureLease binary: attack succeeded = False" in out

    def test_fleet_conserves_pool(self, capsys):
        assert main(["fleet", "--nodes", "3", "--checks", "10"]) == 0
        out = capsys.readouterr().out
        assert "pool conserved: True" in out

    def test_deterministic_given_seed(self, capsys):
        main(["--seed", "5", "run", "blockchain", "--scale", "0.05"])
        first = capsys.readouterr().out
        main(["--seed", "5", "run", "blockchain", "--scale", "0.05"])
        second = capsys.readouterr().out
        assert first == second
