"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import COMMANDS, build_parser, main

#: One minimal invocation per command and a line its output must hold.
#: Each cmd_* imports what it runs, so these go through a *fresh*
#: interpreter: a name that only resolves because another test already
#: imported its module fails here.
FRESH = {
    "workloads": ([], "matmul"),
    "run": (["blockchain", "--scale", "0.05"], "'status': 'OK'"),
    "partition": (["bfs", "--scale", "0.05"], "[glamdring]"),
    "attack": (["bfs", "--scale", "0.05"],
               "SecureLease binary: attack succeeded = False"),
    "fleet": (["--nodes", "3", "--checks", "10"], "pool conserved: True"),
    "report": (["fig8"], "Figure 8"),
}
#: These talk to (or are) a running fleet; the suites that start one run
#: them: test_serve_remote.py and test_import_closure.py (subprocesses),
#: tests/net/test_stats.py, tests/redteam/test_cli_redteam.py, and
#: benchmarks/test_failover.py for ``ring``.
NEED_A_FLEET = {"serve-remote", "stats", "ring", "redteam"}


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
        command = ["serve-remote", "--wire"]
        assert parser.parse_args(command + ["3"]).wire == 3
        for retired in ("1", "2"):
            with pytest.raises(SystemExit):
                parser.parse_args(command + [retired])
        for client in (["run", "bfs"], ["fleet"]):
            with pytest.raises(SystemExit):
                parser.parse_args(client + ["--wire", "3"])
        assert "invalid choice" in capsys.readouterr().err

    def test_io_flag_has_one_legal_value(self, capsys):
        """``serve-remote --io async --wire 3`` is bench/harness.py's
        command line and still parses; the thread-per-connection server
        is gone, so ``--io threads`` is a usage error."""
        parser = build_parser()
        args = parser.parse_args(["serve-remote", "--io", "async",
                                  "--wire", "3"])
        assert (args.io, args.wire) == ("async", 3)
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-remote", "--io", "threads"])
        assert "invalid choice: 'threads'" in capsys.readouterr().err

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


class TestEveryCommand:
    def test_every_command_is_classified(self):
        """A command added to ``COMMANDS`` needs a minimal invocation
        (or a live-fleet suite) before this file passes again."""
        assert set(FRESH) | NEED_A_FLEET == set(COMMANDS)
        assert not set(FRESH) & NEED_A_FLEET

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert command in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(FRESH))
    def test_minimal_invocation_from_a_fresh_interpreter(self, command,
                                                         src_env):
        argv, expected = FRESH[command]
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", command, *argv],
            env=src_env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert expected in done.stdout
