"""The CLI's documented, scriptable exit-code contract.

``repro.cli`` documents five statuses — 0 ok, 2 usage, 3 infeasible,
4 timeout, 5 crashed — and maps the :class:`repro.util.errors.ReproError`
hierarchy onto them in exactly one place (``main``'s handler). These
tests assert the numbers themselves, so scripts gating on ``$?`` keep
working.
"""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.cli import (
    EXIT_CRASHED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    CliExit,
    _exit_code,
    main,
)
from repro.exec import (
    STATUS_CRASHED,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_RETRIED_OK,
    STATUS_TIMEOUT,
)
from repro.util.errors import (
    PipelineError,
    UsageError,
    WorkerCrashError,
    WorkerTimeoutError,
)


class TestExitConstants:
    def test_documented_values(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_TIMEOUT,
                EXIT_CRASHED) == (0, 2, 3, 4, 5)


class TestCliExit:
    def test_is_a_system_exit_with_message_and_code(self):
        exc = CliExit("batch: unknown protocol", EXIT_USAGE)
        assert isinstance(exc, SystemExit)
        assert str(exc) == "batch: unknown protocol"
        assert exc.code == EXIT_USAGE

    def test_match_works_through_pytest_raises(self):
        with pytest.raises(SystemExit, match="unknown protocol"):
            raise CliExit("batch: unknown protocol", EXIT_USAGE)


class TestWorstStatusWins:
    def test_all_ok(self):
        assert _exit_code([STATUS_OK, STATUS_RETRIED_OK]) == EXIT_OK

    def test_empty_is_ok(self):
        assert _exit_code([]) == EXIT_OK

    def test_infeasible_beats_ok(self):
        assert _exit_code([STATUS_OK, STATUS_INFEASIBLE]) == EXIT_INFEASIBLE

    def test_timeout_beats_infeasible(self):
        assert _exit_code(
            [STATUS_INFEASIBLE, STATUS_TIMEOUT, STATUS_OK]
        ) == EXIT_TIMEOUT

    def test_crashed_beats_everything(self):
        assert _exit_code(
            [STATUS_TIMEOUT, STATUS_CRASHED, STATUS_INFEASIBLE]
        ) == EXIT_CRASHED


def run_cli(argv) -> tuple[int, str]:
    """main() with SystemExit unwrapped to its numeric status."""
    try:
        return main(argv), ""
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1, str(exc)


class TestErrorHandlerMapping:
    """One handler in main() maps each error family to its number."""

    @pytest.mark.parametrize(
        "raised, expected",
        [
            (UsageError("bad flags"), EXIT_USAGE),
            (WorkerTimeoutError("deadline exceeded"), EXIT_TIMEOUT),
            (WorkerCrashError("worker died"), EXIT_CRASHED),
            (PipelineError("no feasible placement"), EXIT_INFEASIBLE),
            (ValueError("bad literal"), EXIT_USAGE),
        ],
    )
    def test_exception_to_exit_code(self, monkeypatch, capsys, raised, expected):
        def boom(args):
            raise raised

        monkeypatch.setattr(
            cli.argparse.ArgumentParser, "parse_args",
            lambda self, argv=None: cli.argparse.Namespace(
                command="sweep", func=boom
            ),
        )
        code, message = run_cli(["sweep"])
        assert code == expected
        assert str(raised) in message
        assert f"sweep: {raised}" in capsys.readouterr().err

    def test_command_return_value_passes_through(self, monkeypatch):
        monkeypatch.setattr(
            cli.argparse.ArgumentParser, "parse_args",
            lambda self, argv=None: cli.argparse.Namespace(
                command="sweep", func=lambda args: EXIT_OK
            ),
        )
        assert main(["sweep"]) == EXIT_OK


class TestRealUsageErrors:
    """End-to-end exit 2 on flag validation (no synthesis involved)."""

    def test_unknown_protocol(self, capsys):
        code, _ = run_cli(["batch", "--protocols", "warp"])
        assert code == EXIT_USAGE
        assert "unknown protocol" in capsys.readouterr().err

    def test_unknown_fault_pattern(self, capsys):
        code, _ = run_cli(["batch", "--protocols", "pcr", "--faults", "meteor"])
        assert code == EXIT_USAGE
        assert "unknown fault pattern" in capsys.readouterr().err

    def test_journal_without_sweep(self, capsys):
        code, _ = run_cli(["recover", "--journal", "j.jsonl"])
        assert code == EXIT_USAGE
        assert "--sweep" in capsys.readouterr().err

    def test_resume_without_sweep(self):
        code, _ = run_cli(["recover", "--resume", "j.jsonl"])
        assert code == EXIT_USAGE

    def test_resume_from_missing_journal(self, tmp_path, capsys):
        # Pointing --resume at a nonexistent path is a flag error (2),
        # not a journal-integrity error (3).
        code, _ = run_cli(
            ["batch", "--resume", str(tmp_path / "nope.jsonl")]
        )
        assert code == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_cell_with_sweep(self, capsys):
        code, _ = run_cli(["recover", "--sweep", "--cell", "1", "1"])
        assert code == EXIT_USAGE

    def test_fault_time_out_of_range(self):
        code, _ = run_cli(["recover", "--fault-time", "1.5"])
        assert code == EXIT_USAGE

    def test_mismatched_cell_fault_time_pairs(self, capsys):
        code, _ = run_cli(
            ["recover", "--cell", "3", "4", "--cell", "5", "6",
             "--fault-time", "0.3"]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "pair up one-to-one" in err
        assert "2 --cell" in err and "1 --fault-time" in err

    def test_mismatched_pairs_on_simulate_too(self, capsys):
        code, _ = run_cli(
            ["simulate", "--fault-time", "0.2", "--fault-time", "0.6",
             "--cell", "2", "2"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_simulate_reps_below_one(self, capsys, reps):
        # Used to run once and exit 0, silently ignoring the value.
        code, _ = run_cli(["simulate", "--reps", reps])
        assert code == EXIT_USAGE
        assert "--reps must be >= 1" in capsys.readouterr().err


class TestUnknownProtocolEverywhere:
    """Every --protocol-taking subcommand maps an unknown name to exit
    2 with the available choices listed — a typo is a usage mistake,
    not a crash (the catalog raises UsageError, never bare KeyError)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--protocol", "warp"],
            ["place", "--protocol", "warp"],
            ["route", "--protocol", "warp"],
            ["simulate", "--protocol", "warp"],
            ["portfolio", "--protocol", "warp"],
            ["recover", "--protocol", "warp"],
            ["explore", "--protocol", "warp"],
            ["batch", "--protocols", "warp"],
        ],
    )
    def test_unknown_protocol_exits_2(self, capsys, argv):
        code, _ = run_cli(argv)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown protocol" in err
        assert "pcr" in err  # the available choices are listed

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--protocol", "gen:warp:n=50"],
            ["recover", "--protocol", "gen:mix-tree"],  # missing n=
            ["batch", "--protocols", "gen:mix-tree:n=bogus"],
        ],
    )
    def test_malformed_generator_spec_exits_2(self, argv):
        code, _ = run_cli(argv)
        assert code == EXIT_USAGE

    def test_catalog_raises_usage_error_not_key_error(self):
        from repro.assay.catalog import build_assay

        with pytest.raises(UsageError, match="unknown protocol"):
            build_assay("warp")


class TestCampaignUsageErrors:
    def test_missing_config_exits_2(self, capsys):
        code, _ = run_cli(["campaign"])
        assert code == EXIT_USAGE
        assert "config file is required" in capsys.readouterr().err

    def test_nonexistent_config_exits_2(self, tmp_path):
        code, _ = run_cli(["campaign", str(tmp_path / "nope.toml")])
        assert code == EXIT_USAGE

    def test_bad_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.toml"
        p.write_text(
            '[campaign]\nname = "x"\n\n'
            '[[grid]]\ngenerators = ["warp"]\n'
        )
        code, _ = run_cli(["campaign", str(p)])
        assert code == EXIT_USAGE
        assert "unknown protocol" in capsys.readouterr().err

    def test_validate_missing_log_exits_2(self, tmp_path):
        code, _ = run_cli(
            ["campaign", "--validate", str(tmp_path / "nope.jsonl")]
        )
        assert code == EXIT_USAGE

    def test_validate_invalid_log_exits_3(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text("{not json\n")
        code, _ = run_cli(["campaign", "--validate", str(log)])
        assert code == EXIT_INFEASIBLE
        assert "INVALID" in capsys.readouterr().out

    def test_sensor_flags_need_closed_loop(self, capsys):
        code, _ = run_cli(["recover", "--sensor-fpr", "0.1"])
        assert code == EXIT_USAGE
        assert "--closed-loop" in capsys.readouterr().err

    def test_argparse_own_usage_error_is_also_2(self):
        code, _ = run_cli(["no-such-command"])
        assert code == EXIT_USAGE

    def test_version_exits_zero(self):
        code, _ = run_cli(["--version"])
        assert code == 0
