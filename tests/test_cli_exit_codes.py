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
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import (
    PipelineError,
    UsageError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.workload.campaign import CampaignRunner


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


def _refuse(*args, **kwargs):
    raise AssertionError("work started")


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

    def test_out_of_range_sensor_exits_2_before_any_scenario(
        self, tmp_path, monkeypatch, capsys
    ):
        # Regression: this config used to run, and log every scenario
        # crashed in the sensor's constructor (exit 5).
        monkeypatch.setattr(CampaignRunner, "run", _refuse)
        p = tmp_path / "c.toml"
        p.write_text(
            '[campaign]\nname = "x"\n\n'
            '[[grid]]\ngenerators = ["pcr"]\nfault_models = ["permanent"]\n'
            'sensors = ["fpr=1.0"]\n'
        )
        log = tmp_path / "c.jsonl"
        code, _ = run_cli(["campaign", str(p), "--log", str(log)])
        assert code == EXIT_USAGE
        assert "false_positive_rate must be in [0, 1)" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("sweep", [["--sweep"], []], ids=["sweep", "single"])
    def test_out_of_range_sensor_flag_exits_2_before_synthesis(
        self, monkeypatch, capsys, sweep
    ):
        # Regression: `--sweep` used to run the grid and report every
        # scenario crashed (0/6 recovered, exit 5).
        monkeypatch.setattr(CampaignRunner, "run", _refuse)
        monkeypatch.setattr(SynthesisFlow, "run", _refuse)
        code, _ = run_cli(
            ["recover", "--protocol", "pcr", "--fast", *sweep,
             "--closed-loop", "--sensor-fpr", "1.0"]
        )
        assert code == EXIT_USAGE
        assert "false_positive_rate must be in [0, 1)" in capsys.readouterr().err

    def test_argparse_own_usage_error_is_also_2(self):
        code, _ = run_cli(["no-such-command"])
        assert code == EXIT_USAGE

    def test_version_exits_zero(self):
        code, _ = run_cli(["--version"])
        assert code == 0


class TestOffArrayCells:
    """A fault cell off the simulated array (the placed array plus the
    routing boundary lane) is a flag error, named with the array's
    extent; a boundary-lane cell still runs."""

    @pytest.mark.parametrize(
        "argv, cell",
        [
            (["recover", "--protocol", "pcr", "--cell", "100", "100"], "100 100"),
            (["recover", "--protocol", "pcr", "--cell", "100", "100", "--closed-loop"],
             "100 100"),
            (["simulate", "--cell", "100", "100"], "100 100"),
            (["route", "--faulty", "100", "100"], "100 100"),
            (["simulate", "--cell", "-2", "1"], "-2 1"),
        ],
    )
    def test_off_array_cell_exits_2(self, capsys, argv, cell):
        code, _ = run_cli(argv)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cell} is off the simulated array" in err
        assert "boundary lane" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover", "--protocol", "pcr", "--cell", "0", "0"],
            ["recover", "--protocol", "pcr", "--cell", "0", "0", "--closed-loop"],
            ["simulate", "--cell", "-1", "-1"],
            ["route", "--faulty", "0", "0"],
        ],
    )
    def test_boundary_lane_cell_runs(self, capsys, argv):
        code, _ = run_cli(argv)
        assert code == EXIT_OK
        assert "off the simulated array" not in capsys.readouterr().err


class TestZeroCaps:
    """A zero ``--max-concurrent`` or ``--max-parked`` deadlocks the list
    scheduler; every command taking one rejects it as a flag error
    before resolving the assay, let alone synthesizing it."""

    @pytest.mark.parametrize("flag", ["--max-concurrent", "--max-parked"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--protocol", "warp"],
            ["place", "--protocol", "warp"],
            ["route", "--protocol", "warp"],
            ["simulate", "--protocol", "warp"],
            ["portfolio", "--protocol", "warp"],
            ["recover", "--protocol", "warp"],
            ["recover", "--sweep", "--protocol", "warp"],
            ["batch", "--protocols", "warp"],
        ],
    )
    def test_zero_cap_exits_2(self, capsys, argv, flag):
        code, _ = run_cli([*argv, flag, "0"])
        assert code == EXIT_USAGE
        assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--protocol", "pcr", "--max-concurrent", "0"],
            ["place", "--protocol", "pcr", "--max-parked", "0"],
        ],
    )
    def test_zero_cap_on_a_real_assay_is_not_infeasible(self, argv):
        # Both used to reach the scheduler and exit 3 ("infeasible").
        code, _ = run_cli(argv)
        assert code == EXIT_USAGE
