"""Tests for the architectural explorer and the command-line interface."""

import pytest

from repro.assay.protocols.pcr import build_pcr_mixing_graph
from repro.cli import build_parser, main
from repro.placement.annealer import AnnealingParams
from repro.synthesis.architect import ArchitecturalExplorer, DesignPoint


@pytest.fixture(scope="module")
def exploration():
    explorer = ArchitecturalExplorer(params=AnnealingParams.fast(), seed=7)
    return explorer.explore(
        build_pcr_mixing_graph(), concurrency_caps=(2, 3)
    )


class TestDesignPoint:
    def make(self, makespan, area, fti):
        return DesignPoint(
            strategy="fastest", max_concurrent_ops=3, makespan_s=makespan,
            area_cells=area, area_mm2=area * 2.25, fti=fti, runtime_s=0.1,
        )

    def test_dominates(self):
        better = self.make(19, 63, 0.5)
        worse = self.make(25, 70, 0.3)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_equal_points_do_not_dominate(self):
        a = self.make(19, 63, 0.5)
        b = self.make(19, 63, 0.5)
        assert not a.dominates(b)

    def test_tradeoff_points_incomparable(self):
        fast_big = self.make(19, 90, 0.4)
        slow_small = self.make(30, 60, 0.4)
        assert not fast_big.dominates(slow_small)
        assert not slow_small.dominates(fast_big)


class TestExplorer:
    def test_point_count(self, exploration):
        # 2 strategies x 2 caps.
        assert len(exploration.points) == 4

    def test_pareto_front_nonempty_and_subset(self, exploration):
        front = exploration.pareto_front
        assert front
        assert set(front) <= set(exploration.points)

    def test_front_is_mutually_nondominated(self, exploration):
        front = exploration.pareto_front
        for a in front:
            for b in front:
                assert not a.dominates(b) or a == b

    def test_lower_cap_never_shortens_makespan(self, exploration):
        by_key = {
            (p.strategy, p.max_concurrent_ops): p for p in exploration.points
        }
        for strategy in ("fastest", "smallest"):
            assert (
                by_key[(strategy, 2)].makespan_s
                >= by_key[(strategy, 3)].makespan_s
            )

    def test_table_renders(self, exploration):
        text = exploration.table_text()
        assert "pareto" in text
        assert "fastest" in text and "smallest" in text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        # Not an argparse choices= rejection: --protocol accepts open
        # gen: specs, so the catalog validates and main maps it to 2.
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--protocol", "warp"])
        assert exc.value.code == 2

    def test_flow_command_runs(self, capsys):
        rc = main(["flow", "--protocol", "pcr", "--seed", "2", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "assay: pcr-mixing-stage" in out
        assert "FTI" in out

    def test_flow_with_beta_uses_two_stage(self, capsys):
        rc = main(["flow", "--protocol", "dilution", "--beta", "20",
                   "--seed", "3", "--fast"])
        assert rc == 0
        assert "fault tolerance" in capsys.readouterr().out

    def test_explore_command_runs(self, capsys):
        rc = main(["explore", "--protocol", "pcr", "--seed", "5", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pareto front" in out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_fast_selects_larger_preset(self):
        args = build_parser().parse_args(["flow", "--no-fast"])
        assert args.fast is False
        args = build_parser().parse_args(["flow"])
        assert args.fast is True

    @pytest.mark.parametrize("extra", [[], ["--beta", "30"]], ids=["sa", "two-stage"])
    def test_place_rate_matches_printed_seconds(self, capsys, extra):
        """The printed rate is the printed proposals over the printed
        seconds, up to the rounding of the printed figures."""
        import re

        rc = main(["place", "--protocol", "pcr", "--seed", "2", "--fast", *extra])
        out = capsys.readouterr().out
        assert rc == 0
        m = re.search(
            r"annealer: (\d+) proposals in ([\d.]+) s = ([\d,]+) proposals/s", out
        )
        assert m, out
        proposals, seconds = int(m.group(1)), float(m.group(2))
        rate = float(m.group(3).replace(",", ""))
        implied = proposals / rate
        # seconds is rounded to 3 decimals, rate to the nearest unit.
        assert abs(implied - seconds) <= 0.0005 + implied * 0.5 / rate + 1e-9
        total = float(re.search(r"placer: ([\d.]+) s total", out).group(1))
        assert total >= seconds

    def test_route_command_prints_verified_plan(self, capsys):
        rc = main(["route", "--protocol", "pcr", "--seed", "2", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification: conflict-free" in out
        assert "routability" in out
        assert "latency" in out

    def test_route_command_avoids_declared_fault(self, capsys):
        rc = main(
            ["route", "--protocol", "pcr", "--seed", "2", "--faulty", "4", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification: conflict-free" in out


class TestPortfolioCommand:
    def test_portfolio_runs_and_reports_winner(self, capsys):
        rc = main(["portfolio", "--protocol", "pcr", "-n", "2",
                   "--seed", "7", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "winner: instance" in out
        assert "assay: pcr-mixing-stage" in out

    def test_portfolio_json_output(self, capsys):
        import json

        rc = main(["portfolio", "--protocol", "pcr", "-n", "2",
                   "--seed", "7", "--fast", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["objective"] == "area"
        assert len(d["instances"]) == 2
        assert d["instances"][d["winner_index"]]["result"]["area_cells"] > 0

    def test_portfolio_objective_flag(self, capsys):
        rc = main(["portfolio", "--protocol", "pcr", "-n", "2", "--seed", "7",
                   "--objective", "fti", "--fast"])
        assert rc == 0
        assert "fti" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_grid_runs(self, capsys):
        rc = main(["batch", "--protocols", "pcr,dilution",
                   "--faults", "none,center", "--seed", "7", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pcr" in out and "dilution" in out
        assert "scenarios ok" in out

    def test_batch_json_round_trips(self, capsys):
        import json

        rc = main(["batch", "--protocols", "pcr", "--faults", "none,corner",
                   "--seed", "7", "--fast", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["scenario_count"] == 2
        assert d["ok_count"] == 2
        assert json.loads(json.dumps(d)) == d

    def test_batch_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["batch", "--protocols", "warp", "--fast"])

    def test_batch_rejects_unknown_fault_pattern(self):
        with pytest.raises(SystemExit):
            main(["batch", "--protocols", "pcr", "--faults", "meteor", "--fast"])

    def test_batch_rejects_empty_protocol_list_cleanly(self):
        with pytest.raises(SystemExit, match="at least one assay"):
            main(["batch", "--protocols", ",", "--fast"])

    def test_portfolio_unproducible_objective_exits_cleanly(self):
        with pytest.raises(SystemExit, match="route=True"):
            main(["portfolio", "--protocol", "pcr", "-n", "2", "--seed", "7",
                  "--objective", "route-steps", "--fast"])
