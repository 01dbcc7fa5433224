"""Tests for portfolio search: RNG determinism under process parallelism."""

import random

import pytest

from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.pipeline import (
    OBJECTIVES,
    PortfolioSpec,
    instance_seeds,
    objective_value,
    run_portfolio,
)
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import PipelineError
from repro.util.rng import ensure_rng, spawn_rng, spawn_seed


def fast_spec(**kwargs):
    return PortfolioSpec(
        graph=build_pcr_mixing_graph(),
        explicit_binding=PCR_BINDING,
        annealing=AnnealingParams.fast(),
        **kwargs,
    )


class TestSpawnedStreams:
    def test_child_seeds_stable_across_parents(self):
        # Two identically-seeded parents spawn identical seed sequences.
        a, b = random.Random(42), random.Random(42)
        assert [spawn_seed(a) for _ in range(5)] == [spawn_seed(b) for _ in range(5)]

    def test_child_streams_independent_of_each_other(self):
        parent = random.Random(7)
        first, second = spawn_rng(parent), spawn_rng(parent)
        seq1 = [first.random() for _ in range(10)]
        seq2 = [second.random() for _ in range(10)]
        assert seq1 != seq2

    def test_consuming_a_child_does_not_perturb_the_parent(self):
        lonely = random.Random(7)
        spawn_rng(lonely)  # child never used
        expected = lonely.random()

        busy = random.Random(7)
        child = spawn_rng(busy)
        [child.random() for _ in range(100)]  # heavy child usage
        assert busy.random() == expected

    def test_instance_seeds_deterministic_and_distinct(self):
        seeds = instance_seeds(7, 6)
        assert seeds == instance_seeds(7, 6)
        assert len(set(seeds)) == 6
        assert seeds[0] == 7  # instance 0 reuses the flow seed
        # A longer portfolio extends, never reshuffles, the shorter one.
        assert instance_seeds(7, 3) == seeds[:3]

    def test_instance_seeds_validation(self):
        with pytest.raises(TypeError):
            instance_seeds(None, 2)
        with pytest.raises(ValueError):
            instance_seeds(7, 0)


class TestPortfolioDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_portfolio(fast_spec(), n=3, seed=11, objective="area", jobs=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_portfolio(fast_spec(), n=3, seed=11, objective="area", jobs=2)

    def test_identical_winner_regardless_of_worker_count(self, serial, parallel):
        assert serial.winner_index == parallel.winner_index
        assert serial.winner.seed == parallel.winner.seed

    def test_identical_instance_objectives(self, serial, parallel):
        assert [o.objective_value for o in serial.outcomes] == [
            o.objective_value for o in parallel.outcomes
        ]
        assert [o.seed for o in serial.outcomes] == [
            o.seed for o in parallel.outcomes
        ]

    def test_identical_winner_placements(self, serial, parallel):
        a = {
            pm.op_id: (pm.x, pm.y)
            for pm in serial.winner_result.placement_result.placement
        }
        b = {
            pm.op_id: (pm.x, pm.y)
            for pm in parallel.winner_result.placement_result.placement
        }
        assert a == b

    def test_winner_is_best_under_objective(self, serial):
        best = min(o.objective_value for o in serial.outcomes)
        assert serial.winner.objective_value == best

    def test_repeat_run_is_bitwise_stable(self, serial):
        again = run_portfolio(fast_spec(), n=3, seed=11, objective="area", jobs=1)
        assert [o.objective_value for o in again.outcomes] == [
            o.objective_value for o in serial.outcomes
        ]
        assert again.winner_index == serial.winner_index


class TestFacadeIdentity:
    def test_best_of_one_reproduces_the_serial_facade(self):
        # Acceptance bar: for a fixed seed, the serial facade and a
        # --jobs 1 best-of-1 portfolio produce identical metrics.
        seed = 13
        facade = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(
                params=AnnealingParams.fast(), seed=spawn_rng(ensure_rng(seed))
            ),
            seed=seed,
        ).run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)
        portfolio = run_portfolio(fast_spec(), n=1, seed=seed, jobs=1)
        winner = portfolio.winner_result
        assert winner.area_cells == facade.area_cells
        assert winner.makespan == facade.makespan
        assert winner.fti == facade.fti
        assert {
            pm.op_id: (pm.x, pm.y) for pm in winner.placement_result.placement
        } == {pm.op_id: (pm.x, pm.y) for pm in facade.placement_result.placement}


class TestObjectives:
    def test_known_objectives(self):
        assert set(OBJECTIVES) == {"area", "makespan", "fti", "route-steps"}

    def test_unknown_objective_rejected(self):
        with pytest.raises(PipelineError, match="unknown objective"):
            run_portfolio(fast_spec(), n=1, seed=1, objective="beauty")

    def test_missing_metric_rejected(self):
        # route-steps without the routing stage is a configuration error.
        result = fast_spec(route=False).run_instance(seed=1)
        with pytest.raises(PipelineError, match="undefined"):
            objective_value(result, "route-steps")

    def test_unproducible_objective_fails_before_any_instance_runs(self):
        # The mismatch must surface in milliseconds, not after N runs.
        with pytest.raises(PipelineError, match="route=True"):
            run_portfolio(fast_spec(route=False), n=8, seed=1,
                          objective="route-steps")

    def test_fti_objective_maximizes(self):
        portfolio = run_portfolio(fast_spec(), n=3, seed=11, objective="fti", jobs=1)
        best = max(o.objective_value for o in portfolio.outcomes)
        assert portfolio.winner.objective_value == best

    def test_to_dict_is_json_safe(self):
        import json

        portfolio = run_portfolio(fast_spec(), n=2, seed=5, jobs=1)
        d = portfolio.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["winner_index"] == portfolio.winner_index
        assert len(d["instances"]) == 2

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_portfolio(fast_spec(), n=2, seed=5, jobs=0)


class TestSupervisedFailures:
    def test_crashed_instance_lands_in_failures_and_survivors_win(self):
        from repro.exec import STATUS_CRASHED
        from repro.testing.chaos import ChaosPolicy

        chaos = ChaosPolicy.explicit_plan({(0, 0): "unpicklable"})
        portfolio = run_portfolio(
            fast_spec(), n=2, seed=11, jobs=2, max_retries=0, chaos=chaos
        )
        assert len(portfolio.failures) == 1
        failure = portfolio.failures[0]
        assert failure["key"] == "instance-0"
        assert failure["status"] == STATUS_CRASHED
        assert failure["error"]
        # The survivor is selected and carries the original index.
        assert [o.index for o in portfolio.outcomes] == [1]
        assert portfolio.winner.index == 1
        assert "failures" in portfolio.to_dict()

    def test_retried_instance_keeps_the_portfolio_bit_identical(self):
        from repro.testing.chaos import ChaosPolicy

        clean = run_portfolio(fast_spec(), n=2, seed=11, jobs=2)
        chaos = ChaosPolicy.explicit_plan({(1, 0): "unpicklable"})
        stormy = run_portfolio(
            fast_spec(), n=2, seed=11, jobs=2, max_retries=2, chaos=chaos
        )
        assert not stormy.failures
        assert stormy.winner_index == clean.winner_index
        assert [o.objective_value for o in stormy.outcomes] == [
            o.objective_value for o in clean.outcomes
        ]

    def test_every_instance_crashed_raises_worker_crash_error(self):
        from repro.testing.chaos import ChaosPolicy
        from repro.util.errors import WorkerCrashError

        chaos = ChaosPolicy.explicit_plan(
            {(i, 0): "unpicklable" for i in range(2)}
        )
        with pytest.raises(WorkerCrashError, match="all 2 portfolio instances"):
            run_portfolio(
                fast_spec(), n=2, seed=11, jobs=2, max_retries=0, chaos=chaos
            )
