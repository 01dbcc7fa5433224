"""Tests for the simulated-annealing engine (paper Figure 3).

The Metropolis loop is exercised on a toy scalar problem through the
full-recompute oracle, which subclasses the production engine: the
cooling and stop schedule it runs (``SimulatedAnnealing._advance``) is
the production code under test.
"""

import math
import random

import pytest
from oracles import FullRecomputeAnnealing

from repro.placement.annealer import AnnealingParams, AnnealingStats
from repro.placement.window import ControllingWindow


def quadratic_cost(x: float) -> float:
    return (x - 3.0) ** 2


def gaussian_step(x: float, temperature: float, rng: random.Random) -> float:
    return x + rng.gauss(0, 0.5)


class TestAnnealingParams:
    def test_paper_preset_matches_section_4d(self):
        p = AnnealingParams.paper()
        assert p.initial_temp == 10000.0
        assert p.cooling == 0.9
        assert p.iterations_per_module == 400

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingParams(initial_temp=0)
        with pytest.raises(ValueError):
            AnnealingParams(cooling=1.0)
        with pytest.raises(ValueError):
            AnnealingParams(iterations_per_module=0)
        with pytest.raises(ValueError):
            AnnealingParams(freeze_rounds=0)

    @pytest.mark.parametrize("min_temp", [0.0, -1e-4])
    def test_min_temp_must_be_positive(self, min_temp):
        # A zero floor let the temperature underflow to 0.0 and the
        # Metropolis test divide by it.
        with pytest.raises(ValueError, match="min_temp"):
            AnnealingParams(min_temp=min_temp)

    @pytest.mark.parametrize("max_rounds", [0, -3])
    def test_max_rounds_must_be_positive(self, max_rounds):
        # max_rounds=0 used to run one round and report "max-rounds".
        with pytest.raises(ValueError, match="max_rounds"):
            AnnealingParams(max_rounds=max_rounds)

    def test_make_window_shares_schedule(self):
        p = AnnealingParams.fast()
        w = p.make_window(max_span=9)
        assert w.initial_temp == p.initial_temp
        assert w.max_span == 9
        assert w.gamma == p.window_gamma

    def test_presets_are_distinct(self):
        presets = {
            AnnealingParams.paper().initial_temp,
            AnnealingParams.balanced().initial_temp,
            AnnealingParams.fast().initial_temp,
            AnnealingParams.low_temperature().initial_temp,
        }
        assert len(presets) == 4


class TestEngine:
    def run_engine(self, seed=1, params=None, window=None):
        rng = random.Random(seed)
        params = params or AnnealingParams(
            initial_temp=10.0, cooling=0.8, iterations_per_module=1,
            min_temp=1e-3, freeze_rounds=2,
        )
        engine = FullRecomputeAnnealing(params, window=window, seed=seed)
        return engine.optimize(
            10.0,
            quadratic_cost,
            lambda x, t: gaussian_step(x, t, rng),
            inner_iterations=50,
        )

    def test_optimizes_toward_minimum(self):
        best, stats = self.run_engine()
        assert quadratic_cost(best) < quadratic_cost(10.0)
        assert abs(best - 3.0) < 1.0

    def test_stats_are_consistent(self):
        _, stats = self.run_engine()
        assert stats.evaluations == stats.rounds * 50
        assert 0 < stats.acceptances <= stats.evaluations
        assert stats.improvements <= stats.acceptances
        assert stats.best_cost <= stats.initial_cost
        assert len(stats.history) == stats.rounds

    def test_stop_reason_min_temp(self):
        _, stats = self.run_engine()
        assert stats.stop_reason == "min-temp"

    def test_stop_reason_window_frozen(self):
        window = ControllingWindow(initial_temp=10.0, max_span=4, gamma=1.0)
        _, stats = self.run_engine(window=window)
        assert stats.stop_reason == "window-frozen"

    def test_stop_reason_max_rounds(self):
        params = AnnealingParams(
            initial_temp=10.0, cooling=0.99, iterations_per_module=1, max_rounds=3
        )
        engine = FullRecomputeAnnealing(params, seed=0)
        rng = random.Random(0)
        _, stats = engine.optimize(
            10.0, quadratic_cost, lambda x, t: gaussian_step(x, t, rng), 10
        )
        assert stats.rounds == 3
        assert stats.stop_reason == "max-rounds"

    def test_deterministic_given_seed(self):
        # Both the engine's acceptance stream and the proposal stream
        # must be seeded for reproducibility.
        def run(seed):
            rng = random.Random(seed)
            engine = FullRecomputeAnnealing(
                AnnealingParams(initial_temp=5, cooling=0.7, iterations_per_module=1),
                seed=seed,
            )
            return engine.optimize(
                8.0, quadratic_cost, lambda x, t: gaussian_step(x, t, rng), 30
            )[0]
        assert run(7) == run(7)

    def test_invalid_inner_iterations(self):
        engine = FullRecomputeAnnealing(seed=0)
        with pytest.raises(ValueError):
            engine.optimize(0.0, quadratic_cost, lambda x, t: x, 0)

    def test_acceptance_ratio_bounds(self):
        _, stats = self.run_engine()
        assert 0.0 < stats.acceptance_ratio <= 1.0

    def test_best_never_worse_than_history(self):
        _, stats = self.run_engine()
        best_costs = [b for _, _, b in stats.history]
        assert best_costs == sorted(best_costs, reverse=True)

    def test_hill_climbing_happens_at_high_temp(self):
        """Metropolis: at high temperature, worse states are accepted."""
        engine = FullRecomputeAnnealing(
            AnnealingParams(initial_temp=1e6, cooling=0.5, iterations_per_module=1,
                            max_rounds=1),
            seed=3,
        )
        rng = random.Random(3)
        _, stats = engine.optimize(
            3.0,  # start AT the optimum: any move is uphill
            quadratic_cost,
            lambda x, t: gaussian_step(x, t, rng),
            inner_iterations=40,
        )
        assert stats.acceptances > 30  # nearly everything accepted

    def test_empty_stats_defaults(self):
        stats = AnnealingStats()
        assert stats.acceptance_ratio == 0.0
        assert math.isnan(stats.best_cost)
