"""Tests for the synthetic workload generators."""

import pytest
from hypothesis import given, settings
from assays import random_assay
from hypothesis import strategies as st

from repro.assay.operations import OperationType
from repro.assay.synthetic import build_mix_tree
from repro.synthesis.binder import ResourceBinder
from repro.synthesis.scheduler import list_schedule


class TestMixTree:
    def test_four_leaves_matches_pcr_shape(self):
        g = build_mix_tree(4)
        assert len(g) == 7
        assert sum(1 for op in g if not g.predecessors(op.id)) == 4
        assert len(g.sinks()) == 1

    @pytest.mark.parametrize("leaves,expected", [(2, 3), (8, 15), (16, 31)])
    def test_node_count(self, leaves, expected):
        assert len(build_mix_tree(leaves)) == expected

    def test_all_mix_operations(self):
        g = build_mix_tree(8)
        assert all(op.type is OperationType.MIX for op in g)

    def test_every_internal_node_has_two_inputs(self):
        g = build_mix_tree(8)
        for op in g:
            indeg = len(g.predecessors(op.id))
            assert indeg in (0, 2)

    def test_non_power_of_two_rejected(self):
        for bad in (0, 1, 3, 6, 12):
            with pytest.raises(ValueError):
                build_mix_tree(bad)

    def test_hardware_hints_bind_from_standard_library(self):
        g = build_mix_tree(16)
        binding = ResourceBinder().bind(g)
        assert len(binding) == 31

    def test_tree_schedules(self):
        g = build_mix_tree(8)
        binding = ResourceBinder().bind(g)
        schedule = list_schedule(g, binding.durations(), max_concurrent_ops=4)
        schedule.validate_precedence(g)


class TestRandomAssay:
    def test_validates_by_construction(self):
        g = random_assay(operations=15, seed=1)
        g.validate()

    def test_deterministic_with_seed(self):
        a = random_assay(operations=10, seed=4)
        b = random_assay(operations=10, seed=4)
        assert a.edges() == b.edges()
        assert [op.id for op in a] == [op.id for op in b]

    def test_different_seeds_differ(self):
        a = random_assay(operations=20, seed=1)
        b = random_assay(operations=20, seed=2)
        assert a.edges() != b.edges()

    def test_all_sinks_are_outputs(self):
        g = random_assay(operations=12, seed=7)
        for sink in g.sinks():
            assert g.operation(sink).type is OperationType.OUTPUT

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_assay(operations=0)
        with pytest.raises(ValueError):
            random_assay(operations=5, store_fraction=1.5)

    @given(ops=st.integers(1, 25), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_any_random_assay_is_schedulable(self, ops, seed):
        """Property: every generated assay validates, binds from the
        standard library, and schedules under a concurrency cap."""
        g = random_assay(operations=ops, seed=seed)
        g.validate()
        binding = ResourceBinder().bind(g)
        schedule = list_schedule(g, binding.durations(), max_concurrent_ops=3)
        schedule.validate_precedence(g)
