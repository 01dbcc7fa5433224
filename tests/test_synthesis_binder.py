"""Unit tests for resource binding."""

import pytest

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.synthesis.binder import ResourceBinder
from repro.util.errors import BindingError


def tiny_graph() -> SequencingGraph:
    g = SequencingGraph()
    g.add_operation(Operation("mix", OperationType.MIX))
    g.add_operation(Operation("det", OperationType.DETECT))
    g.add_dependency("mix", "det")
    return g


class TestExplicitBinding:
    def test_pcr_table1(self):
        g = build_pcr_mixing_graph()
        binding = ResourceBinder().bind(g, explicit=PCR_BINDING)
        assert binding.spec_for("M1").name == "mixer-2x2"
        assert binding.spec_for("M7").name == "mixer-2x4"
        assert len(binding) == 7

    def test_unknown_op_in_explicit_map(self):
        g = tiny_graph()
        with pytest.raises(BindingError, match="unknown operations"):
            ResourceBinder().bind(g, explicit={"ghost": "mixer-2x2"})

    def test_unknown_spec_name(self):
        g = tiny_graph()
        with pytest.raises(BindingError, match="no module spec"):
            ResourceBinder().bind(g, explicit={"mix": "warp-drive"})

    def test_explicit_overrides_hardware_hint(self):
        g = SequencingGraph()
        g.add_operation(Operation("m", OperationType.MIX, hardware="mixer-2x2"))
        binding = ResourceBinder().bind(g, explicit={"m": "mixer-2x4"})
        assert binding.spec_for("m").name == "mixer-2x4"


class TestStrategyBinding:
    def test_fastest_picks_min_duration(self):
        binding = ResourceBinder().bind(tiny_graph(), strategy=ResourceBinder.FASTEST)
        assert binding.spec_for("mix").name == "mixer-2x4"

    def test_smallest_picks_min_footprint(self):
        binding = ResourceBinder().bind(tiny_graph(), strategy=ResourceBinder.SMALLEST)
        assert binding.spec_for("mix").name == "mixer-2x2"

    def test_unknown_strategy(self):
        with pytest.raises(BindingError):
            ResourceBinder().bind(tiny_graph(), strategy="fanciest")

    def test_hardware_hint_used_when_no_explicit(self):
        g = SequencingGraph()
        g.add_operation(Operation("m", OperationType.MIX, hardware="mixer-2x3"))
        binding = ResourceBinder().bind(g)
        assert binding.spec_for("m").name == "mixer-2x3"

    def test_non_reconfigurable_ops_skipped(self):
        g = SequencingGraph()
        g.add_operation(Operation("d", OperationType.DISPENSE, duration_s=2))
        g.add_operation(Operation("m", OperationType.MIX))
        g.add_dependency("d", "m")
        binding = ResourceBinder().bind(g)
        assert "d" not in binding
        assert "m" in binding


class TestBindingQueries:
    def test_durations_resolve_spec_nominal(self):
        g = build_pcr_mixing_graph()
        binding = ResourceBinder().bind(g, explicit=PCR_BINDING)
        # Table 1 durations.
        assert binding.durations() == {
            "M1": 10.0, "M2": 5.0, "M3": 6.0, "M4": 5.0,
            "M5": 5.0, "M6": 10.0, "M7": 3.0,
        }

    def test_op_duration_override_wins(self):
        g = SequencingGraph()
        g.add_operation(Operation("m", OperationType.MIX, duration_s=42.0))
        binding = ResourceBinder().bind(g)
        assert binding.duration_for("m") == 42.0

    def test_duration_for_unbound_portless_op_raises(self):
        g = SequencingGraph()
        g.add_operation(Operation("d", OperationType.DISPENSE))  # no duration
        binding = ResourceBinder().bind(g)
        with pytest.raises(BindingError):
            binding.duration_for("d")

    def test_spec_for_unbound_raises(self):
        binding = ResourceBinder().bind(tiny_graph())
        with pytest.raises(BindingError):
            binding.spec_for("ghost")
