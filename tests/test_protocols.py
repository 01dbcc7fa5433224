"""Unit tests for the protocol builders (PCR, dilution, diagnostics)."""

import pytest
from assays import build_pcr_full_graph

from repro.assay.operations import OperationType
from repro.assay.protocols.dilution import build_serial_dilution_graph
from repro.assay.protocols.glucose import build_multiplexed_diagnostics_graph
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph


class TestPCRMixingGraph:
    def test_seven_mix_operations(self):
        g = build_pcr_mixing_graph()
        assert len(g) == 7
        assert all(op.type is OperationType.MIX for op in g)

    def test_figure5_tree_edges(self):
        g = build_pcr_mixing_graph()
        assert g.edges() == [
            ("M1", "M5"), ("M2", "M5"), ("M3", "M6"),
            ("M4", "M6"), ("M5", "M7"), ("M6", "M7"),
        ]

    def test_binding_covers_all_ops(self):
        g = build_pcr_mixing_graph()
        assert set(PCR_BINDING) == {op.id for op in g}

    def test_leaves_carry_reagent_pairs(self):
        g = build_pcr_mixing_graph()
        reagents = set()
        for leaf in ("M1", "M2", "M3", "M4"):
            pair = g.operation(leaf).params["reagents"]
            assert len(pair) == 2
            reagents.update(pair)
        assert len(reagents) == 8  # eight distinct PCR reagents

    def test_hardware_hints_match_table1(self):
        g = build_pcr_mixing_graph()
        for op_id, hw in PCR_BINDING.items():
            assert g.operation(op_id).hardware == hw

    def test_m7_is_sink(self):
        g = build_pcr_mixing_graph()
        assert g.sinks() == ["M7"]
        assert [op.id for op in g if not g.predecessors(op.id)] == ["M1", "M2", "M3", "M4"]


class TestPCRFullGraph:
    def test_has_dispense_and_output(self):
        g = build_pcr_full_graph()
        kinds = {op.type for op in g}
        assert OperationType.DISPENSE in kinds
        assert OperationType.OUTPUT in kinds

    def test_eight_dispenses(self):
        g = build_pcr_full_graph()
        dispenses = [op for op in g if op.type is OperationType.DISPENSE]
        assert len(dispenses) == 8

    def test_each_leaf_mix_has_two_dispense_inputs(self):
        g = build_pcr_full_graph()
        for leaf in ("M1", "M2", "M3", "M4"):
            preds = g.predecessors(leaf)
            assert len(preds) == 2
            assert all(g.operation(p).type is OperationType.DISPENSE for p in preds)

    def test_output_follows_m7(self):
        g = build_pcr_full_graph()
        assert g.predecessors("OUT") == ["M7"]
        assert g.sinks() == ["OUT"]


class TestSerialDilution:
    def test_depth_controls_rungs(self):
        g = build_serial_dilution_graph(depth=4)
        dilutes = [op for op in g if op.type is OperationType.DILUTE]
        assert len(dilutes) == 4

    def test_chain_dependencies(self):
        g = build_serial_dilution_graph(depth=3)
        assert ("DIL1", "DIL2") in g.edges()
        assert ("DIL2", "DIL3") in g.edges()

    def test_concentration_params_halve(self):
        g = build_serial_dilution_graph(depth=3)
        assert g.operation("DIL1").params["ratio"] == pytest.approx(0.5)
        assert g.operation("DIL3").params["ratio"] == pytest.approx(0.125)

    def test_every_rung_stores_its_aliquot(self):
        g = build_serial_dilution_graph(2)
        assert sum(1 for op in g if op.type is OperationType.STORE) == 2

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            build_serial_dilution_graph(0)

    def test_graph_validates(self):
        build_serial_dilution_graph(5).validate()


class TestMultiplexedDiagnostics:
    def test_pair_count(self):
        g = build_multiplexed_diagnostics_graph(samples=2, reagents=3)
        mixes = [op for op in g if op.type is OperationType.MIX]
        assert len(mixes) == 6

    def test_each_pair_is_independent_chain(self):
        g = build_multiplexed_diagnostics_graph(samples=1, reagents=1)
        # dispense x2 -> mix -> detect -> output
        assert len(g) == 5
        assert g.predecessors("DET-sample1-reagent1") == ["MIX-sample1-reagent1"]

    def test_requested_mixer_hint(self):
        g = build_multiplexed_diagnostics_graph(1, 1)
        assert g.operation("MIX-sample1-reagent1").hardware == "mixer-2x3"

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            build_multiplexed_diagnostics_graph(0, 2)

    def test_graph_validates(self):
        build_multiplexed_diagnostics_graph(3, 2).validate()
